//! Seeded input generation. Everything a workload feeds the program is a
//! pure function of the command-line seed, so the same seed replays the
//! same experiment configurations and the same submission streams.

use fex_core::serve::Submission;
use fex_core::ExperimentConfig;
use fex_suites::InputSize;

/// The build types of the Phoenix matrix.
pub const PHOENIX_TYPES: [&str; 4] = ["gcc_native", "clang_native", "gcc_asan", "clang_asan"];

/// The micro-suite benchmarks serve-mix submissions draw from.
pub const MICRO_BENCHES: [&str; 4] = ["arrayread", "arraywrite", "ptrchase", "branches"];

/// SplitMix64: small, seedable and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Size knobs of the Phoenix op; `smoke` shrinks them for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhoenixShape {
    pub input: InputSize,
    pub reps: usize,
}

impl PhoenixShape {
    pub fn new(smoke: bool) -> PhoenixShape {
        if smoke {
            PhoenixShape { input: InputSize::Test, reps: 1 }
        } else {
            PhoenixShape { input: InputSize::Small, reps: 3 }
        }
    }
}

/// The Phoenix matrix configuration of one workload run: 7 benchmarks ×
/// 4 build types × `reps`, with the experiment seed drawn from `seed`.
pub fn phoenix_config(seed: u64, shape: PhoenixShape, jobs: usize) -> ExperimentConfig {
    ExperimentConfig::new("phoenix")
        .types(PHOENIX_TYPES.to_vec())
        .input(shape.input)
        .repetitions(shape.reps)
        .jobs(jobs)
        .seed(Rng::new(seed).next_u64() >> 1)
}

/// What a serve-mix submission is expected to do at the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A (benchmark, seed) pair nobody submitted before: every unit runs.
    Fresh,
    /// An earlier (benchmark, seed) with another build-type set: the
    /// shared build types are served per unit from the artifact graph.
    Overlap,
    /// An earlier submission re-sent by another tenant: served whole from
    /// the daemon's store, nothing runs.
    Repeat,
}

/// One entry of a client's submission stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub kind: Kind,
    pub sub: Submission,
    /// For a repeat, the index (in this client's stream) of the
    /// submission it repeats.
    pub repeats: Option<usize>,
}

/// Build-type sets of serve-mix submissions: every pair of the four
/// standard types, so two sets drawn for one (benchmark, seed) overlap
/// in zero, one or two types.
const TYPE_SETS: [[&str; 2]; 6] = [
    ["gcc_native", "clang_native"],
    ["gcc_native", "gcc_asan"],
    ["gcc_native", "clang_asan"],
    ["clang_native", "gcc_asan"],
    ["clang_native", "clang_asan"],
    ["gcc_asan", "clang_asan"],
];

/// A client's closed-loop submission stream, endless. About a
/// third of the items repeat an earlier executed item of the same stream
/// from another tenant; the rest execute, half as fresh (benchmark, seed)
/// pairs and half as an earlier pair under a build-type set that shares
/// exactly one type with the pair's first set. Repeats and overlaps only
/// reference this client's own earlier items, which a closed loop has
/// completed before it sends them, so their cache behaviour does not
/// depend on how clients interleave.
#[derive(Debug, Clone)]
pub struct ClientStream {
    rng: Rng,
    client: usize,
    jobs: usize,
    /// Items sent so far.
    count: usize,
    /// Executed (fresh or overlap) items so far, with their stream index.
    executed: Vec<(usize, Submission)>,
    /// (benchmark, seed) pairs so far.
    pairs: Vec<(usize, u64)>,
    /// (pair, type set) overlaps not yet sent: each is sent at most once,
    /// so an overlap is never a whole-submission repeat in disguise.
    overlaps: Vec<(usize, usize)>,
}

impl ClientStream {
    /// The stream of `client` in epoch `epoch` of a run seeded `seed`.
    pub fn new(seed: u64, epoch: u64, client: usize, jobs: usize) -> ClientStream {
        let coords = Rng::new(epoch << 16 | client as u64).next_u64();
        let rng = Rng::new(Rng::new(seed).next_u64() ^ coords);
        ClientStream {
            rng,
            client,
            jobs,
            count: 0,
            executed: Vec::new(),
            pairs: Vec::new(),
            overlaps: Vec::new(),
        }
    }

    fn fresh(&mut self, tenant: &str) -> Item {
        let bench = self.rng.below(MICRO_BENCHES.len());
        // Seeds are tagged with the client so no two clients ever share a
        // (benchmark, seed) pair, and stay below 2^63 so they survive the
        // protocol's signed integers.
        let seed = (self.rng.next_u64() >> 9) << 8 | self.client as u64;
        let set = self.rng.below(TYPE_SETS.len());
        let pair = self.pairs.len();
        self.pairs.push((bench, seed));
        for (other, types) in TYPE_SETS.iter().enumerate() {
            if types.iter().filter(|t| TYPE_SETS[set].contains(t)).count() == 1 {
                self.overlaps.push((pair, other));
            }
        }
        let sub = micro_submission(tenant, bench, seed, set, self.jobs);
        Item { kind: Kind::Fresh, sub, repeats: None }
    }
}

impl Iterator for ClientStream {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        let roll = self.rng.below(6);
        let tenant = format!("tenant-{}-{}", self.client, self.rng.below(3));
        let item = match roll {
            0 | 1 if !self.executed.is_empty() => {
                let (earlier, original) = &self.executed[self.rng.below(self.executed.len())];
                let mut sub = original.clone();
                sub.tenant = format!("{}-again", original.tenant);
                Item { kind: Kind::Repeat, sub, repeats: Some(*earlier) }
            }
            4 | 5 if !self.overlaps.is_empty() => {
                let pick = self.rng.below(self.overlaps.len());
                let (pair, set) = self.overlaps.swap_remove(pick);
                let (bench, seed) = self.pairs[pair];
                let sub = micro_submission(&tenant, bench, seed, set, self.jobs);
                Item { kind: Kind::Overlap, sub, repeats: None }
            }
            _ => self.fresh(&tenant),
        };
        if item.kind != Kind::Repeat {
            self.executed.push((self.count, item.sub.clone()));
        }
        self.count += 1;
        Some(item)
    }
}

fn micro_submission(
    tenant: &str,
    bench: usize,
    seed: u64,
    types: usize,
    jobs: usize,
) -> Submission {
    let mut sub = Submission::new(tenant, "micro");
    sub.benchmark = Some(MICRO_BENCHES[bench].to_string());
    sub.build_types = TYPE_SETS[types].iter().map(|t| t.to_string()).collect();
    sub.seed = seed;
    sub.reps = 2;
    sub.jobs = jobs;
    // At `test` size a submission's units are so short that the loop left
    // the cores idle half the time, and round trips moved with how fast
    // the host woke idle threads: up to 3x between runs minutes apart.
    sub.input = "small".to_string();
    sub
}
