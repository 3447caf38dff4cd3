//! The content-addressed artifact graph: incremental evaluation's
//! run-unit cache.
//!
//! Every run unit's measured result is a *node* keyed by a `fex256`
//! digest over the digests of its inputs plus exactly the configuration
//! bits that affect it. The key derivation is layered so a change dirties
//! precisely its own subtree and nothing else:
//!
//! | layer      | key = digest over                                        |
//! |------------|----------------------------------------------------------|
//! | source     | benchmark name, Cmm source bytes ([`fex_cc::source_digest`]) |
//! | compiled   | source key, backend name+version, `-O` level, asan, debug |
//! | decoded    | compiled key, pass mask bits, cost-model fingerprint      |
//! | run unit   | decoded key, unit seed, threads, rep, input, args, budget |
//!
//! Only run units are stored: they are the one layer a warm run reads
//! back. The upper layers exist as keys alone — the decoded key is also
//! the build system's in-memory decode-cache key
//! ([`Artifact::digest`](crate::build::Artifact)).
//!
//! The graph lives under `<lab>/graph/` with no index: a node is exactly
//! its directory, `nodes/<hex>/`, and its `payload.json` holds two lines
//! — the run payload and the `fex256` digest of that line. A writer
//! renames a whole file into place, so a crash, a torn write or a
//! concurrent writer of the same key leaves no payload or a complete one.
//! A reader serves a node only when its file verifies against its own
//! digest; anything else is a miss, and the store that follows rewrites
//! the node. Graphs written with an index (`graph/index.json`) are
//! upgraded once by [`ArtifactGraph::open`]; mixing older fex binaries
//! on one lab is not supported. `fex lab fsck` walks `nodes/*` (missing
//! or unverifiable payloads) with the same detect/quarantine treatment
//! as run dirs.
//!
//! Only *clean* run units are cached: first-attempt successes of
//! fault-free units. Fault-armed or failing units bypass the graph
//! entirely and re-execute on warm runs, so retry, backoff and
//! quarantine behaviour is identical cold and warm — which is what makes
//! warm CSVs, normalized journal streams and metrics roll-ups
//! byte-identical to cold ones (locked by `tests/graph_diff.rs` and the
//! fuzzer's `warm` oracle).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fex_container::{digest_bytes, Digest, DigestBuilder};
use fex_vm::{CacheStats, HeapStats, PerfCounters, RunResult};

use crate::error::{FexError, Result};
use crate::journal::{self, JsonLine};
use crate::lab::store::scan_index;

// ---------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------

fn feed(d: &mut DigestBuilder, upstream: Digest) {
    d.update(&upstream.0.to_le_bytes());
}

/// The compiled-program key: the source key plus every build option that
/// changes the emitted bytecode (or its provenance).
pub fn compiled_key(
    source: Digest,
    backend_name: &str,
    backend_version: &str,
    opt_level: u8,
    asan: bool,
    debug: bool,
) -> Digest {
    let mut d = DigestBuilder::new();
    feed(&mut d, source);
    d.update_str(backend_name).update_str(backend_version);
    d.update(&[opt_level, u8::from(asan), u8::from(debug)]);
    d.finish()
}

/// The decoded-program key: the compiled key plus the peephole pass mask
/// and the cost-model fingerprint. A cost-model knob change dirties every
/// decoded program (block cycle totals are pre-summed at decode time) but
/// no compiled program.
pub fn decoded_key(compiled: Digest, pass_bits: u8, cost_fingerprint: u64) -> Digest {
    let mut d = DigestBuilder::new();
    feed(&mut d, compiled);
    d.update(&[pass_bits]);
    d.update(&cost_fingerprint.to_le_bytes());
    d.finish()
}

/// One run unit's key: the decoded key plus the unit's full coordinates —
/// its derived seed, thread count, repetition tag (`None` is distinct
/// from every `Some(_)`), workload input and arguments, and the
/// resilience instruction budget (the only policy knob that can change a
/// clean run's outcome).
///
/// Deliberately excluded: `--jobs` and `--chunk` (both proven
/// result-neutral by the differential suites), the measurement tool
/// (extraction happens at collect time from the same [`RunResult`]), and
/// the retry attempt (only first attempts are cached).
pub fn unit_key(
    decoded: Digest,
    unit_seed: u64,
    threads: usize,
    rep: Option<usize>,
    input: &str,
    args: &[i64],
    run_budget: Option<u64>,
) -> Digest {
    let mut d = DigestBuilder::new();
    feed(&mut d, decoded);
    d.update(&unit_seed.to_le_bytes());
    d.update(&(threads as u64).to_le_bytes());
    d.update(&rep.map_or(0u64, |r| r as u64 + 1).to_le_bytes());
    d.update_str(input);
    for a in args {
        d.update(&a.to_le_bytes());
    }
    d.update(&run_budget.map_or(0u64, |b| b + 1).to_le_bytes());
    d.finish()
}

// ---------------------------------------------------------------------
// The on-disk node cache
// ---------------------------------------------------------------------

/// A node's payload file name inside its directory.
pub(crate) const PAYLOAD: &str = "payload.json";

/// The artifact graph's node cache, rooted at `<lab>/graph/`.
///
/// ```text
/// <lab>/graph/
///   nodes/<hex>/payload.json  # the run payload line, then its digest
/// ```
#[derive(Debug)]
pub struct ArtifactGraph {
    root: PathBuf,
    warnings: Vec<String>,
    hits: u64,
    misses: u64,
}

impl ArtifactGraph {
    /// The graph's directory name under the lab root.
    pub const SUBDIR: &'static str = "graph";

    /// Opens (creating if necessary) the graph under the lab rooted at
    /// `lab_root`, first upgrading a graph written with an index (see
    /// [`ArtifactGraph::warnings`]).
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the directory cannot be created.
    pub fn open(lab_root: impl AsRef<Path>) -> Result<Self> {
        let root = lab_root.as_ref().join(Self::SUBDIR);
        fs::create_dir_all(root.join("nodes")).map_err(|e| {
            FexError::Data(format!("cannot create graph at `{}`: {e}", root.display()))
        })?;
        let warnings = upgrade_index(&root);
        Ok(ArtifactGraph { root, warnings, hits: 0, misses: 0 })
    }

    /// The graph's root directory (`<lab>/graph`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Warnings from the upgrade of an older graph: one per index line or
    /// payload it could not verify.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Node directories on disk.
    pub fn len(&self) -> usize {
        node_names(&self.root).len()
    }

    /// Whether the graph holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run units served from the cache this session.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Run-unit lookups that found no (usable) node this session.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up a cached run-unit result, counting a session hit or miss.
    /// A node is served only when its payload file is exactly the payload
    /// line plus that line's digest and the line parses; a missing, torn
    /// or edited node is a miss — the unit simply re-executes — never an
    /// error.
    pub fn lookup_run(&mut self, digest: &Digest) -> Option<RunResult> {
        let served = fs::read_to_string(self.node_dir(digest).join(PAYLOAD))
            .ok()
            .and_then(|text| verified_payload(&text).and_then(run_from_json));
        match served {
            Some(run) => {
                self.hits += 1;
                Some(run)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a clean run unit's result under its key, after a miss: the
    /// node is always written whole, so a torn or edited node is repaired,
    /// and concurrent writers of one key each rename identical bytes into
    /// place.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on filesystem failures.
    pub fn store_run(&mut self, digest: &Digest, run: &RunResult) -> Result<()> {
        write_node(&self.node_dir(digest), &run_to_json(run))
            .map_err(|e| FexError::Data(format!("graph write failed: {e}")))
    }

    /// Renders `fex graph stats` output.
    pub fn render_stats(&self) -> String {
        let mut s = format!("artifact graph at `{}`\n", self.root.display());
        let _ = writeln!(s, "nodes {}", self.len());
        for w in &self.warnings {
            let _ = writeln!(s, "warning: {w}");
        }
        s
    }

    fn node_dir(&self, digest: &Digest) -> PathBuf {
        node_dir_at(&self.root, &digest.to_string())
    }
}

/// The node directory for a digest string, under a graph root.
pub(crate) fn node_dir_at(root: &Path, digest: &str) -> PathBuf {
    root.join("nodes").join(digest.trim_start_matches("fex256:"))
}

/// The names of the node directories under a graph root, sorted.
pub(crate) fn node_names(root: &Path) -> Vec<String> {
    let Ok(dirs) = fs::read_dir(root.join("nodes")) else {
        return Vec::new();
    };
    let mut names: Vec<String> = dirs
        .filter_map(|d| d.ok())
        .filter(|d| d.file_type().is_ok_and(|t| t.is_dir()))
        .map(|d| d.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The payload line of a node's `payload.json`, when the file is exactly
/// two lines — the payload, then the digest of its bytes — and the digest
/// matches.
pub(crate) fn verified_payload(text: &str) -> Option<&str> {
    let (payload, digest) = text.strip_suffix('\n')?.split_once('\n')?;
    (digest_bytes(payload.as_bytes()).to_string() == digest).then_some(payload)
}

/// Writes a node's `payload.json`: the payload line and its digest go to
/// a temporary file in the node's directory, named by this process and a
/// process-wide counter (so no two writers, thread or process, share
/// it), which is then renamed into place. Nothing is synced: a node that
/// a power loss empties or tears fails verification and re-executes.
fn write_node(dir: &Path, payload: &str) -> std::io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    fs::create_dir_all(dir)?;
    let n = WRITES.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("payload.{}.{n}.tmp", std::process::id()));
    fs::write(&tmp, format!("{payload}\n{}\n", digest_bytes(payload.as_bytes())))?;
    fs::rename(&tmp, dir.join(PAYLOAD))
}

/// Parses one line of the index older graphs kept into its node digest
/// and payload digest; lines that also carry `seq` and `kind` keys parse
/// the same. Read only by [`upgrade_index`].
fn parse_legacy_line(line: &str) -> Result<(String, String)> {
    let bad = |i: journal::ParseIssue| FexError::Data(format!("corrupt graph index: {i}"));
    let map = journal::parse_flat_object(line).map_err(bad)?;
    let get = |k| journal::get_str(&map, k).map(str::to_string).map_err(bad);
    Ok((get("digest")?, get("payload")?))
}

/// Upgrades, once, a graph written with `graph/index.json` (one
/// `{digest, payload}` line per node beside one-line payloads): each
/// indexed payload that matches the digest its line records is rewritten
/// into the two-line form, payloads already in that form are left alone,
/// and the index is deleted. Returns one warning per index line or
/// payload that could not be verified; such payloads stay one line, so
/// they miss and `fex lab fsck` flags them.
fn upgrade_index(root: &Path) -> Vec<String> {
    let index = root.join("index.json");
    if !index.is_file() {
        return Vec::new();
    }
    let (entries, skipped) = scan_index(&index, "graph index", parse_legacy_line);
    let mut warnings: Vec<String> = skipped.into_iter().map(|(_, warning)| warning).collect();
    for (digest, payload_digest) in entries {
        let dir = node_dir_at(root, &digest);
        let unverified = match fs::read_to_string(dir.join(PAYLOAD)) {
            Ok(text) if verified_payload(&text).is_some() => continue,
            Ok(text) if digest_bytes(text.as_bytes()).to_string() == payload_digest => {
                match write_node(&dir, &text) {
                    Ok(()) => continue,
                    Err(e) => format!("cannot upgrade it: {e}"),
                }
            }
            Ok(_) => "its payload does not match the indexed digest".to_string(),
            Err(e) => format!("cannot read its payload: {e}"),
        };
        warnings.push(format!("graph node {digest}: {unverified}"));
    }
    if let Err(e) = fs::remove_file(&index) {
        if e.kind() != std::io::ErrorKind::NotFound {
            warnings.push(format!("cannot delete the upgraded graph index: {e}"));
        }
    }
    warnings
}

// ---------------------------------------------------------------------
// Run-unit payload (de)serialization
// ---------------------------------------------------------------------

/// Serializes a clean run's measured result as one flat JSON line.
///
/// `wall_seconds` is stored as its IEEE bit pattern so the round trip is
/// bit-exact; `per_core`, `attack_events` and `hijacks` are *not* stored —
/// only fault-free units are cached (the latter two are empty by the
/// cacheability check) and nothing downstream of the collector reads
/// per-core counters.
fn run_to_json(run: &RunResult) -> String {
    let c = &run.counters;
    let h = &run.heap;
    let mut w = JsonLine::object("node", "run_unit");
    w.num("exit", run.exit)
        .str("stdout", &run.stdout)
        .num("elapsed_cycles", run.elapsed_cycles as i64)
        .num("wall_seconds_bits", run.wall_seconds.to_bits() as i64)
        .num("maxrss_bytes", run.maxrss_bytes as i64)
        .num("ctr_instructions", c.instructions as i64)
        .num("ctr_cycles", c.cycles as i64)
        .num("ctr_loads", c.loads as i64)
        .num("ctr_stores", c.stores as i64)
        .num("ctr_branches", c.branches as i64)
        .num("ctr_branch_mispredicts", c.branch_mispredicts as i64)
        .num("ctr_l1_misses", c.l1_misses as i64)
        .num("ctr_l2_misses", c.l2_misses as i64)
        .num("ctr_llc_misses", c.llc_misses as i64)
        .num("ctr_l1_accesses", c.l1_accesses as i64)
        .num("ctr_calls", c.calls as i64)
        .num("ctr_allocs", c.allocs as i64)
        .num("ctr_alloc_bytes", c.alloc_bytes as i64)
        .num("ctr_asan_checks", c.asan_checks as i64)
        .num("heap_allocs", h.allocs as i64)
        .num("heap_frees", h.frees as i64)
        .num("heap_payload_bytes", h.payload_bytes as i64)
        .num("heap_redzone_bytes", h.redzone_bytes as i64)
        .num("heap_peak_reserved", h.peak_reserved as i64)
        .num("l1_accesses", run.l1.accesses as i64)
        .num("l1_hits", run.l1.hits as i64)
        .num("l2_accesses", run.l2.accesses as i64)
        .num("l2_hits", run.l2.hits as i64)
        .num("llc_accesses", run.llc.accesses as i64)
        .num("llc_hits", run.llc.hits as i64);
    w.finish()
}

/// Parses a cached run payload back. `None` on any damage — the caller
/// treats that as a miss and re-executes.
fn run_from_json(line: &str) -> Option<RunResult> {
    let map = journal::parse_flat_object(line).ok()?;
    let int = |k: &str| journal::get_i64(&map, k).ok();
    let uint = |k: &str| journal::get_u64(&map, k).ok();
    Some(RunResult {
        exit: int("exit")?,
        stdout: journal::get_str(&map, "stdout").ok()?.to_string(),
        counters: PerfCounters {
            instructions: uint("ctr_instructions")?,
            cycles: uint("ctr_cycles")?,
            loads: uint("ctr_loads")?,
            stores: uint("ctr_stores")?,
            branches: uint("ctr_branches")?,
            branch_mispredicts: uint("ctr_branch_mispredicts")?,
            l1_misses: uint("ctr_l1_misses")?,
            l2_misses: uint("ctr_l2_misses")?,
            llc_misses: uint("ctr_llc_misses")?,
            l1_accesses: uint("ctr_l1_accesses")?,
            calls: uint("ctr_calls")?,
            allocs: uint("ctr_allocs")?,
            alloc_bytes: uint("ctr_alloc_bytes")?,
            asan_checks: uint("ctr_asan_checks")?,
        },
        per_core: Vec::new(),
        elapsed_cycles: uint("elapsed_cycles")?,
        wall_seconds: f64::from_bits(int("wall_seconds_bits")? as u64),
        heap: HeapStats {
            allocs: uint("heap_allocs")?,
            frees: uint("heap_frees")?,
            payload_bytes: uint("heap_payload_bytes")?,
            redzone_bytes: uint("heap_redzone_bytes")?,
            peak_reserved: uint("heap_peak_reserved")?,
        },
        maxrss_bytes: uint("maxrss_bytes")?,
        l1: CacheStats { accesses: uint("l1_accesses")?, hits: uint("l1_hits")? },
        l2: CacheStats { accesses: uint("l2_accesses")?, hits: uint("l2_hits")? },
        llc: CacheStats { accesses: uint("llc_accesses")?, hits: uint("llc_hits")? },
        attack_events: Vec::new(),
        hijacks: Vec::new(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn temp_lab(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fex-graph-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn sample_run() -> RunResult {
        RunResult {
            exit: 7,
            stdout: "norm: 3.5\n".into(),
            counters: PerfCounters {
                instructions: 1000,
                cycles: 2500,
                loads: 120,
                stores: 80,
                branches: 200,
                branch_mispredicts: 12,
                l1_misses: 10,
                l2_misses: 4,
                llc_misses: 2,
                l1_accesses: 200,
                calls: 9,
                allocs: 3,
                alloc_bytes: 192,
                asan_checks: 0,
            },
            per_core: Vec::new(),
            elapsed_cycles: 2500,
            wall_seconds: 2500.0 / 3.0e9,
            heap: HeapStats {
                allocs: 3,
                frees: 3,
                payload_bytes: 192,
                redzone_bytes: 0,
                peak_reserved: 256,
            },
            maxrss_bytes: 65536,
            l1: CacheStats { accesses: 200, hits: 190 },
            l2: CacheStats { accesses: 10, hits: 6 },
            llc: CacheStats { accesses: 4, hits: 2 },
            attack_events: Vec::new(),
            hijacks: Vec::new(),
        }
    }

    #[test]
    fn key_derivation_layers_dirty_exactly_their_subtree() {
        let src = fex_cc::source_digest("fft", "fn main() -> int { return 0; }");
        let compiled = compiled_key(src, "gcc", "6.1.0", 2, false, false);
        let decoded = decoded_key(compiled, 0b111, 42);
        let unit = unit_key(decoded, 7, 2, Some(0), "native", &[64], None);

        // Same inputs, same keys: pure functions.
        assert_eq!(compiled, compiled_key(src, "gcc", "6.1.0", 2, false, false));
        assert_eq!(decoded, decoded_key(compiled, 0b111, 42));
        assert_eq!(unit, unit_key(decoded, 7, 2, Some(0), "native", &[64], None));

        // Source edits dirty the whole chain.
        let src2 = fex_cc::source_digest("fft", "fn main() -> int { return 1; }");
        assert_ne!(src, src2);
        assert_ne!(compiled, compiled_key(src2, "gcc", "6.1.0", 2, false, false));

        // Build options dirty compiled and below, not source.
        assert_ne!(compiled, compiled_key(src, "clang", "3.8.0", 2, false, false));
        assert_ne!(compiled, compiled_key(src, "gcc", "6.1.0", 2, true, false));

        // Pass mask and cost model dirty decoded and below, not compiled.
        assert_ne!(decoded, decoded_key(compiled, 0b011, 42));
        assert_ne!(decoded, decoded_key(compiled, 0b111, 43));

        // Every unit coordinate matters, and rep None ≠ rep Some(0).
        assert_ne!(unit, unit_key(decoded, 8, 2, Some(0), "native", &[64], None));
        assert_ne!(unit, unit_key(decoded, 7, 4, Some(0), "native", &[64], None));
        assert_ne!(unit, unit_key(decoded, 7, 2, Some(1), "native", &[64], None));
        assert_ne!(unit, unit_key(decoded, 7, 2, None, "native", &[64], None));
        assert_ne!(unit, unit_key(decoded, 7, 2, Some(0), "test", &[64], None));
        assert_ne!(unit, unit_key(decoded, 7, 2, Some(0), "native", &[32], None));
        assert_ne!(unit, unit_key(decoded, 7, 2, Some(0), "native", &[64], Some(50_000)));
    }

    #[test]
    fn run_payload_round_trips_bit_exact() {
        let run = sample_run();
        let back = run_from_json(&run_to_json(&run)).expect("parses");
        assert_eq!(run, back);
        assert_eq!(run.wall_seconds.to_bits(), back.wall_seconds.to_bits());
    }

    #[test]
    fn store_and_lookup_roundtrip_with_session_accounting() {
        let lab = temp_lab("roundtrip");
        let mut g = ArtifactGraph::open(&lab).unwrap();
        let key = unit_key(Digest(1), 7, 1, Some(0), "native", &[], None);
        assert!(g.lookup_run(&key).is_none());
        assert_eq!((g.hits(), g.misses()), (0, 1));

        let run = sample_run();
        g.store_run(&key, &run).unwrap();
        assert_eq!(g.lookup_run(&key), Some(run.clone()));
        assert_eq!((g.hits(), g.misses()), (1, 1));

        // Storing again rewrites the same node.
        g.store_run(&key, &run).unwrap();
        assert_eq!(g.len(), 1);

        // A fresh open reads the node from disk.
        let mut g2 = ArtifactGraph::open(&lab).unwrap();
        assert!(g2.warnings().is_empty());
        assert_eq!(g2.lookup_run(&key), Some(run));
        assert_eq!(g2.len(), 1);
        assert!(g2.render_stats().contains("nodes 1"));
        let _ = fs::remove_dir_all(&lab);
    }

    #[test]
    fn a_payload_torn_at_every_offset_misses_is_flagged_and_is_repaired() {
        use crate::lab::fsck::check;
        let lab = temp_lab("torn-every");
        let store = crate::lab::RunStore::open(&lab).unwrap();
        let mut g = ArtifactGraph::open(&lab).unwrap();
        let intact = Digest(1);
        let torn = Digest(2);
        g.store_run(&intact, &sample_run()).unwrap();
        g.store_run(&torn, &sample_run()).unwrap();
        let path = node_dir_at(g.root(), &torn.to_string()).join(PAYLOAD);
        let full = fs::read(&path).unwrap();
        for k in 0..full.len() {
            // A writer that lost the node after `k` bytes.
            fs::write(&path, &full[..k]).unwrap();
            let mut g2 = ArtifactGraph::open(&lab).unwrap();
            assert!(g2.lookup_run(&torn).is_none(), "offset {k}: a torn node was served");
            assert!(g2.lookup_run(&intact).is_some(), "offset {k}");

            let report = check(&store);
            assert_eq!(report.graph_nodes_checked, 2, "offset {k}");
            assert_eq!(report.issues.len(), 1, "offset {k}: {}", report.render());
            assert_eq!(report.issues[0].subject, torn.to_string(), "offset {k}");

            g2.store_run(&torn, &sample_run()).unwrap();
            assert_eq!(fs::read(&path).unwrap(), full, "offset {k}: the store repairs the node");
            assert!(g2.lookup_run(&torn).is_some(), "offset {k}");
            assert!(check(&store).clean(), "offset {k}");
        }
        let _ = fs::remove_dir_all(&lab);
    }

    #[test]
    fn concurrent_graph_writers_lose_no_node() {
        let lab = temp_lab("concurrent");
        std::thread::scope(|s| {
            for t in 0..4u128 {
                let lab = &lab;
                s.spawn(move || {
                    let mut own = ArtifactGraph::open(lab).unwrap();
                    for i in 0..50 {
                        own.store_run(&Digest(t * 100 + i), &sample_run()).unwrap();
                    }
                });
            }
        });
        let mut g = ArtifactGraph::open(&lab).unwrap();
        assert!(g.warnings().is_empty(), "{:?}", g.warnings());
        assert_eq!(g.len(), 200);
        for t in 0..4u128 {
            for i in 0..50 {
                assert!(g.lookup_run(&Digest(t * 100 + i)).is_some());
            }
        }
        let report = crate::lab::fsck::check(&crate::lab::RunStore::open(&lab).unwrap());
        assert!(report.clean(), "{}", report.render());
        let _ = fs::remove_dir_all(&lab);
    }

    #[test]
    fn concurrent_writers_of_the_same_keys_leave_one_node_per_key() {
        let lab = temp_lab("same-keys");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (lab, start) = (&lab, &start);
                s.spawn(move || {
                    let mut own = ArtifactGraph::open(lab).unwrap();
                    start.wait();
                    for i in 0..50 {
                        own.store_run(&Digest(i), &sample_run()).unwrap();
                    }
                });
            }
        });
        let mut g = ArtifactGraph::open(&lab).unwrap();
        assert_eq!(g.len(), 50);
        assert!((0..50).all(|i| g.lookup_run(&Digest(i)).is_some()));
        let report = crate::lab::fsck::check(&crate::lab::RunStore::open(&lab).unwrap());
        assert_eq!(report.graph_nodes_checked, 50, "{}", report.render());
        assert!(report.clean(), "{}", report.render());
        let _ = fs::remove_dir_all(&lab);
    }

    /// Lays out a graph as older versions wrote it: one-line payloads and
    /// an index of `{digest, payload}` lines, every other line carrying
    /// the `seq` and `kind` keys of still older writers. The payload of
    /// `tampered`, if any, no longer matches its indexed digest.
    fn older_graph(lab: &Path, keys: &[Digest], tampered: Option<Digest>) {
        let root = lab.join(ArtifactGraph::SUBDIR);
        let mut index = String::new();
        for (seq, key) in keys.iter().enumerate() {
            let payload = run_to_json(&sample_run());
            let dir = node_dir_at(&root, &key.to_string());
            fs::create_dir_all(&dir).unwrap();
            let written = match tampered {
                Some(t) if t == *key => {
                    payload.replace("\"ctr_cycles\": 2500", "\"ctr_cycles\": 9")
                }
                _ => payload.clone(),
            };
            fs::write(dir.join(PAYLOAD), written).unwrap();
            let pd = digest_bytes(payload.as_bytes());
            index.push_str(&if seq % 2 == 0 {
                format!("{{\"digest\": \"{key}\", \"payload\": \"{pd}\"}}\n")
            } else {
                format!(
                    "{{\"digest\":\"{key}\",\"seq\":{seq},\"kind\":\"run_unit\",\"payload\":\"{pd}\"}}\n"
                )
            });
        }
        fs::write(root.join("index.json"), index).unwrap();
    }

    #[test]
    fn a_graph_written_with_an_index_is_upgraded_once_and_serves_warm() {
        use crate::lab::fsck::{check, IssueKind};
        let keys: Vec<Digest> = (1..=4).map(Digest).collect();
        let lab = temp_lab("upgrade");
        older_graph(&lab, &keys, None);
        let mut g = ArtifactGraph::open(&lab).unwrap();
        assert!(g.warnings().is_empty(), "{:?}", g.warnings());
        assert!(!g.root().join("index.json").exists(), "the index is deleted");
        assert_eq!(g.len(), keys.len());
        assert!(keys.iter().all(|k| g.lookup_run(k) == Some(sample_run())), "100% warm");
        let report = check(&crate::lab::RunStore::open(&lab).unwrap());
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.graph_nodes_checked, keys.len());
        let _ = fs::remove_dir_all(&lab);

        // A payload edited behind the older index stays unverified.
        let lab = temp_lab("upgrade-tampered");
        older_graph(&lab, &keys, Some(keys[2]));
        let mut g = ArtifactGraph::open(&lab).unwrap();
        assert_eq!(g.warnings().len(), 1, "{:?}", g.warnings());
        assert!(g.warnings()[0].contains(&keys[2].to_string()), "{:?}", g.warnings());
        assert!(g.lookup_run(&keys[2]).is_none());
        assert_eq!((g.hits(), g.misses()), (0, 1));
        let report = check(&crate::lab::RunStore::open(&lab).unwrap());
        let kinds: Vec<(IssueKind, &str)> =
            report.issues.iter().map(|i| (i.kind, i.subject.as_str())).collect();
        let subject = keys[2].to_string();
        assert_eq!(kinds, [(IssueKind::GraphDigestMismatch, subject.as_str())]);
        let _ = fs::remove_dir_all(&lab);
    }
}
