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
//! The graph lives under `<lab>/graph/` with the same append-only
//! flat-JSON index discipline as [`lab::store`](crate::lab::store): one
//! object per line appended with one `O_APPEND` write (so concurrent
//! writers lose nothing), a line's position as its sequence number, no
//! wall clocks, torn appends sealed onto their own line, per-line fault
//! isolation on read. Index lines written by older versions carry `seq`
//! and `kind` keys and may name provenance or aggregate nodes; the reader
//! ignores both keys and such nodes are never looked up. `fex lab fsck`
//! walks the graph (orphaned node dirs, payload digest mismatches) with
//! the same detect/quarantine treatment as run dirs.
//!
//! Only *clean* run units are cached: first-attempt successes of
//! fault-free units. Fault-armed or failing units bypass the graph
//! entirely and re-execute on warm runs, so retry, backoff and
//! quarantine behaviour is identical cold and warm — which is what makes
//! warm CSVs, normalized journal streams and metrics roll-ups
//! byte-identical to cold ones (locked by `tests/graph_diff.rs` and the
//! fuzzer's `warm` oracle).

use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use fex_container::{digest_bytes, Digest, DigestBuilder};
use fex_vm::{CacheStats, HeapStats, PerfCounters, RunResult};

use crate::error::{FexError, Result};
use crate::journal::{self, JsonLine};
use crate::lab::store::{append_index_line, scan_index};

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

/// One line of the graph index; the newest entry is the last line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphIndexEntry {
    /// The node's key (`fex256:…`).
    pub digest: String,
    /// Digest of the payload bytes as written — `fex lab fsck`
    /// recomputes this to catch silently-edited or torn payloads.
    pub payload_digest: String,
}

impl GraphIndexEntry {
    pub(crate) fn to_json(&self) -> String {
        let mut w = JsonLine::object("digest", &self.digest);
        w.str("payload", &self.payload_digest);
        w.finish()
    }

    pub(crate) fn parse(line: &str) -> Result<GraphIndexEntry> {
        let bad = |i: journal::ParseIssue| FexError::Data(format!("corrupt graph index: {i}"));
        let map = journal::parse_flat_object(line).map_err(bad)?;
        Ok(GraphIndexEntry {
            digest: journal::get_str(&map, "digest").map_err(bad)?.to_string(),
            payload_digest: journal::get_str(&map, "payload").map_err(bad)?.to_string(),
        })
    }
}

/// The artifact graph's node cache, rooted at `<lab>/graph/`.
///
/// Layout mirrors the run store:
///
/// ```text
/// <lab>/graph/
///   index.json                   # one flat JSON object per line
///   nodes/<digest>/payload.json  # the node's cached payload
/// ```
#[derive(Debug)]
pub struct ArtifactGraph {
    root: PathBuf,
    /// Indexed digest values, for O(1) lookups.
    index: HashSet<u128>,
    warnings: Vec<String>,
    hits: u64,
    misses: u64,
}

impl ArtifactGraph {
    /// The graph's directory name under the lab root.
    pub const SUBDIR: &'static str = "graph";

    /// Opens (creating if necessary) the graph under the lab rooted at
    /// `lab_root`. Corrupt index lines are skipped with a warning, the
    /// same per-line fault isolation as the run store.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the directory cannot be created.
    pub fn open(lab_root: impl AsRef<Path>) -> Result<Self> {
        let root = lab_root.as_ref().join(Self::SUBDIR);
        fs::create_dir_all(root.join("nodes")).map_err(|e| {
            FexError::Data(format!("cannot create graph at `{}`: {e}", root.display()))
        })?;
        let (entries, warnings) = Self::scan_at(&root);
        let index = entries.iter().filter_map(|e| parse_digest(&e.digest)).map(|d| d.0).collect();
        Ok(ArtifactGraph { root, index, warnings, hits: 0, misses: 0 })
    }

    /// The graph's root directory (`<lab>/graph`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Reads a graph index with per-line fault isolation: every parseable
    /// entry plus one warning per skipped line.
    pub fn scan_at(root: &Path) -> (Vec<GraphIndexEntry>, Vec<String>) {
        let (entries, skipped) =
            scan_index(&root.join("index.json"), "graph index", GraphIndexEntry::parse);
        (entries, skipped.into_iter().map(|(_, warning)| warning).collect())
    }

    /// Warnings accumulated while opening (corrupt index lines).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Whether a node with this key exists.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.index.contains(&digest.0)
    }

    /// Nodes currently indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the graph holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
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
    /// Unreadable or torn payloads degrade to a miss — the unit simply
    /// re-executes — never an error.
    pub fn lookup_run(&mut self, digest: &Digest) -> Option<RunResult> {
        let served = if self.contains(digest) {
            fs::read_to_string(self.payload_path(digest))
                .ok()
                .and_then(|text| run_from_json(text.trim()))
        } else {
            None
        };
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

    /// Stores a clean run unit's result under its key. Idempotent: a key
    /// already present is left untouched (content-addressed nodes are
    /// immutable).
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on filesystem failures.
    pub fn store_run(&mut self, digest: &Digest, run: &RunResult) -> Result<()> {
        if self.contains(digest) {
            return Ok(());
        }
        let payload = run_to_json(run);
        let io = |e: std::io::Error| FexError::Data(format!("graph write failed: {e}"));
        let dir = self.node_dir(digest);
        fs::create_dir_all(&dir).map_err(io)?;
        fs::write(dir.join("payload.json"), &payload).map_err(io)?;
        let entry = GraphIndexEntry {
            digest: digest.to_string(),
            payload_digest: digest_bytes(payload.as_bytes()).to_string(),
        };
        append_index_line(&self.index_path(), &entry.to_json()).map_err(io)?;
        self.index.insert(digest.0);
        Ok(())
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

    pub(crate) fn index_path(&self) -> PathBuf {
        self.root.join("index.json")
    }

    fn node_dir(&self, digest: &Digest) -> PathBuf {
        node_dir_at(&self.root, &digest.to_string())
    }

    fn payload_path(&self, digest: &Digest) -> PathBuf {
        self.node_dir(digest).join("payload.json")
    }
}

/// The node directory for a digest string, under a graph root.
pub(crate) fn node_dir_at(root: &Path, digest: &str) -> PathBuf {
    root.join("nodes").join(digest.trim_start_matches("fex256:"))
}

/// Parses a `fex256:<hex>` digest string back into a [`Digest`].
fn parse_digest(s: &str) -> Option<Digest> {
    u128::from_str_radix(s.strip_prefix("fex256:")?, 16).ok().map(Digest)
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

        // Storing again is an idempotent no-op.
        g.store_run(&key, &run).unwrap();
        assert_eq!(g.len(), 1);

        // A fresh open replays the index from disk.
        let mut g2 = ArtifactGraph::open(&lab).unwrap();
        assert!(g2.warnings().is_empty());
        assert_eq!(g2.lookup_run(&key), Some(run));
        assert_eq!(g2.len(), 1);
        assert!(g2.render_stats().contains("nodes 1"));
        let _ = fs::remove_dir_all(&lab);
    }

    #[test]
    fn torn_index_and_payload_degrade_to_misses_not_errors() {
        let lab = temp_lab("torn");
        let mut g = ArtifactGraph::open(&lab).unwrap();
        let key_a = unit_key(Digest(1), 1, 1, None, "native", &[], None);
        let key_b = unit_key(Digest(2), 2, 1, None, "native", &[], None);
        g.store_run(&key_a, &sample_run()).unwrap();
        g.store_run(&key_b, &sample_run()).unwrap();

        // Tear the last index append mid-line.
        let index_path = g.index_path();
        let index = fs::read_to_string(&index_path).unwrap();
        fs::write(&index_path, &index[..index.len() - 9]).unwrap();

        let mut g2 = ArtifactGraph::open(&lab).unwrap();
        assert_eq!(g2.warnings().len(), 1, "{:?}", g2.warnings());
        assert!(g2.lookup_run(&key_a).is_some(), "intact node survives");
        assert!(g2.lookup_run(&key_b).is_none(), "torn entry is a miss");
        // Appends still work after the torn line is sealed.
        g2.store_run(&key_b, &sample_run()).unwrap();
        assert!(ArtifactGraph::open(&lab).unwrap().lookup_run(&key_b).is_some());

        // A torn payload is a miss too, never a panic or error.
        let payload = node_dir_at(g2.root(), &key_a.to_string()).join("payload.json");
        let bytes = fs::read_to_string(&payload).unwrap();
        fs::write(&payload, &bytes[..bytes.len() / 2]).unwrap();
        let mut g3 = ArtifactGraph::open(&lab).unwrap();
        assert!(g3.lookup_run(&key_a).is_none());
        let _ = fs::remove_dir_all(&lab);
    }

    #[test]
    fn every_torn_offset_of_the_last_append_loses_at_most_that_node() {
        use crate::lab::fsck::{check, IssueKind};
        let lab = temp_lab("torn-every");
        let store = crate::lab::RunStore::open(&lab).unwrap();
        let mut g = ArtifactGraph::open(&lab).unwrap();
        let earlier = [Digest(1), Digest(2)];
        for d in &earlier {
            g.store_run(d, &sample_run()).unwrap();
        }
        let index_path = g.index_path();
        let start = fs::read(&index_path).unwrap().len();
        let last = Digest(3);
        g.store_run(&last, &sample_run()).unwrap();
        let full = fs::read(&index_path).unwrap();
        let next = Digest(4);
        for k in start..full.len() {
            fs::write(&index_path, &full[..k]).unwrap();
            let mut g2 = ArtifactGraph::open(&lab).unwrap();
            assert!(g2.warnings().len() <= 1, "offset {k}: {:?}", g2.warnings());
            for d in &earlier {
                assert!(g2.lookup_run(d).is_some(), "offset {k}: {d} lost");
            }

            // The torn node's payload was written before the append, so
            // it may be an orphan; nothing else may be reported.
            let report = check(&store);
            let corrupt =
                report.issues.iter().filter(|i| i.kind == IssueKind::CorruptGraphIndexLine);
            assert!(corrupt.count() <= 1, "offset {k}: {}", report.render());
            assert!(
                report.issues.iter().all(|i| i.kind == IssueKind::CorruptGraphIndexLine
                    || (i.kind == IssueKind::OrphanGraphNode && i.subject == last.to_string())),
                "offset {k}: {}",
                report.render()
            );

            g2.store_run(&next, &sample_run()).unwrap();
            let (entries, warnings) = ArtifactGraph::scan_at(g2.root());
            assert!(warnings.len() <= 1, "offset {k}: {warnings:?}");
            let digests: Vec<String> = entries.iter().map(|e| e.digest.clone()).collect();
            assert_eq!(digests[..2], [earlier[0].to_string(), earlier[1].to_string()]);
            assert_eq!(digests.last(), Some(&next.to_string()), "offset {k}");
            assert!(ArtifactGraph::open(&lab).unwrap().lookup_run(&next).is_some());
            fs::remove_dir_all(node_dir_at(g2.root(), &next.to_string())).unwrap();
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
    fn index_keeps_insertion_order_across_reopens() {
        let lab = temp_lab("order");
        let mut g = ArtifactGraph::open(&lab).unwrap();
        g.store_run(&Digest(10), &sample_run()).unwrap();
        let mut g2 = ArtifactGraph::open(&lab).unwrap();
        g2.store_run(&Digest(11), &sample_run()).unwrap();
        let (entries, _) = ArtifactGraph::scan_at(g2.root());
        let digests: Vec<&str> = entries.iter().map(|e| e.digest.as_str()).collect();
        assert_eq!(digests, vec![Digest(10).to_string(), Digest(11).to_string()]);
        let _ = fs::remove_dir_all(&lab);
    }
}
