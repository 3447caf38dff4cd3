//! Artifact-graph warm-run bench: incremental evaluation must make warm
//! re-runs cheap and dirty re-runs proportional to what changed.
//!
//! Runs the Phoenix 7-benchmark × 4-build-type matrix three times
//! against one lab directory:
//!
//! 1. **cold** — empty graph, every run unit executes and is stored;
//! 2. **warm** — nothing changed, every clean unit must be served from
//!    the graph (100% unit hit rate) and the observable artifacts must
//!    be byte-identical to cold;
//! 3. **dirty** — one benchmark's source gets a semantically neutral
//!    trailing newline, so only its cells recompute: the unit hit rate
//!    must stay at or above 75% (6 of 7 benchmarks served) and the
//!    results CSV must still match cold byte-for-byte.
//!
//! Records wall times and hit rates in
//! `target/fex-results/BENCH_graph.json`. The acceptance budget is a
//! warm re-run at least 2.5× faster than cold. Pass `--smoke` for the
//! CI-sized variant (same invariants, no speedup assertion).

use std::path::Path;

use fex_bench::write_artifact;
use fex_core::build::{BuildSystem, MakefileSet};
use fex_core::runner::{RunContext, Runner, SuiteRunner};
use fex_core::{ArtifactGraph, ExperimentConfig, JournalEvent};
use fex_suites::{InputSize, Suite};

/// On-CPU seconds for the calling thread, from `/proc/self/schedstat`
/// (`sum_exec_runtime`): immune to hypervisor steal and co-tenant noise.
/// The matrix runs with `--jobs 1` so the whole timed window stays on
/// the main thread.
fn cpu_seconds() -> f64 {
    let stat =
        std::fs::read_to_string("/proc/self/schedstat").expect("/proc/self/schedstat is readable");
    let ns: u64 =
        stat.split_whitespace().next().expect("schedstat has fields").parse().expect("ns parses");
    ns as f64 / 1e9
}

fn matrix_config(input: InputSize, reps: usize) -> ExperimentConfig {
    ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native", "clang_native", "gcc_asan", "clang_asan"])
        .input(input)
        .repetitions(reps)
        .jobs(1)
}

/// The Phoenix suite with `dirty` benchmarks' sources given a trailing
/// newline — semantically neutral, so measured results are unchanged,
/// but the source digest (and every node downstream of it) re-keys.
fn phoenix_suite(dirty: Option<&str>) -> Suite {
    let mut suite = fex_suites::phoenix();
    if let Some(bench) = dirty {
        let prog = suite
            .programs
            .iter_mut()
            .find(|p| p.name == bench)
            .expect("dirty benchmark exists in the suite");
        prog.source = Box::leak(format!("{}\n", prog.source).into_boxed_str());
    }
    suite
}

/// One full evaluation against the shared lab graph, with a fresh build
/// system (a warm re-run in a new process still compiles; it skips the
/// VM executions the graph already holds). Returns run-phase CPU
/// seconds, the observable artifacts, and the graph session counters.
fn run_matrix(
    config: &ExperimentConfig,
    suite: Suite,
    lab: &Path,
) -> (f64, String, String, Vec<JournalEvent>, (u64, u64)) {
    let mut build = BuildSystem::new(MakefileSet::standard());
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, &mut build, &mut log);
    ctx.graph = Some(ArtifactGraph::open(lab).expect("graph opens"));
    let mut runner = SuiteRunner::new(suite, config);
    let start = cpu_seconds();
    let df = runner.run(&mut ctx).expect("matrix runs");
    let seconds = cpu_seconds() - start;
    let graph = ctx.graph.take().expect("graph still attached");
    let session = (graph.hits(), graph.misses());
    (seconds, df.to_csv(), ctx.failures.to_csv(), ctx.journal.events().to_vec(), session)
}

/// The normalized journal stream, in emission order: graph hits rewrite
/// to misses and schedule-dependent fields zero out, so cold and warm
/// streams must be byte-identical.
fn normalized_stream(events: &[JournalEvent]) -> String {
    events
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.normalize();
            e.to_json() + "\n"
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (input, reps): (InputSize, usize) =
        if smoke { (InputSize::Test, 2) } else { (InputSize::Small, 3) };
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "GRAPH WARM: phoenix 7×4 matrix --jobs 1, host cores: {host_cores}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let lab = std::path::PathBuf::from("target/fex-results/graph-warm-lab");
    let _ = std::fs::remove_dir_all(&lab);
    std::fs::create_dir_all(&lab).expect("can create the lab dir");
    let config = matrix_config(input, reps);

    // Pass 1: cold — an empty graph cannot hit; every unit is stored.
    let (cold_s, cold_csv, cold_fail, cold_events, (cold_hits, cold_misses)) =
        run_matrix(&config, phoenix_suite(None), &lab);
    assert_eq!(cold_hits, 0, "a fresh graph cannot hit");
    println!("  cold:  {cold_s:.3}s  ({cold_misses} units stored)");

    // Pass 2: warm — nothing changed, everything is served.
    let (warm_s, warm_csv, warm_fail, warm_events, (warm_hits, warm_misses)) =
        run_matrix(&config, phoenix_suite(None), &lab);
    assert_eq!(warm_misses, 0, "an unchanged matrix must be fully served");
    assert_eq!(warm_hits, cold_misses, "every stored unit is served back");
    assert_eq!(warm_csv, cold_csv, "warm results CSV must be byte-identical to cold");
    assert_eq!(warm_fail, cold_fail, "warm failures CSV must be byte-identical to cold");
    assert_eq!(
        normalized_stream(&warm_events),
        normalized_stream(&cold_events),
        "normalized journal streams must be byte-identical"
    );
    let speedup = cold_s / warm_s;
    println!("  warm:  {warm_s:.3}s  ({warm_hits} hits, speedup {speedup:.1}x)");

    // Pass 3: dirty one benchmark — only its cells recompute.
    let dirty_bench = "histogram";
    let (dirty_s, dirty_csv, _, _, (dirty_hits, dirty_misses)) =
        run_matrix(&config, phoenix_suite(Some(dirty_bench)), &lab);
    let dirty_rate = dirty_hits as f64 / (dirty_hits + dirty_misses) as f64;
    assert_eq!(dirty_csv, cold_csv, "a trailing newline is semantically neutral");
    assert!(
        dirty_rate >= 0.75,
        "dirtying 1 of 7 benchmarks must keep the unit hit rate >= 75%, got {dirty_rate:.3}"
    );
    assert_eq!(dirty_hits + dirty_misses, cold_misses, "the dirty run sees the same unit count");
    println!(
        "  dirty: {dirty_s:.3}s  ({dirty_misses} recomputed for `{dirty_bench}`, \
         {:.1}% unit hit rate)",
        100.0 * dirty_rate
    );

    if !smoke {
        // Smoke matrices are too small for a stable ratio; the full run
        // is held to the acceptance budget.
        assert!(speedup >= 2.5, "warm speedup {speedup:.2}x is below the 2.5x budget");
    }

    let graph = ArtifactGraph::open(&lab).expect("graph reopens");
    print!("{}", graph.render_stats());
    let nodes = graph.len();
    assert_eq!(
        nodes as u64,
        cold_misses + dirty_misses,
        "the graph holds exactly the run units the cold and dirty passes stored"
    );
    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"smoke\": {smoke},\n  \
         \"matrix\": \"phoenix 7 benchmarks x 4 build types, reps {reps}\",\n  \
         \"cold_s\": {cold_s:.6},\n  \"warm_s\": {warm_s:.6},\n  \
         \"warm_speedup\": {speedup:.2},\n  \"warm_unit_hit_rate\": 1.0,\n  \
         \"dirty_benchmark\": \"{dirty_bench}\",\n  \"dirty_s\": {dirty_s:.6},\n  \
         \"dirty_unit_hit_rate\": {dirty_rate:.4},\n  \
         \"units\": {cold_misses},\n  \"nodes\": {nodes}\n}}\n",
    );
    write_artifact("BENCH_graph.json", &json);
    let _ = std::fs::remove_dir_all(&lab);
}
