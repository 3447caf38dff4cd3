//! Differential tests for the artifact graph: incremental evaluation
//! must be invisible.
//!
//! Invariants locked down here:
//!
//! 1. **Warm == cold** — re-running an experiment against a populated
//!    graph serves every clean unit from the node cache, and the
//!    observable artifacts — results CSV, failures CSV, the normalized
//!    journal stream and the metrics roll-up computed from it — are
//!    byte-identical to the cold run, across worker counts, pass
//!    subsets and fault injection.
//! 2. **Precise invalidation** — changing one derivation input (a
//!    cost-model knob, the pass subset) dirties exactly the dependent
//!    key layers and nothing upstream.
//! 3. **Old labs still serve** — a graph index written before the graph
//!    stored only run units (lines carrying a `kind` key, plus source,
//!    compiled, decoded and aggregate nodes) opens without warnings,
//!    serves every run unit warm and passes `fex lab fsck`.

use std::path::Path;
use std::process::Command;

use proptest::prelude::*;

use fex_core::build::{BuildSystem, MakefileSet};
use fex_core::config::FaultInjection;
use fex_core::runner::{RunContext, Runner, SuiteRunner};
use fex_core::{ArtifactGraph, ExperimentConfig, JournalEvent, Metrics};
use fex_suites::InputSize;
use fex_vm::{CostModel, FaultKind, FaultPlan, PassMask};

/// Runs the micro suite with the artifact graph attached at `lab`, and
/// returns the observable artifacts plus the graph's session hit/miss
/// counters.
fn run_micro_graphed(
    config: &ExperimentConfig,
    lab: &Path,
) -> (String, String, Vec<JournalEvent>, (u64, u64)) {
    let mut build = BuildSystem::new(MakefileSet::standard());
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, &mut build, &mut log);
    ctx.graph = Some(ArtifactGraph::open(lab).unwrap());
    let mut runner = SuiteRunner::new(fex_suites::micro(), config);
    let df = runner.run(&mut ctx).unwrap();
    let graph = ctx.graph.take().unwrap();
    let session = (graph.hits(), graph.misses());
    (df.to_csv(), ctx.failures.to_csv(), ctx.journal.events().to_vec(), session)
}

/// The normalized journal stream, in emission order: graph hits rewrite
/// to misses, schedule-dependent fields zero out. Cold and warm runs of
/// the same experiment must produce byte-identical streams.
fn normalized_stream(events: &[JournalEvent]) -> Vec<String> {
    events
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.normalize();
            e.to_json()
        })
        .collect()
}

/// The metrics roll-up over the normalized stream (stored metrics carry
/// wall clocks and live cache state; the normalized roll-up is the
/// schedule- and cache-independent view golden tests compare).
fn normalized_metrics(events: &[JournalEvent]) -> String {
    let normalized: Vec<JournalEvent> = events
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.normalize();
            e
        })
        .collect();
    Metrics::from_journal(&normalized).to_json()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fex-graph-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Warm re-runs are byte-identical to cold across the scheduling
    /// and configuration axes, and — without faults armed — serve every
    /// run unit from the graph.
    #[test]
    fn warm_rerun_is_byte_identical_to_cold(
        jobs_pick in 0usize..2,
        passes_pick in 0usize..2,
        faulty_pick in 0usize..2,
        seed in 0u64..1000,
    ) {
        let jobs = [1usize, 8][jobs_pick];
        let passes = if passes_pick == 0 { PassMask::all() } else { PassMask::none() };
        let faulty = faulty_pick == 1;
        let mut config = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native"])
            .input(InputSize::Test)
            .repetitions(2)
            .seed(seed)
            .jobs(jobs)
            .passes(passes);
        if faulty {
            config = config.fault(FaultInjection::for_benchmark(
                "ptrchase",
                FaultPlan::persistent(FaultKind::Trap),
            ));
        }
        let lab = temp_dir(&format!("warm-{jobs}-{faulty}-{seed}"));
        let (cold_csv, cold_fail, cold_events, (cold_hits, _)) =
            run_micro_graphed(&config, &lab);
        let (warm_csv, warm_fail, warm_events, (warm_hits, warm_misses)) =
            run_micro_graphed(&config, &lab);

        prop_assert_eq!(cold_hits, 0, "a fresh graph cannot hit");
        prop_assert_eq!(&warm_csv, &cold_csv, "warm results CSV must be byte-identical");
        prop_assert_eq!(&warm_fail, &cold_fail, "warm failures CSV must be byte-identical");
        prop_assert_eq!(
            normalized_stream(&warm_events),
            normalized_stream(&cold_events),
            "normalized journal streams must be byte-identical"
        );
        prop_assert_eq!(
            normalized_metrics(&warm_events),
            normalized_metrics(&cold_events),
            "normalized metrics roll-ups must be byte-identical"
        );
        if !faulty {
            prop_assert_eq!(warm_misses, 0, "every clean unit must be served on warm re-run");
            prop_assert!(warm_hits > 0);
        }
        let _ = std::fs::remove_dir_all(&lab);
    }
}

/// Fault-armed benchmarks bypass the graph entirely: their retries and
/// failure records replay on every run, while healthy benchmarks are
/// still served.
#[test]
fn fault_armed_benchmarks_bypass_the_graph() {
    let config = ExperimentConfig::new("micro")
        .types(vec!["gcc_native"])
        .input(InputSize::Test)
        .repetitions(2)
        .fault(FaultInjection::for_benchmark("ptrchase", FaultPlan::persistent(FaultKind::Trap)));
    let lab = temp_dir("fault-bypass");
    let (_, cold_fail, _, _) = run_micro_graphed(&config, &lab);
    let (_, warm_fail, warm_events, (hits, misses)) = run_micro_graphed(&config, &lab);
    assert!(!cold_fail.lines().skip(1).collect::<Vec<_>>().is_empty(), "fault plan must fire");
    assert_eq!(warm_fail, cold_fail, "failure records must replay identically warm");
    assert_eq!(misses, 0, "fault-armed units never consult the graph");
    assert!(hits > 0, "healthy benchmarks are still served");
    let faulty_graph_events = warm_events.iter().any(|e| {
        matches!(
            e,
            JournalEvent::GraphHit { benchmark, .. } | JournalEvent::GraphMiss { benchmark, .. }
                if benchmark == "ptrchase"
        )
    });
    assert!(!faulty_graph_events, "fault-armed units emit no graph events");
    let _ = std::fs::remove_dir_all(&lab);
}

/// A cost-model knob change re-keys the decoded layer and everything
/// downstream of it — and nothing upstream: source and compiled nodes
/// keep their digests, so a warm re-run after a cost change rebuilds
/// only decode and run cells.
#[test]
fn cost_knob_change_dirties_exactly_the_dependent_nodes() {
    use fex_core::graph::{compiled_key, decoded_key, unit_key};

    let source = fex_cc::source_digest("fft", "int main() { return fft(); }");
    let compiled = compiled_key(source, "gcc", "6.1.0", 2, false, false);

    let base = CostModel::default();
    let mut tweaked = CostModel::default();
    tweaked.fdiv += 1;
    assert_ne!(base.fingerprint(), tweaked.fingerprint(), "knob must move the fingerprint");

    let decoded_base = decoded_key(compiled, PassMask::all().bits(), base.fingerprint());
    let decoded_tweaked = decoded_key(compiled, PassMask::all().bits(), tweaked.fingerprint());
    assert_ne!(decoded_base, decoded_tweaked, "decoded layer must be dirtied");

    let unit_base = unit_key(decoded_base, 7, 1, Some(0), "test", &[64], None);
    let unit_tweaked = unit_key(decoded_tweaked, 7, 1, Some(0), "test", &[64], None);
    assert_ne!(unit_base, unit_tweaked, "run units downstream must be dirtied");

    // Upstream layers are untouched: the same source and compiled keys
    // are derived regardless of the cost model.
    let source_again = fex_cc::source_digest("fft", "int main() { return fft(); }");
    let compiled_again = compiled_key(source_again, "gcc", "6.1.0", 2, false, false);
    assert_eq!(source, source_again);
    assert_eq!(compiled, compiled_again);
}

/// Changing the pass subset between runs re-keys the decoded layer, so
/// every run unit is stored afresh, and re-running either configuration
/// afterwards is fully warm.
#[test]
fn pass_subset_change_dirties_decoded_and_run_layers_only() {
    let base = ExperimentConfig::new("micro").types(vec!["gcc_native"]).input(InputSize::Test);
    let lab = temp_dir("passes");
    let all = base.clone().passes(PassMask::all());
    let none = base.clone().passes(PassMask::none());

    let (_, _, _, (h1, m1)) = run_micro_graphed(&all, &lab);
    assert_eq!(h1, 0);
    let (_, _, _, (h2, m2)) = run_micro_graphed(&none, &lab);
    assert_eq!(h2, 0, "a different pass subset shares no run-unit nodes");
    assert_eq!(m1, m2, "same unit count under both subsets");

    let graph = ArtifactGraph::open(&lab).unwrap();
    assert_eq!(graph.len() as u64, m1 + m2, "the graph stores exactly the run units");

    let (_, _, _, (h3, m3)) = run_micro_graphed(&all, &lab);
    let (_, _, _, (h4, m4)) = run_micro_graphed(&none, &lab);
    assert_eq!((m3, m4), (0, 0), "both configurations stay warm");
    assert_eq!((h3, h4), (h2 + m2, h2 + m2));
    let _ = std::fs::remove_dir_all(&lab);
}

/// `--no-graph` disables lookups and stores even with the graph
/// attached, and the CSVs are byte-identical either way.
#[test]
fn no_graph_escape_hatch_is_byte_invisible() {
    let on = ExperimentConfig::new("micro").types(vec!["gcc_native"]).input(InputSize::Test);
    let off = on.clone().graph(false);
    let lab_on = temp_dir("hatch-on");
    let lab_off = temp_dir("hatch-off");
    let (csv_on, fail_on, _, _) = run_micro_graphed(&on, &lab_on);
    let (csv_off, fail_off, _, (hits, misses)) = run_micro_graphed(&off, &lab_off);
    assert_eq!(csv_on, csv_off);
    assert_eq!(fail_on, fail_off);
    assert_eq!((hits, misses), (0, 0), "--no-graph must not consult the cache");
    assert!(ArtifactGraph::open(&lab_off).unwrap().is_empty(), "--no-graph must not store");
    let _ = std::fs::remove_dir_all(&lab_on);
    let _ = std::fs::remove_dir_all(&lab_off);
}

/// A lab whose graph was filled before the graph stored only run units:
/// index lines carry a `kind` key, and source, compiled, decoded and
/// aggregate nodes sit beside the run units. Such a lab must open
/// without warnings, serve every run unit warm and pass `fex lab fsck`.
#[test]
fn graph_index_with_kinds_and_provenance_nodes_still_serves() {
    let config = ExperimentConfig::new("micro").types(vec!["gcc_native"]).input(InputSize::Test);
    let lab = temp_dir("legacy-kinds");
    let (cold_csv, _, _, (_, cold_misses)) = run_micro_graphed(&config, &lab);

    // Rewrite the index in the older format: every run-unit line gains
    // `"kind":"run_unit"`, and one node of each provenance kind is added
    // with its payload, exactly as the older writer laid them out.
    let groot = lab.join(ArtifactGraph::SUBDIR);
    let mut nodes: Vec<(String, &str, String)> = Vec::new();
    for kind in ["source", "compiled", "decoded"] {
        let digest = fex_container::digest_bytes(format!("legacy {kind}").as_bytes());
        nodes.push((digest.to_string(), kind, format!("{{\"node\":\"{kind}\"}}")));
    }
    let mut run_dirs: Vec<_> = std::fs::read_dir(groot.join("nodes"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    run_dirs.sort();
    for hex in run_dirs {
        let payload =
            std::fs::read_to_string(groot.join("nodes").join(&hex).join("payload.json")).unwrap();
        nodes.push((format!("fex256:{hex}"), "run_unit", payload));
    }
    let aggregate = fex_container::digest_bytes(b"legacy aggregate");
    nodes.push((aggregate.to_string(), "aggregate", "{\"node\":\"aggregate\"}".into()));
    let mut index = String::new();
    for (seq, (digest, kind, payload)) in nodes.iter().enumerate() {
        let dir = groot.join("nodes").join(digest.trim_start_matches("fex256:"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("payload.json"), payload).unwrap();
        let payload_digest = fex_container::digest_bytes(payload.as_bytes());
        index.push_str(&format!(
            "{{\"digest\":\"{digest}\",\"seq\":{seq},\"kind\":\"{kind}\",\
             \"payload\":\"{payload_digest}\"}}\n"
        ));
    }
    std::fs::write(groot.join("index.json"), index).unwrap();

    let graph = ArtifactGraph::open(&lab).unwrap();
    assert!(graph.warnings().is_empty(), "{:?}", graph.warnings());
    assert_eq!(graph.len(), nodes.len());
    drop(graph);

    let (warm_csv, _, _, (warm_hits, warm_misses)) = run_micro_graphed(&config, &lab);
    assert_eq!((warm_hits, warm_misses), (cold_misses, 0), "every run unit is served warm");
    assert_eq!(warm_csv, cold_csv);

    let out = Command::new(env!("CARGO_BIN_EXE_fex"))
        .args(["lab", "fsck", "--lab", lab.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "fsck failed: {stdout}");
    assert!(stdout.contains(&format!("checked {} graph nodes", nodes.len())), "{stdout}");
    assert!(stdout.contains("store is clean"), "{stdout}");
    let _ = std::fs::remove_dir_all(&lab);
}
