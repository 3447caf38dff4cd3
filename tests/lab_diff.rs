//! Integration tests for the lab subsystem: the result store, the
//! adaptive repetition controller's scheduler-independence, and the
//! `fex compare` regression gate (library and binary).
//!
//! The core invariant locked down here: the adaptive controller decides
//! rep counts from each cell's successful-sample *sequence*, and samples
//! are pure functions of unit coordinates — so `--jobs 1` and `--jobs 8`
//! must aggregate **byte-identical** results CSVs, with and without
//! fault injection. The parallel scheduler may execute speculative extra
//! reps; the merge must drop them.

use std::process::Command;

use proptest::prelude::*;

use fex_core::config::FaultInjection;
use fex_core::lab::{Comparison, RunArtifacts, RunStore, Verdict};
use fex_core::{ExperimentConfig, Fex};
use fex_suites::InputSize;
use fex_vm::{FaultKind, FaultPlan};

/// Runs the micro suite through the real build system and runner.
fn run_micro(config: &ExperimentConfig) -> (String, String) {
    use fex_core::build::{BuildSystem, MakefileSet};
    use fex_core::runner::{RunContext, Runner, SuiteRunner};

    let mut build = BuildSystem::new(MakefileSet::standard());
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, &mut build, &mut log);
    let mut runner = SuiteRunner::new(fex_suites::micro(), config);
    let df = runner.run(&mut ctx).unwrap();
    (df.to_csv(), ctx.failures.to_csv())
}

fn adaptive_config(faulty: bool, seed: u64, precision: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new("micro")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Test)
        .seed(seed)
        .adaptive_repetitions(2, 6, precision);
    if faulty {
        cfg = cfg.fault(FaultInjection::for_benchmark(
            "ptrchase",
            FaultPlan::persistent(FaultKind::Trap),
        ));
    }
    cfg
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fex-lab-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Adaptive repetition counts — and therefore the aggregated CSVs —
    /// do not depend on the worker count, clean or faulty.
    #[test]
    fn adaptive_reps_are_scheduler_independent(
        jobs in 2usize..9,
        seed in 0u64..1000,
        faulty in 0usize..2,
        precision_pick in 0usize..3,
    ) {
        let precision = [0.02, 0.10, 0.50][precision_pick];
        let base = adaptive_config(faulty == 1, seed, precision);
        let (seq_csv, seq_fail) = run_micro(&base.clone().jobs(1));
        let (par_csv, par_fail) = run_micro(&base.clone().jobs(jobs));
        prop_assert_eq!(seq_csv, par_csv);
        prop_assert_eq!(seq_fail, par_fail);
    }
}

#[test]
fn store_and_compare_two_runs_end_to_end() {
    let dir = temp_dir("e2e");
    let mut fex = Fex::new();
    fex.install("gcc-6.1").unwrap();
    fex.install("clang-3.8").unwrap();
    let cfg = ExperimentConfig::new("micro")
        .types(vec!["gcc_native"])
        .input(InputSize::Test)
        .repetitions(3)
        .lab(dir.to_string_lossy());
    fex.run(&cfg).unwrap();
    fex.run(&cfg).unwrap();

    let store = RunStore::open(&dir).unwrap();
    let baseline = store.resolve("prev").unwrap();
    let candidate = store.resolve("latest").unwrap();
    let base =
        fex_core::collect::DataFrame::from_csv(&store.results_csv(&baseline).unwrap()).unwrap();
    let cand =
        fex_core::collect::DataFrame::from_csv(&store.results_csv(&candidate).unwrap()).unwrap();
    let cmp = Comparison::compare(&base, &cand, "time", "prev", "latest").unwrap();
    assert!(!cmp.has_regression());
    assert_eq!(cmp.count(Verdict::Unchanged), cmp.cells.len(), "{}", cmp.to_table());
    // Deterministic rerun: every cell's means agree exactly.
    assert!(cmp.cells.iter().all(|c| c.baseline.mean == c.candidate.mean));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_save_is_idempotent_on_content() {
    let dir = temp_dir("content");
    let store = RunStore::open(&dir).unwrap();
    let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
    let art = RunArtifacts {
        results_csv:
            "suite,benchmark,type,threads,input,rep,time\nmicro,a,gcc_native,1,test,0,1.5\n",
        failures_csv: "benchmark,type,threads,rep,error,attempts,outcome\n",
        metrics_json: None,
        journal_digest: None,
    };
    let a = store.save(&cfg, &art).unwrap();
    let b = store.save(&cfg, &art).unwrap();
    assert_eq!(a.run_id, b.run_id);
    assert_eq!(a.rows, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

// --- binary error paths and exit codes ---

fn fex_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fex"))
}

#[test]
fn report_with_missing_journal_exits_nonzero_with_message() {
    let out = fex_bin().args(["report", "/no/such/journal.jsonl"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read journal"), "{stderr}");
}

#[test]
fn lab_and_compare_on_missing_stores_exit_nonzero_with_message() {
    let dir = temp_dir("missing");
    let lab = dir.to_string_lossy().to_string();

    let out = fex_bin().args(["lab", "show", "latest", "--lab", &lab]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("empty"), "empty-store message");

    let out = fex_bin().args(["compare", "latest", "prev", "--lab", &lab]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));

    // An unreadable CSV path is reported, not panicked.
    let out = fex_bin()
        .args(["compare", "latest", "/no/such/baseline.csv", "--lab", &lab])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_exit_codes_gate_on_regression() {
    let dir = temp_dir("gate");
    let lab = dir.join("store").to_string_lossy().to_string();
    let header = "suite,benchmark,type,threads,input,rep,time\n";
    let row = |rep: usize, t: f64| format!("micro,fft,gcc_native,1,test,{rep},{t}\n");
    let base_path = dir.join("base.csv");
    let fast_path = dir.join("fast.csv");
    let slow_path = dir.join("slow.csv");
    std::fs::write(&base_path, format!("{header}{}{}{}", row(0, 1.00), row(1, 1.01), row(2, 0.99)))
        .unwrap();
    std::fs::write(&fast_path, format!("{header}{}{}{}", row(0, 1.00), row(1, 1.01), row(2, 0.99)))
        .unwrap();
    std::fs::write(&slow_path, format!("{header}{}{}{}", row(0, 2.00), row(1, 2.01), row(2, 1.99)))
        .unwrap();
    let svg = dir.join("cmp.svg").to_string_lossy().to_string();

    // Unchanged → exit 0, verdict table on stdout.
    let out = fex_bin()
        .args(["compare", base_path.to_str().unwrap(), fast_path.to_str().unwrap()])
        .args(["--lab", &lab, "--svg", &svg])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("unchanged"), "{stdout}");

    // Significant slowdown → exit 2.
    let out = fex_bin()
        .args(["compare", base_path.to_str().unwrap(), slow_path.to_str().unwrap()])
        .args(["--lab", &lab, "--svg", &svg])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("significant regression"));
    assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lab_cli_lists_shows_and_gcs_stored_runs() {
    let dir = temp_dir("cli");
    let lab = dir.to_string_lossy().to_string();
    for _ in 0..2 {
        let out = fex_bin()
            .args(["run", "-n", "micro", "-b", "arrayread", "-i", "test", "-r", "2"])
            .args(["--lab", &lab])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let out = fex_bin().args(["lab", "list", "--lab", &lab]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout.matches("fex256:").count(), 2, "{stdout}");

    let out = fex_bin().args(["lab", "show", "latest", "--lab", &lab]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("experiment: micro"));

    // Two identical runs compare as unchanged through the store.
    let out = fex_bin().args(["compare", "prev", "latest", "--lab", &lab]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    let out = fex_bin().args(["lab", "gc", "--keep", "1", "--lab", &lab]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("removed 1"));
    let _ = std::fs::remove_dir_all(&dir);
}
