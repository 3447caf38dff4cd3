//! Smoke runs of every workload on tiny inputs: each run must pass its
//! output check and emit every metric `BENCHMARK.json` names for its
//! mode, with that metric's unit and a finite value.

use std::path::PathBuf;

use fex_perfbench::{run, Options, WORKLOADS};

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{list}\"")).expect("the list exists");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the list is closed")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn smoke(workload: &str, trace: bool) {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("work dir");
    let opts = Options {
        workload: workload.to_string(),
        seed: 9,
        seconds: 0.3,
        trace,
        smoke: true,
        work: work.clone(),
    };
    let report = run(&opts);
    let _ = std::fs::remove_dir_all(&work);
    let report = report.unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "{workload}: an op failed its check");
    let list = if trace { "per_layer" } else { "end_to_end" };
    let expected = declared(list);
    assert!(!expected.is_empty());
    for (name, unit) in &expected {
        let (value, got) =
            report.metrics.get(name).unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
        assert_eq!(got, unit, "{workload}: `{name}` unit");
        assert!(value.is_finite(), "{workload}: `{name}` = {value}");
    }
    assert_eq!(report.metrics.len(), expected.len(), "{workload}: undeclared metrics");
    let last = report.render().lines().last().expect("a result line").to_string();
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
}

#[test]
fn every_workload_emits_its_end_to_end_metrics() {
    for w in WORKLOADS {
        smoke(w, false);
    }
}

#[test]
fn every_workload_emits_its_per_layer_metrics() {
    for w in WORKLOADS {
        smoke(w, true);
    }
}

#[test]
fn unknown_workloads_are_refused() {
    let opts = Options {
        workload: "nope".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        smoke: true,
        work: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    assert!(run(&opts).is_err());
}
