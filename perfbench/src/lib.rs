//! The fex pipeline benchmark: three workloads driven through the
//! library's public API, end-to-end metrics with tracing off and
//! per-layer metrics from a separate traced run. See `README.md` for the
//! workloads, the metrics and which layer moves which metric.

pub mod gen;
pub mod layers;
pub mod measure;
pub mod phoenix;
pub mod serve_mix;

use std::path::PathBuf;

use layers::LayerTotals;
use measure::{ratio, Report};

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["cold-phoenix", "warm-phoenix", "serve-mix"];

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Seconds of ops to measure.
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end one.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
    /// Private directory for labs and sockets; the caller removes it.
    pub work: PathBuf,
}

pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload, or a failure that leaves nothing to measure
/// (set-up or reference run failing); failures of single ops are counted
/// in the report instead.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "cold-phoenix" => phoenix::run(opts, false),
        "warm-phoenix" => phoenix::run(opts, true),
        "serve-mix" => serve_mix::run(opts),
        other => Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
    }
}

/// The per-layer metrics every workload's traced run shares. `workflow`
/// is the op wall left over by the outer layers; `install_s` the median
/// install time of set-up.
pub(crate) fn layer_metrics(
    report: &mut Report,
    t: &LayerTotals,
    workflow: f64,
    jobs: usize,
    install_s: f64,
) {
    let per_op = |name: &str| t.per_op(name);
    for (name, unit) in [
        ("cc.compile_s", "s"),
        ("cc.compiles", "count"),
        ("vm.decode_s", "s"),
        ("vm.decodes", "count"),
        ("vm.exec_s", "s"),
        ("vm.instructions", "count"),
        ("vm.units_executed", "count"),
        ("build.s", "s"),
        ("sched.s", "s"),
        ("graph.open_s", "s"),
        ("graph.lookup_s", "s"),
        ("graph.lookups", "count"),
        ("graph.store_s", "s"),
        ("graph.stores", "count"),
        ("runner.s", "s"),
        ("collect.s", "s"),
        ("collect.rows", "count"),
        ("journal.s", "s"),
        ("journal.events", "count"),
        ("journal.bytes", "bytes"),
        ("lab.save_s", "s"),
        ("plot.s", "s"),
        ("plot.svg_bytes", "bytes"),
    ] {
        report.metric(name, per_op(name), unit);
    }
    let minstr = ratio(t.sum("vm.instructions"), t.sum("vm.exec_s")) / 1e6;
    report.metric("vm.minstr_per_s", minstr, "Minstr/s");
    let build_self = per_op("build.s") - per_op("cc.compile_s") - per_op("vm.decode_s");
    report.metric("build.self_s", build_self, "s");
    // With no unit executed anywhere, the pool never ran: all idle.
    let idle = 1.0 - ratio(t.sum("sched.busy_s"), jobs as f64 * t.sum("sched.pool_s"));
    report.metric("sched.idle_share", idle, "share");
    report.metric("graph.hit_share", ratio(t.sum("graph.hits"), t.sum("graph.lookups")), "share");
    let inner = ["build.s", "sched.s", "graph.lookup_s", "graph.store_s"];
    let runner_self = per_op("runner.s") - inner.iter().map(|l| per_op(l)).sum::<f64>();
    report.metric("runner.self_s", runner_self, "s");
    report.metric("workflow.self_s", workflow, "s");
    report.metric("install.s", install_s, "s");
}
