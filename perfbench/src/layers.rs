//! The traced run's per-layer replay.
//!
//! Spans live in the benchmark, not in the program: after an op, the
//! benchmark calls each layer's public entry points again on exactly the
//! op's inputs, one layer at a time, and times each call. A layer's time
//! is the wall of its replay step, so it includes the step's own loop
//! overhead and is never exactly zero. The labs the replay uses must hold
//! what the op's lab held before the op, so caches hit and miss as they
//! did in the op.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fex_core::build::{Artifact, BuildSystem, MakefileSet};
use fex_core::collect::DataFrame;
use fex_core::config::input_name;
use fex_core::graph::unit_key;
use fex_core::lab::RunArtifacts;
use fex_core::plot::{barplot_from_frame, normalize_against};
use fex_core::runner::{RunContext, Runner, SuiteRunner};
use fex_core::sched::{execute_units, RunUnit, UnitWork};
use fex_core::{ArtifactGraph, ExperimentConfig, JournalEvent, Metrics, RunStore};
use fex_suites::Suite;
use fex_vm::{decode_program_passes, CostModel, Machine};

use crate::err;

/// Per-layer sums over the traced ops, with the op count they cover.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub ops: u64,
    sums: BTreeMap<&'static str, f64>,
}

impl LayerTotals {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The mean per traced op.
    pub fn per_op(&self, name: &str) -> f64 {
        crate::measure::ratio(self.sum(name), self.ops as f64)
    }
}

/// Per-op seconds of the layers that partition an op's wall between
/// them; the rest of the wall is the workflow's own.
pub fn outer_sum(totals: &LayerTotals) -> f64 {
    ["graph.open_s", "runner.s", "collect.s", "journal.s", "lab.save_s", "plot.s"]
        .iter()
        .map(|l| totals.per_op(l))
        .sum()
}

/// Times `f`, adding its wall seconds to `name`.
fn span<T>(totals: &mut LayerTotals, name: &'static str, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    totals.add(name, started.elapsed().as_secs_f64());
    out
}

/// The Phoenix op's `Fex::plot(Perf)`, rebuilt from the public plot
/// functions it calls so a replay can plot any frame.
pub fn perf_svg(frame: &DataFrame) -> Result<String, String> {
    let types = frame.distinct("type").map_err(err)?;
    let baseline = types.first().ok_or("no build types in the results")?;
    let norm = normalize_against(frame, "benchmark", "type", "time", baseline).map_err(err)?;
    let plot =
        barplot_from_frame(&norm, "benchmark", "type", "normalized_time", "perf").map_err(err)?;
    Ok(plot.to_svg())
}

/// One matrix cell as the runner expands it.
struct Cell {
    ty: String,
    bench: String,
    threads: usize,
    rep: Option<usize>,
    args: Vec<i64>,
    artifact: Arc<Artifact>,
}

/// Replays one op of `suite` under `config` layer by layer, adding each
/// layer's time and counts to `totals`. The runner replays against
/// `runner_lab` (graph, then store), the graph layer's unit lookups and
/// stores against `graph_lab`. Returns the replayed results CSV, which
/// must equal the op's.
pub fn replay(
    suite: &Suite,
    config: &ExperimentConfig,
    runner_lab: &Path,
    graph_lab: &Path,
    totals: &mut LayerTotals,
) -> Result<String, String> {
    totals.ops += 1;

    // Runner, collect, journal, lab and plot: the workflow's own sequence.
    let mut build = BuildSystem::new(MakefileSet::standard());
    let mut log = Vec::new();
    let graph = span(totals, "graph.open_s", || ArtifactGraph::open(runner_lab)).map_err(err)?;
    let mut ctx = RunContext::new(config, &mut build, &mut log);
    ctx.graph = Some(graph);
    ctx.journal.emit(JournalEvent::ExperimentStart {
        name: config.name.clone(),
        jobs: config.effective_jobs(),
        seed: config.seed,
        version: fex_core::journal::JOURNAL_VERSION,
    });
    ctx.journal.phase_start("run");
    let mut runner = SuiteRunner::new(suite.clone(), config);
    let frame = span(totals, "runner.s", || runner.run(&mut ctx)).map_err(err)?;
    ctx.journal.phase_end("run");
    let (results_csv, failures_csv) =
        span(totals, "collect.s", || (frame.to_csv(), ctx.failures.to_csv()));
    totals.add("collect.rows", frame.len() as f64);
    let (metrics, jsonl) = span(totals, "journal.s", || {
        (Metrics::from_journal(ctx.journal.events()), ctx.journal.to_jsonl())
    });
    std::hint::black_box(&metrics);
    totals.add("journal.events", ctx.journal.events().len() as f64);
    totals.add("journal.bytes", jsonl.len() as f64);
    span(totals, "lab.save_s", || {
        let art = RunArtifacts {
            results_csv: &results_csv,
            failures_csv: &failures_csv,
            metrics_json: None,
            journal_digest: None,
        };
        RunStore::open(runner_lab)?.save(config, &art)
    })
    .map_err(err)?;
    let svg = span(totals, "plot.s", || perf_svg(&frame))?;
    totals.add("plot.svg_bytes", svg.len() as f64);

    // Build: compile and decode on their own, then the build system that
    // calls both.
    let mut build = BuildSystem::new(MakefileSet::standard());
    build.set_passes(config.passes);
    let benches: Vec<_> = suite
        .programs
        .iter()
        .filter(|p| config.benchmark.as_deref().is_none_or(|b| b == p.name))
        .collect();
    let mut cells = Vec::new();
    for ty in &config.build_types {
        let opts = build.makefiles().build_options(ty, config.debug).map_err(err)?;
        for prog in &benches {
            let program = span(totals, "cc.compile_s", || fex_cc::compile(prog.source, &opts))
                .map_err(err)?;
            let decoded = span(totals, "vm.decode_s", || {
                decode_program_passes(&program, &CostModel::default(), config.passes)
            })
            .map_err(err)?;
            std::hint::black_box(&decoded);
            totals.add("cc.compiles", 1.0);
            totals.add("vm.decodes", 1.0);
            let artifact = span(totals, "build.s", || {
                build.build(prog.name, prog.source, ty, config.debug, false)
            })
            .map_err(err)?;
            let args = prog.args(config.input).to_vec();
            let unit = |threads, rep| Cell {
                ty: ty.clone(),
                bench: prog.name.to_string(),
                threads,
                rep,
                args: args.clone(),
                artifact: artifact.clone(),
            };
            if prog.dry_run {
                cells.push(unit(1, None));
            }
            for &threads in &config.threads {
                for rep in 0..config.repetitions.min_reps() {
                    cells.push(unit(threads, Some(rep)));
                }
            }
        }
    }

    // Graph lookups: the cells the op's graph could not serve execute.
    let mut graph = ArtifactGraph::open(graph_lab).map_err(err)?;
    let input = input_name(config.input);
    let keys: Vec<_> = cells
        .iter()
        .map(|c| {
            let seed = config.unit_seed(&c.bench, &c.ty, c.threads, c.rep);
            let budget = config.resilience.run_budget;
            unit_key(c.artifact.digest, seed, c.threads, c.rep, input, &c.args, budget)
        })
        .collect();
    let served = span(totals, "graph.lookup_s", || {
        keys.iter().map(|k| graph.lookup_run(k).is_some()).collect::<Vec<_>>()
    });
    totals.add("graph.lookups", keys.len() as f64);
    totals.add("graph.hits", served.iter().filter(|&&s| s).count() as f64);
    let missed: Vec<usize> = (0..cells.len()).filter(|&i| !served[i]).collect();

    // VM: each missed unit alone, as a worker runs it.
    let config_for = |c: &Cell| config.unit_machine_config(&c.bench, &c.ty, c.threads, c.rep, 0);
    let runs = span(totals, "vm.exec_s", || {
        missed
            .iter()
            .map(|&i| {
                let c = &cells[i];
                let machine = Machine::new(config_for(c));
                machine.load_with(&c.artifact.program, &c.artifact.decoded).run_entry(&c.args)
            })
            .collect::<Vec<_>>()
    });
    let mut results = Vec::with_capacity(runs.len());
    for run in runs {
        let run = run.map_err(err)?;
        totals.add("vm.instructions", run.counters.instructions as f64);
        totals.add("vm.units_executed", 1.0);
        results.push(run);
    }

    // Scheduler: the same units through the worker pool.
    let units: Vec<RunUnit> = missed
        .iter()
        .map(|&i| {
            let c = &cells[i];
            RunUnit {
                ty: c.ty.clone(),
                bench: c.bench.clone(),
                threads: c.threads,
                rep: c.rep,
                input,
                record: c.rep.is_some(),
                line: None,
                work: Some(UnitWork {
                    program: c.artifact.program.clone(),
                    decoded: Some(c.artifact.decoded.clone()),
                    args: c.args.clone(),
                    config: config_for(c),
                }),
            }
        })
        .collect();
    // The pool's busy time is the process CPU time the call consumed; a
    // call with no units has no pool to be idle.
    let cpu = crate::measure::process_cpu_s();
    let started = Instant::now();
    let outcomes =
        execute_units(&units, &config.resilience, config.effective_jobs(), false, config.chunk);
    let wall = started.elapsed().as_secs_f64();
    totals.add("sched.s", wall);
    if !units.is_empty() {
        totals.add("sched.busy_s", crate::measure::process_cpu_s() - cpu);
        totals.add("sched.pool_s", wall);
    }
    std::hint::black_box(&outcomes);

    // Graph stores of the executed units.
    span(totals, "graph.store_s", || {
        missed.iter().zip(&results).try_for_each(|(&i, run)| graph.store_run(&keys[i], run))
    })
    .map_err(err)?;
    totals.add("graph.stores", results.len() as f64);
    Ok(results_csv)
}
