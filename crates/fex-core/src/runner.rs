//! Experiment runners (Fig 3 and Fig 4 of the paper).
//!
//! [`Runner`] is the paper's `Runner` abstract class. [`SuiteRunner`]
//! walks the Fig 4 matrix — build type → benchmark → thread count →
//! repetition — as one plan → execute → merge pipeline at every
//! `--jobs`: the matrix expands into [`RunUnit`]s in that nesting order,
//! [`execute_units`] runs them (inline at `--jobs 1`, across the worker
//! pool otherwise) and the outcomes merge back in matrix order.
//! [`VariableInputRunner`] adds an input-size dimension between benchmark
//! and thread count (the paper's `VariableInputRunner` subclass);
//! [`ServerRunner`] and [`SecurityRunner`] replace the loop wholesale for
//! the throughput-latency and RIPE experiments.

use std::collections::HashMap;
use std::sync::Arc;

use fex_cc::BuildOptions;
use fex_netsim::{ServerBuild, ServerKind, Simulation, Workload};
use fex_ripe::{run_testbed, TestbedConfig};
use fex_suites::{BenchProgram, InputSize, Suite};
use fex_vm::RunResult;

use fex_container::Digest;

use crate::build::{Artifact, BuildSystem};
use crate::collect::{Collector, DataFrame};
use crate::config::{input_name, ExperimentConfig};
use crate::env::environment_for;
use crate::error::{FexError, Result};
use crate::graph::ArtifactGraph;
use crate::journal::{Journal, JournalEvent};
use crate::resilience::{AttemptLog, FailureRecord, FailureReport, QuarantineBook, RunOutcome};
use crate::sched::{execute_units, RunUnit, UnitOutcome, UnitWork};

/// Shared state handed to runner hooks.
pub struct RunContext<'a> {
    /// The experiment configuration.
    pub config: &'a ExperimentConfig,
    /// The build subsystem.
    pub build: &'a mut BuildSystem,
    /// Experiment log lines (environment details, progress).
    pub log: &'a mut Vec<String>,
    /// Failure and retry accounting for this experiment.
    pub failures: FailureReport,
    /// The structured run journal (disabled under `--no-journal`). A
    /// strict observer: the merge splices each unit's event sequence —
    /// claim, VM execution, one fault per errored attempt, outcome — in
    /// matrix order and never reads it back, so CSVs are byte-identical
    /// with it on or off.
    pub journal: Journal,
    /// The artifact graph serving cached clean run units, attached by the
    /// workflow when `--lab` is active and `--no-graph` was not given.
    /// `None` keeps every lookup and store a no-op, so graph-less runs
    /// are untouched.
    pub graph: Option<ArtifactGraph>,
}

impl<'a> RunContext<'a> {
    /// Creates a context with clean failure accounting.
    pub fn new(
        config: &'a ExperimentConfig,
        build: &'a mut BuildSystem,
        log: &'a mut Vec<String>,
    ) -> Self {
        RunContext {
            config,
            build,
            log,
            failures: FailureReport::default(),
            journal: Journal::new(config.journal),
            graph: None,
        }
    }

    /// Appends a log line (printed immediately in verbose mode).
    pub fn log(&mut self, line: impl Into<String>) {
        let line = line.into();
        if self.config.verbose {
            println!("[fex] {line}");
        }
        self.log.push(line);
    }
}

/// Folds one [`AttemptLog`] into the context's failure accounting, the
/// quarantine book and the run journal. Non-run errors propagate and
/// abort the experiment; run faults are recorded and — at the failure
/// threshold — quarantine the benchmark.
///
/// `rep` is `None` for benchmark-level units (dry runs); the failure
/// CSV and log lines keep printing `0` there, exactly as before the
/// journal existed.
fn settle(
    ctx: &mut RunContext<'_>,
    quarantine: &mut QuarantineBook,
    log: AttemptLog,
    ty: &str,
    bench: &str,
    threads: usize,
    rep: Option<usize>,
) -> Result<()> {
    ctx.failures.note_run(log.attempts, log.backoff_cycles);
    if ctx.journal.enabled() {
        for (attempt, error) in log.errors.iter().enumerate() {
            ctx.journal.emit(JournalEvent::RunFault {
                benchmark: bench.to_string(),
                build_type: ty.to_string(),
                threads,
                rep,
                attempt: attempt as u64,
                error: error.clone(),
            });
        }
    }
    let outcome_event = |ctx: &mut RunContext<'_>, outcome: &str| {
        if ctx.journal.enabled() {
            ctx.journal.emit(JournalEvent::UnitOutcome {
                benchmark: bench.to_string(),
                build_type: ty.to_string(),
                threads,
                rep,
                outcome: outcome.to_string(),
                attempts: log.attempts,
                backoff_cycles: log.backoff_cycles,
            });
        }
    };
    let rec_rep = rep.unwrap_or(0);
    let first_error = log.errors.first().cloned().unwrap_or_default();
    match log.result {
        Ok(()) => {
            if log.attempts > 1 {
                ctx.log(format!(
                    "`{bench}` [{ty}] m={threads} rep={rec_rep} recovered after {} attempts",
                    log.attempts
                ));
                ctx.failures.push(FailureRecord {
                    benchmark: bench.to_string(),
                    build_type: ty.to_string(),
                    threads,
                    rep: rec_rep,
                    error: first_error,
                    attempts: log.attempts,
                    outcome: RunOutcome::Recovered,
                });
                outcome_event(ctx, "recovered");
            } else {
                outcome_event(ctx, "clean");
            }
            Ok(())
        }
        Err(e) if e.is_run_fault() => {
            let quarantined = quarantine.record_failure(bench);
            let outcome = if quarantined { RunOutcome::Quarantined } else { RunOutcome::Failed };
            ctx.log(format!(
                "`{bench}` [{ty}] m={threads} rep={rec_rep} {outcome} after {} attempts: {e}",
                log.attempts
            ));
            ctx.failures.push(FailureRecord {
                benchmark: bench.to_string(),
                build_type: ty.to_string(),
                threads,
                rep: rec_rep,
                error: e.to_string(),
                attempts: log.attempts,
                outcome,
            });
            outcome_event(ctx, &outcome.to_string());
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// One artifact-graph lookup event (hit or miss) for one run unit.
fn graph_event(
    hit: bool,
    bench: &str,
    ty: &str,
    threads: usize,
    rep: Option<usize>,
) -> JournalEvent {
    if hit {
        JournalEvent::GraphHit {
            benchmark: bench.to_string(),
            build_type: ty.to_string(),
            threads,
            rep,
        }
    } else {
        JournalEvent::GraphMiss {
            benchmark: bench.to_string(),
            build_type: ty.to_string(),
            threads,
            rep,
        }
    }
}

/// The outcome a graph hit synthesizes in place of worker execution: a
/// clean single-attempt log carrying the cached result, with the event
/// triple (hit, claim, execution) the worker would have emitted. Only
/// clean first-attempt results are ever stored, so the synthesized log
/// is exactly what executing the unit would have produced.
fn served_outcome(unit: &RunUnit, run: RunResult, journal: bool) -> UnitOutcome {
    let mut events = Vec::new();
    if journal {
        events.push(graph_event(true, &unit.bench, &unit.ty, unit.threads, unit.rep));
        events.push(JournalEvent::UnitClaim {
            benchmark: unit.bench.clone(),
            build_type: unit.ty.clone(),
            threads: unit.threads,
            rep: unit.rep,
            worker: 0,
        });
        events.push(JournalEvent::vm_exec(&unit.bench, &unit.ty, unit.threads, unit.rep, &run));
    }
    UnitOutcome {
        log: AttemptLog { attempts: 1, backoff_cycles: 0, errors: Vec::new(), result: Ok(()) },
        result: Some(run),
        events,
    }
}

/// The paper's `Runner` class: hooks plus the experiment loop.
pub trait Runner {
    /// Experiment name.
    fn experiment_name(&self) -> &str;

    /// One-time setup before the loop.
    fn experiment_setup(&mut self, _ctx: &mut RunContext<'_>) -> Result<()> {
        Ok(())
    }

    /// Benchmarks this experiment iterates over (after `-b` filtering).
    fn benchmarks(&self, ctx: &RunContext<'_>) -> Vec<String>;

    /// Hook: a build type enters the plan (suite runners build every
    /// benchmark for it here, before any unit executes).
    fn per_type_action(&mut self, _ctx: &mut RunContext<'_>, _ty: &str) -> Result<()> {
        Ok(())
    }

    /// The experiment's iteration. Suite runners walk the Fig 4 matrix
    /// through the plan → execute → merge pipeline, made resilient: each
    /// unit is driven through the experiment's
    /// [`RunPolicy`](crate::resilience::RunPolicy) (retry with
    /// exponential simulated backoff), and a benchmark whose runs keep
    /// failing is **quarantined** — its remaining types, thread counts
    /// and repetitions are dropped — instead of aborting the experiment.
    /// The partial frame plus the context's [`FailureReport`] are the
    /// result. Non-run errors (configuration, unknown names, build
    /// failures) still abort immediately.
    fn experiment_loop(&mut self, ctx: &mut RunContext<'_>) -> Result<()>;

    /// Runs setup + loop and returns the collected frame.
    fn run(&mut self, ctx: &mut RunContext<'_>) -> Result<DataFrame> {
        self.experiment_setup(ctx)?;
        self.experiment_loop(ctx)?;
        Ok(self.take_frame())
    }

    /// Extracts the result frame after the loop.
    fn take_frame(&mut self) -> DataFrame;
}

// ---------------------------------------------------------------------
// Suite performance runner
// ---------------------------------------------------------------------

/// Runs a benchmark suite over the Fig 4 matrix.
pub struct SuiteRunner {
    suite: Suite,
    collector: Collector,
    artifacts: HashMap<(String, String), Arc<Artifact>>,
}

impl SuiteRunner {
    /// Creates a runner for a suite with the configured measurement tool.
    pub fn new(suite: Suite, config: &ExperimentConfig) -> Self {
        SuiteRunner { suite, collector: Collector::new(config.tool), artifacts: HashMap::new() }
    }

    fn program(&self, name: &str) -> Result<&BenchProgram> {
        self.suite
            .program(name)
            .ok_or_else(|| FexError::UnknownName { kind: "benchmark", name: name.to_string() })
    }

    /// Builds the executable payload of one run unit: the [`Arc`]-shared
    /// program out of the build cache plus the unit's derived machine
    /// configuration (attempt 0; the worker re-salts per retry).
    fn unit_work(
        &self,
        ctx: &RunContext<'_>,
        ty: &str,
        bench: &str,
        threads: usize,
        rep: Option<usize>,
        input: InputSize,
    ) -> Result<UnitWork> {
        let args: Vec<i64> = self.program(bench)?.args(input).to_vec();
        let artifact = self
            .artifacts
            .get(&(ty.to_string(), bench.to_string()))
            .ok_or_else(|| FexError::Config(format!("`{bench}` was not built for `{ty}`")))?;
        Ok(UnitWork {
            program: artifact.program.clone(),
            decoded: Some(artifact.decoded.clone()),
            args,
            config: ctx.config.unit_machine_config(bench, ty, threads, rep, 0),
        })
    }

    /// The content-addressed graph key for one run unit, or `None` when
    /// the unit is not cacheable: benchmarks with a fault plan armed
    /// bypass the graph entirely (their retry and quarantine behaviour
    /// must replay identically on warm runs), as do units whose artifact
    /// is missing (the build step will error first anyway).
    #[allow(clippy::too_many_arguments)] // one parameter per matrix coordinate
    fn unit_graph_key(
        &self,
        config: &ExperimentConfig,
        ty: &str,
        bench: &str,
        threads: usize,
        rep: Option<usize>,
        input: &str,
        args: &[i64],
    ) -> Option<Digest> {
        if config.fault_plan_for(bench).is_some() {
            return None;
        }
        let artifact = self.artifacts.get(&(ty.to_string(), bench.to_string()))?;
        Some(crate::graph::unit_key(
            artifact.digest,
            config.unit_seed(bench, ty, threads, rep),
            threads,
            rep,
            input,
            args,
            config.resilience.run_budget,
        ))
    }

    /// The experiment loop at every `--jobs`. Plan: build everything up
    /// front and expand the matrix into [`RunUnit`]s in Fig 4 order —
    /// type → benchmark → [size] → threads → rep. Execute: serve cached
    /// units from the artifact graph and run the rest through
    /// [`execute_units`], inline at `--jobs 1`. Merge: walk the outcomes
    /// back in matrix order and apply quarantine decisions only there,
    /// so results, failure records and quarantine choices do not depend
    /// on the worker count. Units after a quarantine decision run
    /// speculatively and are dropped at merge.
    ///
    /// `sizes` adds the [`VariableInputRunner`] input-size dimension
    /// between benchmark and thread count; `None` runs the plain Fig 4
    /// matrix.
    fn matrix_loop(
        &mut self,
        ctx: &mut RunContext<'_>,
        sizes: Option<Vec<InputSize>>,
    ) -> Result<()> {
        let types = ctx.config.build_types.clone();
        let threads = ctx.config.threads.clone();
        let reps = ctx.config.repetitions;
        let policy = ctx.config.resilience.clone();
        let jobs = ctx.config.effective_jobs();

        // Phase 1: builds, front-loaded (each bench × type compiles
        // exactly once).
        for ty in &types {
            self.per_type_action(ctx, ty)?;
        }

        // Phase 2: expand the matrix into per-(type, benchmark) groups
        // and measurement cells, in matrix order.
        let size_axis: Vec<Option<InputSize>> = match &sizes {
            Some(s) => s.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        struct Cell {
            ty: String,
            bench: String,
            input: InputSize,
            threads: usize,
            /// Executed rep count (failures included — they consume the
            /// adaptive budget).
            done: usize,
            /// Successful samples, in rep order.
            samples: Vec<f64>,
            /// Executed units with their outcomes, in rep order.
            executed: Vec<(RunUnit, UnitOutcome)>,
        }
        struct Group {
            ty: String,
            bench: String,
            dry_run: bool,
            cells: std::ops::Range<usize>,
            dry: Option<(RunUnit, UnitOutcome)>,
        }
        let mut cells: Vec<Cell> = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        for ty in &types {
            for bench in self.benchmarks(ctx) {
                let dry_run = self.program(&bench)?.dry_run;
                let first_cell = cells.len();
                for size in &size_axis {
                    let input = size.unwrap_or(ctx.config.input);
                    for m in &threads {
                        cells.push(Cell {
                            ty: ty.clone(),
                            bench: bench.clone(),
                            input,
                            threads: *m,
                            done: 0,
                            samples: Vec::new(),
                            executed: Vec::new(),
                        });
                    }
                }
                groups.push(Group {
                    ty: ty.clone(),
                    bench: bench.clone(),
                    dry_run,
                    cells: first_cell..cells.len(),
                    dry: None,
                });
            }
        }

        // Phase 3: speculative execution, in rounds. Round 0 covers the
        // per-benchmark dry units plus every rep the policy wants before
        // seeing any sample (all of them, for `Fixed`); each later round
        // gives every unconverged cell exactly one more rep, so
        // `Repetitions::wants_more` re-checks a cell after every sample.
        // Measurements are pure functions of unit coordinates, so each
        // cell's sample sequence — and therefore its rep count — does
        // not depend on the worker count; a `Fixed` policy terminates
        // after round 0, which is the classic single-batch schedule.
        enum Origin {
            Dry(usize),
            Rep(usize),
        }
        let mut round = 0usize;
        loop {
            let mut batch: Vec<RunUnit> = Vec::new();
            let mut origins: Vec<Origin> = Vec::new();
            for (g, group) in groups.iter().enumerate() {
                if round == 0 {
                    batch.push(RunUnit {
                        ty: group.ty.clone(),
                        bench: group.bench.clone(),
                        threads: 1,
                        rep: None,
                        input: input_name(ctx.config.input),
                        record: false,
                        line: group.dry_run.then(|| format!("dry run for `{}`", group.bench)),
                        work: if group.dry_run {
                            Some(self.unit_work(
                                ctx,
                                &group.ty,
                                &group.bench,
                                1,
                                None,
                                ctx.config.input,
                            )?)
                        } else {
                            None
                        },
                    });
                    origins.push(Origin::Dry(g));
                }
                for ci in group.cells.clone() {
                    let cell = &cells[ci];
                    let target = if round == 0 {
                        reps.min_reps()
                    } else if reps.wants_more(cell.done, &cell.samples) {
                        cell.done + 1
                    } else {
                        cell.done
                    };
                    for rep in cell.done..target {
                        batch.push(RunUnit {
                            ty: cell.ty.clone(),
                            bench: cell.bench.clone(),
                            threads: cell.threads,
                            rep: Some(rep),
                            input: input_name(cell.input),
                            record: true,
                            line: None,
                            work: Some(self.unit_work(
                                ctx,
                                &cell.ty,
                                &cell.bench,
                                cell.threads,
                                Some(rep),
                                cell.input,
                            )?),
                        });
                        origins.push(Origin::Rep(ci));
                    }
                }
            }
            if round == 0 {
                ctx.log(format!("scheduler: {} run units across {jobs} workers", batch.len()));
            } else if batch.is_empty() {
                break;
            } else {
                ctx.log(format!("scheduler: adaptive round {round}: {} run units", batch.len()));
            }
            // Artifact-graph partition: serve cached clean units without
            // executing them; everything else goes to the worker pool.
            // Served outcomes synthesize the same event shape the worker
            // would emit, so the merged journal is identical cold and
            // warm.
            let journal_on = ctx.journal.enabled();
            let graph_on = ctx.graph.is_some() && ctx.config.graph;
            let mut keys: Vec<Option<Digest>> = Vec::with_capacity(batch.len());
            for unit in &batch {
                keys.push(match &unit.work {
                    Some(work) if graph_on => self.unit_graph_key(
                        ctx.config,
                        &unit.ty,
                        &unit.bench,
                        unit.threads,
                        unit.rep,
                        unit.input,
                        &work.args,
                    ),
                    _ => None,
                });
            }
            let mut slots: Vec<Option<(RunUnit, UnitOutcome)>> = Vec::with_capacity(batch.len());
            let mut exec_units: Vec<RunUnit> = Vec::new();
            let mut exec_slots: Vec<usize> = Vec::new();
            let mut exec_keys: Vec<Option<Digest>> = Vec::new();
            for (i, unit) in batch.into_iter().enumerate() {
                let cached = match (&keys[i], ctx.graph.as_mut()) {
                    (Some(key), Some(g)) => g.lookup_run(key),
                    _ => None,
                };
                match cached {
                    Some(run) => {
                        let outcome = served_outcome(&unit, run, journal_on);
                        slots.push(Some((unit, outcome)));
                    }
                    None => {
                        exec_slots.push(i);
                        exec_keys.push(keys[i]);
                        exec_units.push(unit);
                        slots.push(None);
                    }
                }
            }
            let outcomes = execute_units(&exec_units, &policy, jobs, journal_on, ctx.config.chunk);
            for (((unit, mut outcome), slot), key) in
                exec_units.into_iter().zip(outcomes).zip(exec_slots).zip(exec_keys)
            {
                if let Some(key) = key {
                    // A looked-up unit that missed: record the miss ahead
                    // of the worker's claim, and store its clean
                    // first-attempt result for the next warm run.
                    if journal_on {
                        outcome.events.insert(
                            0,
                            graph_event(false, &unit.bench, &unit.ty, unit.threads, unit.rep),
                        );
                    }
                    if outcome.log.attempts == 1 && outcome.log.errors.is_empty() {
                        if let (Some(run), Some(g)) = (&outcome.result, ctx.graph.as_mut()) {
                            g.store_run(&key, run)?;
                        }
                    }
                }
                slots[slot] = Some((unit, outcome));
            }
            for (slot, origin) in slots.into_iter().zip(origins) {
                let (unit, outcome) =
                    slot.expect("every unit is either served from the graph or executed");
                match origin {
                    Origin::Dry(g) => groups[g].dry = Some((unit, outcome)),
                    Origin::Rep(ci) => {
                        let cell = &mut cells[ci];
                        if let Some(run) = &outcome.result {
                            cell.samples.push(crate::collect::run_sample(ctx.config.tool, run));
                        }
                        cell.done += 1;
                        cell.executed.push((unit, outcome));
                    }
                }
            }
            round += 1;
        }

        // Phase 4: deterministic merge — quarantine applied in matrix
        // order.
        let mut quarantine = QuarantineBook::new(policy.failure_threshold);
        for group in groups {
            let (unit, outcome) = group.dry.expect("round 0 executes every per-benchmark unit");
            self.merge_unit(ctx, &mut quarantine, unit, outcome)?;
            for ci in group.cells {
                for (unit, outcome) in std::mem::take(&mut cells[ci].executed) {
                    self.merge_unit(ctx, &mut quarantine, unit, outcome)?;
                }
            }
        }
        Ok(())
    }

    /// Merges one speculatively executed unit back into the experiment:
    /// quarantine check, log replay, journal splice, settle, record.
    fn merge_unit(
        &mut self,
        ctx: &mut RunContext<'_>,
        quarantine: &mut QuarantineBook,
        unit: RunUnit,
        outcome: UnitOutcome,
    ) -> Result<()> {
        if quarantine.is_quarantined(&unit.bench) {
            // The skip is announced once per (type, benchmark), at the
            // per-benchmark unit. A speculatively executed unit's worker
            // events are dropped with it, so the journal does not depend
            // on how far speculation ran.
            if !unit.record {
                ctx.log(format!("skipping quarantined `{}` [{}]", unit.bench, unit.ty));
                ctx.journal.emit(JournalEvent::QuarantineSkip {
                    benchmark: unit.bench.clone(),
                    build_type: unit.ty.clone(),
                });
            }
            return Ok(());
        }
        if let Some(line) = &unit.line {
            ctx.log(line.clone());
        }
        let rep = unit.rep.unwrap_or(0);
        let recorded = unit.record && outcome.result.is_some();
        // Splice the worker's per-unit events (claim + execution)
        // ahead of the fault/outcome events settle emits.
        ctx.journal.extend(outcome.events);
        settle(ctx, quarantine, outcome.log, &unit.ty, &unit.bench, unit.threads, unit.rep)?;
        if recorded {
            let run = outcome.result.expect("checked above");
            self.collector.record(
                self.suite.name,
                &unit.bench,
                &unit.ty,
                unit.threads,
                unit.input,
                rep,
                &run,
            );
        }
        Ok(())
    }
}

impl Runner for SuiteRunner {
    fn experiment_name(&self) -> &str {
        self.suite.name
    }

    fn experiment_setup(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        if self.suite.proprietary {
            return Err(FexError::Config(format!(
                "suite `{}` is proprietary: sources are not distributed with the framework",
                self.suite.name
            )));
        }
        // Fresh experiment: drop stale binaries unless --no-build.
        if !ctx.config.no_build {
            ctx.build.clean();
        }
        // Artifacts must be decoded the way this experiment's machines
        // will run them, or every load falls back to a fresh decode.
        ctx.build.set_passes(ctx.config.passes);
        ctx.log(format!("experiment `{}` setup complete", self.suite.name));
        Ok(())
    }

    fn benchmarks(&self, ctx: &RunContext<'_>) -> Vec<String> {
        match &ctx.config.benchmark {
            Some(b) => vec![b.clone()],
            None => self.suite.programs.iter().map(|p| p.name.to_string()).collect(),
        }
    }

    /// Builds every benchmark for the incoming type (the paper rebuilds
    /// all benchmarks per experiment type).
    fn per_type_action(&mut self, ctx: &mut RunContext<'_>, ty: &str) -> Result<()> {
        // Environment for this type, resolved and logged.
        let env = environment_for(ty);
        let vars = env.spec().resolve(ctx.config.debug);
        ctx.log(format!("type `{ty}` environment ({}): {vars:?}", env.name()));
        for bench in self.benchmarks(ctx) {
            let prog = self.program(&bench)?;
            let started = std::time::Instant::now();
            let (builds_before, _) = ctx.build.work_performed();
            let artifact =
                ctx.build.build(&bench, prog.source, ty, ctx.config.debug, ctx.config.no_build)?;
            ctx.log(format!("built `{bench}` [{}]", artifact.build_info));
            if ctx.journal.enabled() {
                let (builds_after, _) = ctx.build.work_performed();
                ctx.journal.emit(JournalEvent::Build {
                    benchmark: bench.clone(),
                    build_type: ty.to_string(),
                    digest: artifact.digest.to_string(),
                    cache_hit: builds_after == builds_before,
                    wall_ns: started.elapsed().as_nanos() as u64,
                });
            }
            self.artifacts.insert((ty.to_string(), bench), artifact);
        }
        Ok(())
    }

    /// Runs the matrix through the plan → execute → merge pipeline.
    /// Phoenix's preliminary dry run (the paper's `per_benchmark_action`)
    /// is the per-benchmark unit of each (type, benchmark) group.
    fn experiment_loop(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        self.matrix_loop(ctx, None)
    }

    fn take_frame(&mut self) -> DataFrame {
        let tool = self.collector.tool();
        std::mem::replace(&mut self.collector, Collector::new(tool)).into_frame()
    }
}

// ---------------------------------------------------------------------
// Variable-input runner
// ---------------------------------------------------------------------

/// The paper's `VariableInputRunner`: redefines `experiment_loop` to add
/// an input-size dimension around the thread loop.
pub struct VariableInputRunner {
    inner: SuiteRunner,
    sizes: Vec<InputSize>,
}

impl VariableInputRunner {
    /// Creates a variable-input sweep over the given sizes.
    pub fn new(suite: Suite, config: &ExperimentConfig, sizes: Vec<InputSize>) -> Self {
        VariableInputRunner { inner: SuiteRunner::new(suite, config), sizes }
    }
}

impl Runner for VariableInputRunner {
    fn experiment_name(&self) -> &str {
        self.inner.experiment_name()
    }

    fn experiment_setup(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        self.inner.experiment_setup(ctx)
    }

    fn benchmarks(&self, ctx: &RunContext<'_>) -> Vec<String> {
        self.inner.benchmarks(ctx)
    }

    /// The redefined loop: types → benchmarks → **input sizes** → threads
    /// → repetitions, through the same pipeline (and the same
    /// retry/quarantine resilience) as [`SuiteRunner`].
    fn experiment_loop(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        self.inner.matrix_loop(ctx, Some(self.sizes.clone()))
    }

    fn take_frame(&mut self) -> DataFrame {
        self.inner.take_frame()
    }
}

// ---------------------------------------------------------------------
// Server runner
// ---------------------------------------------------------------------

/// Throughput-latency experiments for the real-world applications
/// (the paper's Nginx study, §IV-B).
pub struct ServerRunner {
    kind: ServerKind,
    sweep_points: usize,
    frame: DataFrame,
}

impl ServerRunner {
    /// Creates a server runner.
    pub fn new(kind: ServerKind) -> Self {
        ServerRunner {
            kind,
            sweep_points: 10,
            frame: DataFrame::new(vec![
                "benchmark",
                "type",
                "offered",
                "throughput",
                "mean_ms",
                "p50_ms",
                "p95_ms",
                "p99_ms",
                "saturated",
            ]),
        }
    }

    /// Sets the number of load points per curve.
    pub fn with_sweep_points(mut self, points: usize) -> Self {
        self.sweep_points = points.max(2);
        self
    }
}

impl Runner for ServerRunner {
    fn experiment_name(&self) -> &str {
        self.kind.name()
    }

    fn benchmarks(&self, _ctx: &RunContext<'_>) -> Vec<String> {
        vec![self.kind.name().to_string()]
    }

    /// Replaces the Fig 4 loop: build each server variant, then sweep
    /// offered load.
    fn experiment_loop(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        let types = ctx.config.build_types.clone();
        for ty in &types {
            let opts: BuildOptions = ctx.build.makefiles().build_options(ty, ctx.config.debug)?;
            let build =
                ServerBuild::compile(self.kind, &opts).map_err(|source| FexError::Build {
                    benchmark: self.kind.name().to_string(),
                    build_type: ty.clone(),
                    source,
                })?;
            ctx.log(format!(
                "{} [{ty}]: calibrated service time {} ns/request",
                self.kind.name(),
                build.service_ns()
            ));
            let workload = Workload { seed: ctx.config.seed, ..Workload::default() };
            let sim = Simulation::new(&build, workload);
            for point in sim.sweep(self.sweep_points) {
                let m = &point.metrics;
                self.frame.push(vec![
                    self.kind.name().into(),
                    ty.as_str().into(),
                    m.offered.into(),
                    m.throughput.into(),
                    m.mean_latency_ms.into(),
                    m.p50_ms.into(),
                    m.p95_ms.into(),
                    m.p99_ms.into(),
                    (point.saturated as i64).into(),
                ]);
            }
        }
        Ok(())
    }

    fn take_frame(&mut self) -> DataFrame {
        std::mem::take(&mut self.frame)
    }
}

// ---------------------------------------------------------------------
// Security runner
// ---------------------------------------------------------------------

/// The RIPE security experiment (§IV-C, Table II).
pub struct SecurityRunner {
    config: TestbedConfig,
    frame: DataFrame,
}

impl SecurityRunner {
    /// Creates the runner with the paper's insecure machine configuration.
    pub fn new() -> Self {
        SecurityRunner {
            config: TestbedConfig::paper(),
            frame: DataFrame::new(vec!["type", "total", "successful", "failed", "detected"]),
        }
    }

    /// Uses a custom machine configuration (mitigation studies).
    pub fn with_config(mut self, config: TestbedConfig) -> Self {
        self.config = config;
        self
    }
}

impl Default for SecurityRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner for SecurityRunner {
    fn experiment_name(&self) -> &str {
        "ripe"
    }

    fn benchmarks(&self, _ctx: &RunContext<'_>) -> Vec<String> {
        vec!["ripe".to_string()]
    }

    fn experiment_loop(&mut self, ctx: &mut RunContext<'_>) -> Result<()> {
        let types = ctx.config.build_types.clone();
        for ty in &types {
            let opts = ctx.build.makefiles().build_options(ty, ctx.config.debug)?;
            ctx.log(format!("ripe testbed for `{ty}` ({} attacks)", fex_ripe::all_attacks().len()));
            let summary = run_testbed(&opts, &self.config);
            ctx.log(format!(
                "  {}: {} successful / {} failed",
                ty, summary.successful, summary.failed
            ));
            self.frame.push(vec![
                ty.as_str().into(),
                (summary.total as i64).into(),
                (summary.successful as i64).into(),
                (summary.failed as i64).into(),
                (summary.detected as i64).into(),
            ]);
        }
        Ok(())
    }

    fn take_frame(&mut self) -> DataFrame {
        std::mem::take(&mut self.frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::MakefileSet;
    use fex_vm::MeasureTool;

    fn ctx_parts() -> (ExperimentConfig, BuildSystem, Vec<String>) {
        let config = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native"])
            .input(InputSize::Test)
            .repetitions(2)
            .tool(MeasureTool::PerfStat);
        (config, BuildSystem::new(MakefileSet::standard()), Vec::new())
    }

    #[test]
    fn suite_runner_walks_the_fig4_loop() {
        let (config, mut build, mut log) = ctx_parts();
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();
        // 4 benchmarks × 2 types × 1 thread × 2 reps.
        assert_eq!(df.len(), 16);
        assert_eq!(df.distinct("type").unwrap().len(), 2);
        assert_eq!(df.distinct("benchmark").unwrap().len(), 4);
    }

    #[test]
    fn benchmark_filter_limits_the_loop() {
        let (config, mut build, mut log) = ctx_parts();
        let config = config.benchmark("arrayread");
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();
        assert_eq!(df.distinct("benchmark").unwrap(), vec!["arrayread"]);
        assert_eq!(df.len(), 4);
    }

    #[test]
    fn unknown_benchmark_is_reported() {
        let (config, mut build, mut log) = ctx_parts();
        let config = config.benchmark("does_not_exist");
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        assert!(matches!(
            runner.run(&mut ctx),
            Err(FexError::UnknownName { kind: "benchmark", .. })
        ));
    }

    #[test]
    fn proprietary_suites_refuse_to_run() {
        let (config, mut build, mut log) = ctx_parts();
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::spec_cpu2006(), &config);
        assert!(matches!(runner.run(&mut ctx), Err(FexError::Config(_))));
    }

    #[test]
    fn variable_input_runner_adds_the_size_dimension() {
        let (config, mut build, mut log) = ctx_parts();
        let config = config.benchmark("arrayread").types(vec!["gcc_native"]);
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = VariableInputRunner::new(
            fex_suites::micro(),
            &config,
            vec![InputSize::Test, InputSize::Small],
        );
        let df = runner.run(&mut ctx).unwrap();
        assert_eq!(df.distinct("input").unwrap(), vec!["test", "small"]);
        assert_eq!(df.len(), 4); // 2 sizes × 2 reps
    }

    #[test]
    fn dry_runs_do_not_pollute_the_frame() {
        let (config, mut build, mut log) = ctx_parts();
        let config = config.benchmark("histogram").types(vec!["gcc_native"]).repetitions(1);
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::phoenix(), &config);
        let df = runner.run(&mut ctx).unwrap();
        // Dry run happened (logged) but only the measured rep is recorded.
        assert_eq!(df.len(), 1);
        assert!(log.iter().any(|l| l.contains("dry run")));
    }

    #[test]
    fn persistent_trap_quarantines_only_that_benchmark() {
        use crate::config::FaultInjection;
        use fex_vm::{FaultKind, FaultPlan};

        let (config, mut build, mut log) = ctx_parts();
        let config = config.fault(FaultInjection::for_benchmark(
            "ptrchase",
            FaultPlan::persistent(FaultKind::Trap),
        ));
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();

        // Partial frame: the other 3 benchmarks × 2 types × 2 reps.
        assert_eq!(df.len(), 12);
        let benches = df.distinct("benchmark").unwrap();
        assert_eq!(benches.len(), 3);
        assert!(!benches.contains(&"ptrchase".to_string()));

        // The failure report names the quarantined benchmark with its
        // build type and the injected trap.
        let failures = &ctx.failures;
        assert_eq!(failures.quarantined_benchmarks(), vec!["ptrchase"]);
        let rec = &failures.records[0];
        assert_eq!(rec.outcome, RunOutcome::Quarantined);
        assert_eq!(rec.build_type, "gcc_native");
        assert_eq!(rec.attempts, 3, "1 attempt + 2 retries by default");
        assert!(rec.error.contains("injected fault"), "{}", rec.error);
        assert!(failures.backoff_cycles > 0);

        // The second build type skips the quarantined benchmark outright.
        assert!(log.iter().any(|l| l.contains("skipping quarantined `ptrchase` [clang_native]")));
    }

    #[test]
    fn transient_faults_recover_without_losing_runs() {
        use crate::config::FaultInjection;
        use crate::resilience::RunPolicy;
        use fex_vm::{FaultKind, FaultPlan};

        // Each unit rolls its 50% transient trap with its own derived
        // seed; a generous retry budget makes exhausting all attempts
        // (probability 2^-11 per unit at seed 4) practically impossible,
        // so every troubled run recovers.
        let (config, mut build, mut log) = ctx_parts();
        let config = config
            .fault(FaultInjection::everywhere(FaultPlan::spurious(0.5, FaultKind::Trap, 4)))
            .resilience(RunPolicy::default().retries(10));
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();

        // Nothing is lost: the frame is complete.
        assert_eq!(df.len(), 16);
        let failures = &ctx.failures;
        assert!(failures.quarantined_benchmarks().is_empty());
        assert!(!failures.records.is_empty());
        assert!(failures.records.iter().all(|r| r.outcome == RunOutcome::Recovered));
        assert!(failures.records.iter().all(|r| r.attempts >= 2));
        assert!(failures.retry_rate() > 0.0);
    }

    #[test]
    fn run_budget_turns_hangs_into_fast_quarantines() {
        use crate::config::FaultInjection;
        use crate::resilience::RunPolicy;
        use fex_vm::{FaultKind, FaultPlan};

        let (config, mut build, mut log) = ctx_parts();
        let config = config
            .types(vec!["gcc_native"])
            .benchmark("branches")
            .fault(FaultInjection::for_benchmark(
                "branches",
                FaultPlan::persistent(FaultKind::Hang),
            ))
            .resilience(RunPolicy::default().budget(50_000));
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();

        // The only benchmark hung → empty frame, but no abort.
        assert_eq!(df.len(), 0);
        assert_eq!(ctx.failures.quarantined_benchmarks(), vec!["branches"]);
        let rec = &ctx.failures.records[0];
        assert!(rec.error.contains("instruction limit of 50000"), "{}", rec.error);
    }

    #[test]
    fn disabled_injection_reports_clean_and_full_results() {
        use crate::config::FaultInjection;
        use fex_vm::FaultPlan;

        let (config, mut build, mut log) = ctx_parts();
        let config = config.fault(FaultInjection::everywhere(FaultPlan::none()));
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();
        assert_eq!(df.len(), 16);
        assert!(ctx.failures.is_clean());
        assert_eq!(ctx.failures.retry_rate(), 0.0);
    }

    #[test]
    fn variable_input_runner_quarantines_across_sizes() {
        use crate::config::FaultInjection;
        use fex_vm::{FaultKind, FaultPlan};

        let (config, mut build, mut log) = ctx_parts();
        let config = config.types(vec!["gcc_native"]).fault(FaultInjection::for_benchmark(
            "arrayread",
            FaultPlan::persistent(FaultKind::Trap),
        ));
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = VariableInputRunner::new(
            fex_suites::micro(),
            &config,
            vec![InputSize::Test, InputSize::Small],
        );
        let df = runner.run(&mut ctx).unwrap();
        // 3 surviving benchmarks × 2 sizes × 2 reps.
        assert_eq!(df.len(), 12);
        assert!(!df.distinct("benchmark").unwrap().contains(&"arrayread".to_string()));
        assert_eq!(ctx.failures.quarantined_benchmarks(), vec!["arrayread"]);
    }

    fn run_micro_with_jobs(config: &ExperimentConfig) -> (String, String, Vec<String>) {
        let mut build = BuildSystem::new(MakefileSet::standard());
        let mut log = Vec::new();
        let mut ctx = RunContext::new(config, &mut build, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), config);
        let df = runner.run(&mut ctx).unwrap();
        (df.to_csv(), ctx.failures.to_csv(), log)
    }

    #[test]
    fn parallel_loop_matches_sequential_byte_for_byte() {
        let (config, _, _) = ctx_parts();
        let config = config.threads(vec![1, 2]);
        let (seq_csv, seq_failures, _) = run_micro_with_jobs(&config.clone().jobs(1));
        let (par_csv, par_failures, _) = run_micro_with_jobs(&config.jobs(8));
        assert_eq!(seq_csv, par_csv);
        assert_eq!(seq_failures, par_failures);
    }

    #[test]
    fn parallel_loop_quarantines_at_merge_identically() {
        use crate::config::FaultInjection;
        use fex_vm::{FaultKind, FaultPlan};

        let (config, _, _) = ctx_parts();
        let config = config.fault(FaultInjection::for_benchmark(
            "ptrchase",
            FaultPlan::persistent(FaultKind::Trap),
        ));
        let (seq_csv, seq_failures, seq_log) = run_micro_with_jobs(&config.clone().jobs(1));
        let (par_csv, par_failures, par_log) = run_micro_with_jobs(&config.jobs(4));
        assert_eq!(seq_csv, par_csv);
        assert_eq!(seq_failures, par_failures);
        assert!(par_csv.len() > 100, "surviving benchmarks still produce rows");
        // Both loops announce the merge-time skip of the second type.
        for log in [&seq_log, &par_log] {
            assert!(log
                .iter()
                .any(|l| l.contains("skipping quarantined `ptrchase` [clang_native]")));
        }
    }

    #[test]
    fn adaptive_repetitions_match_across_schedulers() {
        let (config, _, _) = ctx_parts();
        let config = config.threads(vec![1, 2]).adaptive_repetitions(2, 6, 0.05);
        let (seq_csv, seq_failures, _) = run_micro_with_jobs(&config.clone().jobs(1));
        let (par_csv, par_failures, _) = run_micro_with_jobs(&config.jobs(8));
        assert_eq!(seq_csv, par_csv);
        assert_eq!(seq_failures, par_failures);
    }

    #[test]
    fn adaptive_repetitions_respect_floor_and_budget() {
        let (config, mut build, mut log) = ctx_parts();
        let config = config.types(vec!["gcc_native"]).adaptive_repetitions(2, 4, 0.25);
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        let mut runner = SuiteRunner::new(fex_suites::micro(), &config);
        let df = runner.run(&mut ctx).unwrap();
        for bench in df.distinct("benchmark").unwrap() {
            let n = df.filter_eq("benchmark", &bench).unwrap().len();
            assert!((2..=4).contains(&n), "`{bench}` ran {n} reps outside the [2, 4] policy");
        }
    }

    #[test]
    fn adaptive_rep_counts_replay_the_controller() {
        use crate::config::FaultInjection;
        use crate::resilience::RunPolicy;
        use fex_vm::{FaultKind, FaultPlan};

        // Jobs 1 and jobs 8 share plan and merge, so they cannot check
        // each other's rep counts. The reference is the controller
        // itself, replayed over each cell's reps in order: it must want
        // every rep the run recorded and none after them. Samples do not
        // vary across reps here, so failed reps — which consume budget
        // but add no sample — are what makes cells run past the floor.
        let (config, _, _) = ctx_parts();
        let config = config
            .threads(vec![1, 2])
            .adaptive_repetitions(2, 6, 0.05)
            .fault(FaultInjection::everywhere(FaultPlan::spurious(0.3, FaultKind::Trap, 7)))
            .resilience(RunPolicy::no_retries().threshold(usize::MAX));
        let reps = config.repetitions;
        for jobs in [1, 8] {
            let config = config.clone().jobs(jobs);
            let mut build = BuildSystem::new(MakefileSet::standard());
            let mut log = Vec::new();
            let mut ctx = RunContext::new(&config, &mut build, &mut log);
            let df = SuiteRunner::new(fex_suites::micro(), &config).run(&mut ctx).unwrap();
            // Per (benchmark, type, threads) cell: rep → sample, `None`
            // for a failed rep.
            type Cell = (String, String, usize);
            let mut cells: std::collections::BTreeMap<Cell, Vec<(usize, Option<f64>)>> =
                Default::default();
            let [b, ty, m, rep, time] =
                ["benchmark", "type", "threads", "rep", "time"].map(|c| df.col(c).unwrap());
            for row in df.iter() {
                let num = |i: usize| row[i].as_num().unwrap();
                let cell = (row[b].to_cell_string(), row[ty].to_cell_string(), num(m) as usize);
                cells.entry(cell).or_default().push((num(rep) as usize, Some(num(time))));
            }
            for r in &ctx.failures.records {
                assert_eq!(r.outcome, RunOutcome::Failed);
                let cell = (r.benchmark.clone(), r.build_type.clone(), r.threads);
                cells.entry(cell).or_default().push((r.rep, None));
            }
            assert_eq!(cells.len(), 16, "4 benchmarks × 2 types × 2 thread counts");
            let mut past_floor = 0;
            for (cell, mut trail) in cells {
                trail.sort_by_key(|(rep, _)| *rep);
                let mut samples = Vec::new();
                for (k, (rep, sample)) in trail.iter().enumerate() {
                    assert_eq!(*rep, k, "{cell:?} has a gap before rep {rep}");
                    assert!(reps.wants_more(k, &samples), "{cell:?} ran unwanted rep {k}");
                    samples.extend(*sample);
                }
                let n = trail.len();
                assert!(!reps.wants_more(n, &samples), "{cell:?} stopped early at {n} reps");
                past_floor += usize::from(n > 2);
            }
            assert!(past_floor > 0, "jobs {jobs}: no cell ran past the floor");
        }
    }

    #[test]
    fn adaptive_repetitions_match_across_schedulers_under_faults() {
        use crate::config::FaultInjection;
        use fex_vm::{FaultKind, FaultPlan};

        let (config, _, _) = ctx_parts();
        let config = config.adaptive_repetitions(2, 5, 0.10).fault(FaultInjection::for_benchmark(
            "ptrchase",
            FaultPlan::persistent(FaultKind::Trap),
        ));
        let (seq_csv, seq_failures, _) = run_micro_with_jobs(&config.clone().jobs(1));
        let (par_csv, par_failures, _) = run_micro_with_jobs(&config.jobs(4));
        assert_eq!(seq_csv, par_csv);
        assert_eq!(seq_failures, par_failures);
    }

    #[test]
    fn parallel_variable_input_runner_matches_sequential() {
        let (config, _, _) = ctx_parts();
        let config = config.types(vec!["gcc_native"]);
        let mut outputs = Vec::new();
        for jobs in [1, 8] {
            let config = config.clone().jobs(jobs);
            let mut build = BuildSystem::new(MakefileSet::standard());
            let mut log = Vec::new();
            let mut ctx = RunContext::new(&config, &mut build, &mut log);
            let mut runner = VariableInputRunner::new(
                fex_suites::micro(),
                &config,
                vec![InputSize::Test, InputSize::Small],
            );
            let df = runner.run(&mut ctx).unwrap();
            assert_eq!(df.distinct("input").unwrap(), vec!["test", "small"]);
            outputs.push((df.to_csv(), ctx.failures.to_csv()));
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn security_runner_emits_table_two_rows() {
        let (config, mut build, mut log) = ctx_parts();
        let mut ctx = RunContext::new(&config, &mut build, &mut log);
        // Keep it cheap in unit tests: both types still run the full
        // matrix, which takes a few seconds in debug.
        let mut runner = SecurityRunner::new();
        let df = runner.run(&mut ctx).unwrap();
        assert_eq!(df.len(), 2);
        let gcc = df.filter_eq("type", "gcc_native").unwrap();
        let row = gcc.iter().next().unwrap();
        let successful = row[2].as_num().unwrap();
        let failed = row[3].as_num().unwrap();
        assert!(successful > 0.0);
        assert!(failed > successful, "most attacks must fail");
    }
}
