//! The `Fex` orchestrator: the paper's `fex.py` entry point.
//!
//! Owns the container, the build system and the results store, and
//! dispatches the `install` / `run` / `plot` / `list` / `report` actions.
//! All experiments execute "inside" the simulated container; results are
//! written to its filesystem as CSV (`/fex/results/<name>.csv`) along with
//! the experiment log and the environment report (§VI: "FEX outputs
//! various environment details, so that the complete experimental setup is
//! stored in the log file").

use std::collections::HashMap;

use fex_container::{Container, Image, PackageRegistry};
use fex_netsim::ServerKind;
use fex_suites::InputSize;

use crate::build::{BuildSystem, MakefileSet};
use crate::collect::DataFrame;
use crate::config::ExperimentConfig;
use crate::error::{FexError, Result};
use crate::install::{required_scripts, run_script};
use crate::journal::{JournalEvent, Metrics, JOURNAL_VERSION};
use crate::plot::{
    barplot_from_frame, lineplot_from_frame, normalize_against, Plot, PlotKind, Series,
};
use crate::registry::{experiment, ExperimentKind};
use crate::resilience::FailureReport;
use crate::runner::{
    RunContext, Runner, SecurityRunner, ServerRunner, SuiteRunner, VariableInputRunner,
};

/// Plot requests (`fex plot -n <name> -t <kind>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlotRequest {
    /// Performance-overhead barplot, normalised against the first build
    /// type (Fig 6).
    Perf,
    /// Throughput-latency scatterline (Fig 7).
    ThroughputLatency,
    /// Runtime vs thread count lineplot.
    Scaling,
    /// Cache statistics stacked-grouped barplot.
    CacheStats,
    /// Memory overhead (max RSS) barplot.
    Memory,
}

impl PlotRequest {
    /// Parses the CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "perf" => PlotRequest::Perf,
            "tlat" | "throughput-latency" => PlotRequest::ThroughputLatency,
            "scaling" => PlotRequest::Scaling,
            "cache" => PlotRequest::CacheStats,
            "mem" | "memory" => PlotRequest::Memory,
            _ => return None,
        })
    }
}

/// The framework instance.
pub struct Fex {
    container: Container,
    registry: PackageRegistry,
    build: BuildSystem,
    results: HashMap<String, DataFrame>,
    failure_reports: HashMap<String, FailureReport>,
    log: Vec<String>,
}

impl Fex {
    /// Boots the framework: starts a container from the shipping image.
    pub fn new() -> Self {
        Fex {
            container: Container::start(&Image::fex_shipping_image()),
            registry: PackageRegistry::standard(),
            build: BuildSystem::new(MakefileSet::standard()),
            results: HashMap::new(),
            failure_reports: HashMap::new(),
            log: Vec::new(),
        }
    }

    /// The container (environment inspection).
    pub fn container(&self) -> &Container {
        &self.container
    }

    /// The build system (for registering custom makefile layers —
    /// extension point).
    pub fn build_system_mut(&mut self) -> &mut BuildSystem {
        &mut self.build
    }

    /// The log of the latest experiment: every line since its run began
    /// (each run starts an empty log), plus any logged since it ended.
    /// Before the first run, the lines since [`Fex::new`].
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// `fex install -n <name>`.
    ///
    /// # Errors
    ///
    /// Unknown scripts, unknown packages and version conflicts.
    pub fn install(&mut self, script: &str) -> Result<()> {
        run_script(&mut self.container, &self.registry, script)?;
        self.log.push(format!("installed `{script}`"));
        Ok(())
    }

    /// `fex run` — executes an experiment and stores its frame (and CSV in
    /// the container).
    ///
    /// # Errors
    ///
    /// Configuration errors, missing installations, build failures and
    /// run faults.
    pub fn run(&mut self, config: &ExperimentConfig) -> Result<&DataFrame> {
        config.validate()?;
        let entry = experiment(&config.name).ok_or_else(|| FexError::UnknownName {
            kind: "experiment",
            name: config.name.clone(),
        })?;
        // Setup stage must have happened: compilers and inputs installed.
        for script in required_scripts(&config.name, &config.build_types) {
            let satisfied = crate::install::script(script)
                .map(|s| s.packages.iter().all(|(p, v)| self.container.installed(p, v)))
                .unwrap_or(false);
            if !satisfied {
                return Err(FexError::Config(format!(
                    "experiment `{}` needs `fex install -n {script}` first",
                    config.name
                )));
            }
        }
        let runner: Box<dyn Runner> = match entry.kind {
            ExperimentKind::SuitePerformance => {
                Box::new(SuiteRunner::new(suite_by_name(&config.name)?, config))
            }
            ExperimentKind::VariableInput => {
                let base = config.name.trim_end_matches("_var");
                Box::new(VariableInputRunner::new(
                    suite_by_name(base)?,
                    config,
                    vec![InputSize::Test, InputSize::Small, InputSize::Native],
                ))
            }
            ExperimentKind::Server => Box::new(ServerRunner::new(server_kind(&config.name)?)),
            ExperimentKind::Security => Box::new(SecurityRunner::new()),
        };
        self.run_pipeline(config, runner)
    }

    /// Runs an ad-hoc [`Suite`](fex_suites::Suite) through the exact
    /// pipeline `fex run` uses — build, run, collect, journal, store —
    /// without requiring the suite to be in the experiment registry or
    /// backed by install scripts (the build system needs no container
    /// packages). This is the entry point `fex fuzz` pushes generated
    /// scenarios through, so fuzzed runs exercise the same code paths as
    /// ordinary experiments.
    ///
    /// # Errors
    ///
    /// Configuration errors, build failures and run faults, exactly as
    /// [`Fex::run`].
    pub fn run_suite(
        &mut self,
        config: &ExperimentConfig,
        suite: fex_suites::Suite,
    ) -> Result<&DataFrame> {
        config.validate()?;
        let runner: Box<dyn Runner> = Box::new(SuiteRunner::new(suite, config));
        self.run_pipeline(config, runner)
    }

    /// The shared tail of every experiment: environment recording, the
    /// journalled run phase, collection, store archival and container
    /// filesystem writes.
    fn run_pipeline(
        &mut self,
        config: &ExperimentConfig,
        mut runner: Box<dyn Runner>,
    ) -> Result<&DataFrame> {
        // Each experiment gets a log of its own, so `<name>.log` holds
        // this experiment's lines and the environment report.
        self.log.clear();
        // Record environment details in the log (reproducibility, §VI).
        for ty in &config.build_types {
            let env = crate::env::environment_for(ty);
            self.container.set_env("BUILD_TYPE", ty.clone());
            for (k, v) in env.spec().resolve(config.debug) {
                self.container.set_env(k, v);
            }
        }
        self.log.push(format!("environment digest: {}", self.container.environment_digest()));

        let experiment_started = std::time::Instant::now();
        let (_, decodes_before) = self.build.work_performed();
        let (frame, failures, mut journal, graph) = {
            let mut ctx = RunContext::new(config, &mut self.build, &mut self.log);
            // Attach the artifact graph when a lab directory is active
            // and `--no-graph` was not given: run units whose whole
            // derivation is unchanged are served from the node cache.
            if config.graph {
                if let Some(dir) = &config.lab {
                    ctx.graph = Some(crate::graph::ArtifactGraph::open(dir)?);
                }
            }
            ctx.journal.emit(JournalEvent::ExperimentStart {
                name: config.name.clone(),
                jobs: config.effective_jobs(),
                seed: config.seed,
                version: JOURNAL_VERSION,
            });
            ctx.journal.phase_start("run");
            let frame = runner.run(&mut ctx)?;
            ctx.journal.phase_end("run");
            (
                frame,
                std::mem::take(&mut ctx.failures),
                std::mem::take(&mut ctx.journal),
                ctx.graph.take(),
            )
        };
        if let Some(g) = &graph {
            for warning in g.warnings() {
                self.log.push(format!("artifact graph: {warning}"));
            }
            let lookups = g.hits() + g.misses();
            if lookups > 0 {
                self.log.push(format!(
                    "artifact graph: {} hits / {} misses ({:.1}% unit hit rate)",
                    g.hits(),
                    g.misses(),
                    100.0 * g.hits() as f64 / lookups as f64
                ));
            }
        }
        if !failures.is_clean() {
            self.log.push(failures.summary());
        }
        if journal.enabled() {
            // Decoded-artifact cache accounting for the whole experiment:
            // decodes happened at build time; every successful execution
            // was served a pre-decoded program.
            let (_, decodes_after) = self.build.work_performed();
            let served = journal
                .events()
                .iter()
                .filter(|e| matches!(e, JournalEvent::VmExec { .. }))
                .count();
            journal.emit(JournalEvent::DecodeCache {
                decodes: decodes_after - decodes_before,
                served,
            });
        }
        // Persist the CSV and the logs into the container's filesystem,
        // like the paper's collect stage. The failure report rides along
        // (header-only when the run was clean) so partial results are
        // always accompanied by the account of what is missing and why.
        journal.phase_start("collect");
        let results_csv = frame.to_csv();
        let failures_csv = failures.to_csv();
        journal.phase_end("collect");
        journal.emit(JournalEvent::ExperimentEnd {
            rows: frame.len(),
            failure_records: failures.records.len(),
            wall_ns: experiment_started.elapsed().as_nanos() as u64,
        });
        // Archive into the lab store, if requested. The store-write event
        // is emitted before the journal is serialized so the recorded
        // stream (in the container and in the store) accounts for the
        // archive itself.
        let lab_store = match &config.lab {
            Some(dir) => Some(crate::lab::RunStore::open(dir)?),
            None => None,
        };
        if lab_store.is_some() && journal.enabled() {
            let art = crate::lab::RunArtifacts {
                results_csv: &results_csv,
                failures_csv: &failures_csv,
                metrics_json: None,
                journal_digest: None,
            };
            journal.emit(JournalEvent::StoreWrite {
                experiment: config.name.clone(),
                run_id: crate::lab::RunStore::run_id(config, &art),
            });
        }
        let (journal_jsonl, metrics_json) = if journal.enabled() {
            let metrics = Metrics::from_journal(journal.events());
            (Some(journal.to_jsonl()), Some(metrics.to_json()))
        } else {
            (None, None)
        };
        if let Some(store) = &lab_store {
            let digest = journal_jsonl
                .as_deref()
                .map(|j| fex_container::digest_bytes(j.as_bytes()).to_string());
            let art = crate::lab::RunArtifacts {
                results_csv: &results_csv,
                failures_csv: &failures_csv,
                metrics_json: metrics_json.as_deref(),
                journal_digest: digest.as_deref(),
            };
            let entry = store.save(config, &art)?;
            self.log.push(format!("stored run {} in `{}`", entry.run_id, store.root().display()));
        }
        self.container
            .fs_mut()
            .write(format!("/fex/results/{}.csv", config.name), results_csv.into_bytes());
        self.container
            .fs_mut()
            .write(format!("/fex/results/{}.failures.csv", config.name), failures_csv.into_bytes());
        let log_blob =
            (self.log.join("\n") + "\n" + &self.container.environment_report()).into_bytes();
        self.container.fs_mut().write(format!("/fex/results/{}.log", config.name), log_blob);
        if let (Some(jsonl), Some(metrics)) = (journal_jsonl, metrics_json) {
            // The journal and its metrics roll-up land next to the
            // results CSV; both are derived observations and never feed
            // back into the CSVs.
            self.container
                .fs_mut()
                .write(format!("/fex/results/{}.journal.jsonl", config.name), jsonl.into_bytes());
            self.container
                .fs_mut()
                .write(format!("/fex/results/{}.metrics.json", config.name), metrics.into_bytes());
        }
        self.results.insert(config.name.clone(), frame);
        self.failure_reports.insert(config.name.clone(), failures);
        Ok(&self.results[&config.name])
    }

    /// A stored result frame.
    pub fn result(&self, name: &str) -> Option<&DataFrame> {
        self.results.get(name)
    }

    /// The CSV stored in the container for an experiment.
    pub fn result_csv(&self, name: &str) -> Option<String> {
        self.container
            .fs()
            .read(&format!("/fex/results/{name}.csv"))
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// The failure report of an experiment's last run.
    pub fn failure_report(&self, name: &str) -> Option<&FailureReport> {
        self.failure_reports.get(name)
    }

    /// The failure-report CSV stored in the container for an experiment
    /// (`/fex/results/<name>.failures.csv`).
    pub fn failure_csv(&self, name: &str) -> Option<String> {
        self.container
            .fs()
            .read(&format!("/fex/results/{name}.failures.csv"))
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// The run journal stored in the container for an experiment
    /// (`/fex/results/<name>.journal.jsonl`); `None` when the run used
    /// `--no-journal` (or never happened).
    pub fn journal_jsonl(&self, name: &str) -> Option<String> {
        self.container
            .fs()
            .read(&format!("/fex/results/{name}.journal.jsonl"))
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// The metrics roll-up stored in the container for an experiment
    /// (`/fex/results/<name>.metrics.json`).
    pub fn metrics_json(&self, name: &str) -> Option<String> {
        self.container
            .fs()
            .read(&format!("/fex/results/{name}.metrics.json"))
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// `fex plot -n <name> -t <kind>` — builds the requested plot from a
    /// stored result.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the experiment has not been run or the
    /// frame lacks the needed columns.
    pub fn plot(&self, name: &str, request: PlotRequest) -> Result<Plot> {
        let df = self.results.get(name).ok_or_else(|| {
            FexError::Data(format!("experiment `{name}` has no results; run it first"))
        })?;
        match request {
            PlotRequest::Perf => {
                let baseline = df
                    .distinct("type")?
                    .first()
                    .cloned()
                    .ok_or_else(|| FexError::Data("no build types in results".into()))?;
                let norm = normalize_against(df, "benchmark", "type", "time", &baseline)?;
                let mut plot = barplot_from_frame(
                    &norm,
                    "benchmark",
                    "type",
                    "normalized_time",
                    &format!("{name}: normalized runtime (w.r.t. {baseline})"),
                )?;
                plot.ylabel = format!("Normalized runtime (w.r.t. {baseline})");
                plot.hline = Some(1.0);
                Ok(plot)
            }
            PlotRequest::ThroughputLatency => {
                let mut plot =
                    Plot::new(PlotKind::ScatterLine, format!("{name}: throughput vs latency"));
                plot.xlabel = "Throughput (msg/s)".into();
                plot.ylabel = "Latency (ms)".into();
                for ty in df.distinct("type")? {
                    let sub = df.filter_eq("type", &ty)?;
                    let ti = sub.col("throughput")?;
                    let li = sub.col("mean_ms")?;
                    let pts: Vec<(f64, f64)> = sub
                        .iter()
                        .map(|r| (r[ti].as_num().unwrap_or(0.0), r[li].as_num().unwrap_or(0.0)))
                        .collect();
                    plot.series.push(Series::line(ty, pts));
                }
                Ok(plot)
            }
            PlotRequest::Scaling => {
                lineplot_from_frame(df, "threads", "type", "time", &format!("{name}: scaling"))
            }
            PlotRequest::CacheStats => {
                // Stacked-grouped: stack = miss level, group = build type.
                let mut plot = Plot::new(
                    PlotKind::StackedGroupedBar,
                    format!("{name}: cache misses by level"),
                );
                plot.categories = df.distinct("benchmark")?;
                plot.ylabel = "misses".into();
                for ty in df.distinct("type")? {
                    for level in ["l1_misses", "l2_misses", "llc_misses"] {
                        let sub = df.filter_eq("type", &ty)?;
                        let agg =
                            sub.group_agg(&["benchmark"], level, crate::collect::stats::mean)?;
                        let mut values = Vec::new();
                        for cat in &plot.categories {
                            let v = agg
                                .filter_eq("benchmark", cat)?
                                .iter()
                                .next()
                                .and_then(|r| r[1].as_num())
                                .unwrap_or(0.0);
                            values.push(v);
                        }
                        plot.series.push(Series {
                            name: format!("{ty}:{level}"),
                            values,
                            xs: None,
                            stack: Some(ty.clone()),
                            whiskers: None,
                        });
                    }
                }
                Ok(plot)
            }
            PlotRequest::Memory => {
                let baseline = df
                    .distinct("type")?
                    .first()
                    .cloned()
                    .ok_or_else(|| FexError::Data("no build types in results".into()))?;
                let norm = normalize_against(df, "benchmark", "type", "maxrss_bytes", &baseline)?;
                let mut plot = barplot_from_frame(
                    &norm,
                    "benchmark",
                    "type",
                    "normalized_maxrss_bytes",
                    &format!("{name}: normalized memory (w.r.t. {baseline})"),
                )?;
                plot.hline = Some(1.0);
                Ok(plot)
            }
        }
    }

    /// Saves an experiment's current results as the EDD baseline (stored
    /// in the container under `/fex/baselines/`).
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the experiment has not been run.
    pub fn save_baseline(&mut self, name: &str) -> Result<()> {
        let frame = self
            .results
            .get(name)
            .ok_or_else(|| FexError::Data(format!("no results for `{name}`; run it first")))?;
        let csv = frame.to_csv();
        self.container.fs_mut().write(format!("/fex/baselines/{name}.csv"), csv.into_bytes());
        self.log.push(format!("saved EDD baseline for `{name}`"));
        Ok(())
    }

    /// Evaluation-Driven Development check (§VI future work): compares
    /// the experiment's current results against its stored baseline.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when no baseline or no current results exist.
    pub fn edd_check(
        &self,
        name: &str,
        gates: &[crate::edd::Gate],
    ) -> Result<crate::edd::EddReport> {
        let current = self
            .results
            .get(name)
            .ok_or_else(|| FexError::Data(format!("no results for `{name}`; run it first")))?;
        let baseline_csv =
            self.container.fs().read(&format!("/fex/baselines/{name}.csv")).ok_or_else(|| {
                FexError::Data(format!("no baseline for `{name}`; save one first"))
            })?;
        let baseline = DataFrame::from_csv(&String::from_utf8_lossy(baseline_csv))?;
        crate::edd::check(&baseline, current, &["benchmark", "type"], gates)
    }

    /// Checks the flakiness of an experiment's last run against a
    /// [`FlakinessGate`](crate::edd::FlakinessGate): a CI companion to
    /// [`edd_check`](Fex::edd_check) that fails when results were only
    /// obtained through excessive retrying or benchmark quarantine.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the experiment has not been run.
    pub fn edd_flakiness_check(
        &self,
        name: &str,
        gate: &crate::edd::FlakinessGate,
    ) -> Result<crate::edd::EddReport> {
        let report = self
            .failure_reports
            .get(name)
            .ok_or_else(|| FexError::Data(format!("no results for `{name}`; run it first")))?;
        Ok(crate::edd::check_flakiness(report, gate))
    }

    /// `fex test -n <suite>` (§III-A): short runs with tiny inputs that
    /// check makefiles, sources and scripts, cross-validating the exit
    /// checksum of every benchmark across all standard build types.
    ///
    /// # Errors
    ///
    /// Build or run failures; [`FexError::Data`] listing benchmarks whose
    /// builds disagree.
    pub fn selftest(&mut self, suite_name: &str) -> Result<String> {
        let suite = suite_by_name(suite_name)?;
        if suite.proprietary {
            return Err(FexError::Config(format!("suite `{suite_name}` is proprietary")));
        }
        let types = ["gcc_native", "gcc_asan", "clang_native", "clang_asan"];
        let mut report = String::new();
        let mut bad = Vec::new();
        for prog in &suite.programs {
            let mut exits = Vec::new();
            for ty in types {
                let artifact = self.build.build(prog.name, prog.source, ty, false, false)?;
                let machine = fex_vm::Machine::new(fex_vm::MachineConfig::with_cores(2));
                let run = machine
                    .load(&artifact.program)
                    .run_entry(prog.args(InputSize::Test))
                    .map_err(|source| FexError::Run {
                        benchmark: prog.name.to_string(),
                        build_type: ty.to_string(),
                        source,
                    })?;
                exits.push(run.exit);
            }
            let consistent = exits.windows(2).all(|w| w[0] == w[1]);
            report.push_str(&format!(
                "{:<20} {}  (checksum {})\n",
                prog.name,
                if consistent { "ok" } else { "MISMATCH" },
                exits[0]
            ));
            if !consistent {
                bad.push(prog.name);
            }
        }
        if bad.is_empty() {
            Ok(report)
        } else {
            Err(FexError::Data(format!("self-test mismatches in: {bad:?}\n{report}")))
        }
    }

    /// `fex list` — registered experiments.
    pub fn list(&self) -> String {
        let mut s = String::new();
        for e in crate::registry::experiments() {
            s.push_str(&format!("{:<14} {}\n", e.name, e.description));
        }
        s
    }

    /// `fex report` — Table I plus the environment report.
    pub fn report(&self) -> String {
        format!("{}\n{}", crate::registry::table_one(), self.container.environment_report())
    }
}

impl Default for Fex {
    fn default() -> Self {
        Self::new()
    }
}

fn suite_by_name(name: &str) -> Result<fex_suites::Suite> {
    fex_suites::all_suites()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| FexError::UnknownName { kind: "suite", name: name.to_string() })
}

fn server_kind(name: &str) -> Result<ServerKind> {
    Ok(match name {
        "nginx" => ServerKind::Nginx,
        "apache" => ServerKind::Apache,
        "memcached" => ServerKind::Memcached,
        other => return Err(FexError::UnknownName { kind: "server", name: other.to_string() }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fex_vm::MeasureTool;

    fn fex_with_compilers() -> Fex {
        let mut fex = Fex::new();
        fex.install("gcc-6.1").unwrap();
        fex.install("clang-3.8").unwrap();
        fex
    }

    #[test]
    fn run_requires_setup_stage() {
        let mut fex = Fex::new();
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let err = fex.run(&cfg).unwrap_err();
        assert!(err.to_string().contains("fex install"), "{err}");
    }

    #[test]
    fn micro_experiment_end_to_end() {
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native"])
            .input(InputSize::Test)
            .benchmark("arrayread");
        let df = fex.run(&cfg).unwrap();
        assert_eq!(df.len(), 2);
        // CSV persisted inside the container.
        let csv = fex.result_csv("micro").unwrap();
        assert!(csv.starts_with("suite,benchmark,type"));
        // Log carries the environment digest.
        assert!(fex.log().iter().any(|l| l.contains("environment digest")));
    }

    #[test]
    fn each_experiment_starts_an_empty_log() {
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native"])
            .input(InputSize::Test)
            .benchmark("arrayread");
        let log_file =
            |fex: &Fex| fex.container().fs().read("/fex/results/micro.log").unwrap().to_vec();
        fex.run(&cfg).unwrap();
        let (first_len, first_file) = (fex.log().len(), log_file(&fex));
        fex.run(&cfg).unwrap();
        assert_eq!(fex.log().len(), first_len);
        assert_eq!(log_file(&fex), first_file);
    }

    #[test]
    fn decode_cache_accounting_is_per_experiment() {
        // The build system outlives experiments; a second run on the same
        // `Fex` must not be charged the first run's decodes.
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native"])
            .input(InputSize::Test)
            .repetitions(3)
            .jobs(2);
        let decode_cache = |fex: &Fex| {
            let json = fex.metrics_json("micro").expect("metrics stored");
            let start = json.find("\"decode_cache\"").expect("decode_cache block");
            let end = start + json[start..].find('}').expect("block closes");
            json[start..=end].to_string()
        };
        fex.run(&cfg).unwrap();
        let first = decode_cache(&fex);
        assert!(first.contains("\"decodes\": 8,"), "{first}");
        assert!(first.contains("\"served\": 24,"), "{first}");
        fex.run(&cfg).unwrap();
        assert_eq!(decode_cache(&fex), first);
    }

    #[test]
    fn perf_plot_normalises_against_first_type() {
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native"])
            .input(InputSize::Test);
        fex.run(&cfg).unwrap();
        let plot = fex.plot("micro", PlotRequest::Perf).unwrap();
        assert_eq!(plot.hline, Some(1.0));
        assert_eq!(plot.series.len(), 2);
        // The gcc series is the baseline: all ones.
        assert!(plot.series[0].values.iter().all(|v| (*v - 1.0).abs() < 1e-9));
        let svg = plot.to_svg();
        assert!(svg.contains("<svg"));
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let mut fex = Fex::new();
        let cfg = ExperimentConfig::new("quake3");
        assert!(matches!(fex.run(&cfg), Err(FexError::UnknownName { .. })));
        assert!(fex.plot("quake3", PlotRequest::Perf).is_err());
    }

    #[test]
    fn list_and_report_render() {
        let fex = Fex::new();
        assert!(fex.list().contains("ripe"));
        let report = fex.report();
        assert!(report.contains("SPEC CPU2006*"));
        assert!(report.contains("image: fex"));
    }

    #[test]
    fn selftest_validates_a_suite_across_types() {
        let mut fex = fex_with_compilers();
        let report = fex.selftest("micro").unwrap();
        assert_eq!(report.matches(" ok ").count(), 4, "{report}");
        assert!(fex.selftest("spec_cpu2006").is_err());
    }

    #[test]
    fn edd_baseline_roundtrip_passes_on_identical_runs() {
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native"])
            .benchmark("branches")
            .input(InputSize::Test);
        fex.run(&cfg).unwrap();
        fex.save_baseline("micro").unwrap();
        // Re-run: deterministic machine → identical numbers → gates hold.
        fex.run(&cfg).unwrap();
        let report = fex.edd_check("micro", &[crate::edd::Gate::new("time", 1.01)]).unwrap();
        assert!(report.passed(), "{}", report.summary());
        // Without a baseline the check refuses.
        assert!(fex.edd_check("nope", &[]).is_err());
    }

    #[test]
    fn failure_report_rides_along_with_results() {
        use crate::config::FaultInjection;
        use fex_vm::{FaultKind, FaultPlan};

        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "clang_native"])
            .input(InputSize::Test)
            .fault(FaultInjection::for_benchmark(
                "ptrchase",
                FaultPlan::persistent(FaultKind::Trap),
            ));
        let df = fex.run(&cfg).unwrap();
        // Partial frame: 3 surviving benchmarks × 2 types.
        assert_eq!(df.len(), 6);

        let report = fex.failure_report("micro").unwrap();
        assert_eq!(report.quarantined_benchmarks(), vec!["ptrchase"]);
        let csv = fex.failure_csv("micro").unwrap();
        assert!(csv.starts_with("benchmark,type,threads,rep,error,attempts,outcome"));
        assert!(csv.contains("ptrchase"));
        assert!(csv.contains("quarantined"));
        // The log carries the resilience summary.
        assert!(fex.log().iter().any(|l| l.contains("quarantined: ptrchase")));

        // Flakiness gates: the strict default fails, a lenient one passes.
        assert!(!fex
            .edd_flakiness_check("micro", &crate::edd::FlakinessGate::default())
            .unwrap()
            .passed());
        assert!(fex
            .edd_flakiness_check("micro", &crate::edd::FlakinessGate::new(10.0, 1))
            .unwrap()
            .passed());
        assert!(fex.edd_flakiness_check("never_ran", &Default::default()).is_err());
    }

    #[test]
    fn disabled_injection_is_byte_identical_to_no_injection() {
        use crate::config::FaultInjection;
        use fex_vm::FaultPlan;

        let mut plain = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro").types(vec!["gcc_native"]).input(InputSize::Test);
        plain.run(&cfg).unwrap();
        let baseline_csv = plain.result_csv("micro").unwrap();

        let mut armed = fex_with_compilers();
        let cfg_disabled = cfg.clone().fault(FaultInjection::everywhere(FaultPlan::none()));
        armed.run(&cfg_disabled).unwrap();
        assert_eq!(armed.result_csv("micro").unwrap(), baseline_csv);

        // Clean runs still persist a (header-only) failure report.
        let fcsv = armed.failure_csv("micro").unwrap();
        assert_eq!(fcsv.trim(), "benchmark,type,threads,rep,error,attempts,outcome");
        assert!(armed.failure_report("micro").unwrap().is_clean());
        assert!(armed
            .edd_flakiness_check("micro", &crate::edd::FlakinessGate::default())
            .unwrap()
            .passed());
    }

    #[test]
    fn lab_flag_archives_runs_and_journals_the_store_write() {
        let dir = std::env::temp_dir().join(format!("fex-lab-wf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native"])
            .benchmark("arrayread")
            .input(InputSize::Test)
            .lab(dir.to_string_lossy());
        fex.run(&cfg).unwrap();
        fex.run(&cfg).unwrap();
        let store = crate::lab::RunStore::open(&dir).unwrap();
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].run_id, entries[1].run_id, "deterministic rerun, same content id");
        // The journal records the archive, and the stored artifacts match
        // the container's.
        assert!(fex.journal_jsonl("micro").unwrap().contains("\"store_write\""));
        assert_eq!(store.results_csv(&entries[1]).unwrap(), fex.result_csv("micro").unwrap());
        assert!(fex.log().iter().any(|l| l.contains("stored run")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_plot_uses_the_time_tool_columns() {
        let mut fex = fex_with_compilers();
        let cfg = ExperimentConfig::new("micro")
            .types(vec!["gcc_native", "gcc_asan"])
            .input(InputSize::Test)
            .benchmark("arraywrite")
            .tool(MeasureTool::Time);
        fex.run(&cfg).unwrap();
        let plot = fex.plot("micro", PlotRequest::Memory).unwrap();
        // ASan redzones make the instrumented build use more memory.
        let asan = &plot.series[1];
        assert!(asan.values[0] > 1.0, "asan rss ratio {:?}", asan.values);
    }
}
