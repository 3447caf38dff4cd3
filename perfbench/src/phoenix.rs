//! The cold-phoenix and warm-phoenix workloads: one op is `Fex::run` of
//! the Phoenix 7 × 4 matrix followed by `Fex::plot(Perf)`, against a
//! fresh empty lab (cold) or a lab set-up already filled (warm).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fex_core::{ExperimentConfig, Fex, Metrics, PlotRequest};

use crate::gen::{self, PhoenixShape};
use crate::layers::{self, LayerTotals};
use crate::measure::{self, median, quantile, ratio, Report};
use crate::{err, Options};

/// Install scripts the Phoenix matrix needs.
const SCRIPTS: [&str; 3] = ["gcc-6.1", "clang-3.8", "phoenix_inputs"];

/// Set-up samples per run; `setup_s` is their median.
const COLD_SETUP_SAMPLES: usize = 5;
const WARM_SETUP_SAMPLES: usize = 5;

/// Cold set-up, `Fex::new` plus installs, takes microseconds. Each of its
/// samples times this many boots and reports the time per boot, so that a
/// sample lasts milliseconds and timer and first-call noise do not move
/// it. Besides the samples before the first op, one is taken before each
/// untimed op, so that `setup_s` covers the same stretch of time as the
/// op figures rather than the host's speed in the run's first moments.
const BOOTS_PER_SAMPLE: usize = 500;

/// Ops per framework. The framework's log grows with every op, and each
/// op writes the whole log out again, so ops run in epochs of this many
/// on one framework and then move to a freshly booted one (untimed).
/// Without epochs, op time and memory would grow with the number of ops
/// a run fits in.
const EPOCH_OPS: usize = 50;

/// What one op produced, for the output check.
struct OpResult {
    wall: f64,
    csv: String,
    journal: Metrics,
}

/// `Fex::new` plus the installs; returns the framework and the install
/// seconds.
pub fn boot(scripts: &[&str]) -> Result<(Fex, f64), String> {
    let mut fex = Fex::new();
    let started = Instant::now();
    for script in scripts {
        fex.install(script).map_err(err)?;
    }
    Ok((fex, started.elapsed().as_secs_f64()))
}

/// The op: run, plot, render. Only this is timed.
fn op(fex: &mut Fex, config: &ExperimentConfig) -> Result<OpResult, String> {
    let started = Instant::now();
    fex.run(config).map_err(err)?;
    let svg = fex.plot(&config.name, PlotRequest::Perf).map_err(err)?.to_svg();
    let wall = started.elapsed().as_secs_f64();
    std::hint::black_box(svg);
    let csv = fex.result_csv(&config.name).ok_or("the run stored no results CSV")?;
    let jsonl = fex.journal_jsonl(&config.name).ok_or("the run stored no journal")?;
    let events: Vec<_> =
        jsonl.lines().filter_map(|l| fex_core::journal::parse_line(l).ok()).collect();
    Ok(OpResult { wall, csv, journal: Metrics::from_journal(&events) })
}

/// The output check and the workload-label guard: the results CSV must
/// equal the reference, a cold op must hit nothing in the graph and a
/// warm op must miss nothing.
fn check(result: &OpResult, reference: &str, warm: bool) -> Result<(), String> {
    if result.csv != reference {
        return Err("results CSV differs from the reference".into());
    }
    let (hits, misses) = (result.journal.graph_hits, result.journal.graph_misses);
    match warm {
        false if hits > 0 => Err(format!("cold op served {hits} units from the graph")),
        true if misses > 0 => Err(format!("warm op missed {misses} units in the graph")),
        _ if hits + misses == 0 => Err("the op never consulted the artifact graph".into()),
        _ => Ok(()),
    }
}

/// The reference results for the workload's seed: the sequential loop,
/// no lab, on a framework of its own.
fn reference_csv(config: &ExperimentConfig) -> Result<String, String> {
    let (mut fex, _) = boot(&SCRIPTS)?;
    let mut config = config.clone().jobs(1);
    config.lab = None;
    fex.run(&config).map_err(err)?;
    fex.result_csv(&config.name).ok_or_else(|| "the reference run stored no CSV".into())
}

/// Moves to a freshly booted framework when `fex` has run a whole epoch;
/// call before each op.
fn next_epoch(fex: &mut Fex, ops: &mut usize) -> Result<(), String> {
    if *ops == EPOCH_OPS {
        *fex = boot(&SCRIPTS)?.0;
        *ops = 0;
    }
    *ops += 1;
    Ok(())
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// The warm lab as set-up left it. Every op archives its run, and the
/// lab rewrites its whole run index on each save. Each warm op and each
/// replay therefore starts from the index set-up left, restored untimed,
/// so that op time does not depend on how many ops a run fits in.
struct WarmLab {
    dir: PathBuf,
    index: Vec<u8>,
}

impl WarmLab {
    fn capture(dir: PathBuf) -> Result<WarmLab, String> {
        let index = std::fs::read(dir.join("index.json")).map_err(err)?;
        Ok(WarmLab { dir, index })
    }

    fn reset(&self) -> Result<(), String> {
        std::fs::write(self.dir.join("index.json"), &self.index).map_err(err)
    }
}

/// Set-up's outcome: per-sample set-up and install seconds, the
/// framework the ops share and, for warm, the lab it filled.
struct Setup {
    samples: Vec<f64>,
    installs: Vec<f64>,
    fex: Fex,
    warm_lab: Option<WarmLab>,
}

/// One cold set-up sample: `BOOTS_PER_SAMPLE` boots in a row, each
/// framework dropped as the next replaces it. Returns the seconds per boot,
/// the install seconds per boot and the last framework.
fn boot_sample() -> Result<(f64, f64, Fex), String> {
    let mut install_s = 0.0;
    let mut last = None;
    let started = Instant::now();
    for _ in 0..BOOTS_PER_SAMPLE {
        let (fex, s) = boot(&SCRIPTS)?;
        install_s += s;
        last = Some(fex);
    }
    let per_boot = started.elapsed().as_secs_f64() / BOOTS_PER_SAMPLE as f64;
    let fex = last.expect("a sample boots at least once");
    Ok((per_boot, install_s / BOOTS_PER_SAMPLE as f64, fex))
}

/// Cold set-up: the boot samples taken before the first op.
fn cold_setup() -> Result<Setup, String> {
    let (mut samples, mut installs) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..COLD_SETUP_SAMPLES {
        let (per_boot, install_s, fex) = boot_sample()?;
        samples.push(per_boot);
        installs.push(install_s);
        kept = Some(fex);
    }
    let fex = kept.expect("at least one set-up sample");
    Ok(Setup { samples, installs, fex, warm_lab: None })
}

/// Warm set-up: boot, installs and the cold run that fills the lab, each
/// sample on a lab of its own. The filling run is cold, so it is checked
/// like a cold op. The last framework and lab are kept.
fn warm_setup(
    opts: &Options,
    config: &ExperimentConfig,
    reference: &str,
    report: &mut Report,
) -> Result<Setup, String> {
    let (mut samples, mut installs) = (Vec::new(), Vec::new());
    let mut kept: Option<(Fex, PathBuf)> = None;
    for i in 0..WARM_SETUP_SAMPLES {
        let lab = opts.work.join(format!("lab-{i}"));
        let started = Instant::now();
        let (mut fex, install_s) = boot(&SCRIPTS)?;
        let fill = op(&mut fex, &config.clone().lab(lab_str(&lab)));
        samples.push(started.elapsed().as_secs_f64());
        installs.push(install_s);
        report.check(fill.and_then(|r| check(&r, reference, false)));
        if let Some((_, old)) = kept.replace((fex, lab)) {
            remove(&old);
        }
    }
    let (fex, lab) = kept.expect("at least one set-up sample");
    Ok(Setup { samples, installs, fex, warm_lab: Some(WarmLab::capture(lab)?) })
}

pub fn run(opts: &Options, warm: bool) -> Result<Report, String> {
    let jobs = measure::host_cores();
    let config = gen::phoenix_config(opts.seed, PhoenixShape::new(opts.smoke), jobs);
    let mut report = Report::default();
    let reference = reference_csv(&config)?;

    let Setup { samples: mut setup, installs, mut fex, warm_lab } =
        if warm { warm_setup(opts, &config, &reference, &mut report)? } else { cold_setup()? };

    let mut cold_ops = 0usize;
    let mut next_config = || -> Result<ExperimentConfig, String> {
        let lab = match &warm_lab {
            Some(lab) => {
                lab.reset()?;
                lab.dir.clone()
            }
            None => {
                cold_ops += 1;
                opts.work.join(format!("cold-{cold_ops}"))
            }
        };
        Ok(config.clone().lab(lab_str(&lab)))
    };
    // Run units completed (executed or served), as the graph counts them.
    let mut units = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut totals = LayerTotals::default();
    let mut journal_walls = (0.0, 0.0);
    let mut fex_ops = 0;
    while walls.is_empty() || Instant::now() < deadline {
        if !warm && !opts.trace {
            setup.push(boot_sample()?.0);
        }
        next_epoch(&mut fex, &mut fex_ops)?;
        let cfg = next_config()?;
        let result = op(&mut fex, &cfg);
        if let Ok(r) = &result {
            walls.push(r.wall);
            units += r.journal.graph_hits + r.journal.graph_misses;
        }
        report.check(result.and_then(|r| check(&r, &reference, warm)));
        if !warm {
            remove(Path::new(cfg.lab.as_deref().expect("cold ops have a lab")));
        }
        if !opts.trace {
            continue;
        }
        // Traced op: the same op, then its layers replayed.
        next_epoch(&mut fex, &mut fex_ops)?;
        let cfg = next_config()?;
        let outcome =
            traced_op(&mut fex, &cfg, &reference, warm_lab.as_ref(), &opts.work, &mut totals);
        if let Ok((wall, journal)) = &outcome {
            traced_walls.push(*wall);
            journal_walls.0 += journal.build_wall_ns as f64 / 1e9;
            journal_walls.1 += journal.run_wall_ns as f64 / 1e9;
        }
        report.check(outcome.map(|_| ()));
        if !warm {
            remove(Path::new(cfg.lab.as_deref().expect("cold ops have a lab")));
        }
    }
    let timed: f64 = walls.iter().sum();
    report.detail("host_cores", jobs as f64);
    report.detail("jobs", jobs as f64);
    report.detail("op_samples", walls.len() as f64);
    report.detail("setup_samples", setup.len() as f64);
    report.detail("units_per_op", ratio(units as f64, walls.len() as f64));
    report.detail("failed_share", ratio(report.failed as f64, report.attempted as f64));

    if opts.trace {
        let traced = totals.ops as f64;
        report.detail("traced_samples", traced);
        report.metric(
            "trace.overhead_share",
            median(&traced_walls) / median(&walls) - 1.0,
            "share",
        );
        report.metric("journal.build_wall_s", ratio(journal_walls.0, traced), "s");
        report.metric("journal.run_wall_s", ratio(journal_walls.1, traced), "s");
        let mean_traced = ratio(traced_walls.iter().sum(), traced);
        let workflow = mean_traced - layers::outer_sum(&totals);
        crate::layer_metrics(&mut report, &totals, workflow, jobs, median(&installs));
        crate::serve_mix::unexercised_serve_metrics(&mut report);
    } else {
        report.metric("setup_s", median(&setup), "s");
        report.metric("op_s_p50", median(&walls), "s");
        report.metric("op_s_p90", quantile(&walls, 0.9), "s");
        report.metric("ops_per_s", ratio(walls.len() as f64, timed), "1/s");
        report.metric("units_per_s", ratio(units as f64, timed), "1/s");
        report.metric("peak_rss_mb", measure::peak_rss_mb(), "MB");
    }
    if let Some(lab) = &warm_lab {
        remove(&lab.dir);
    }
    Ok(report)
}

fn lab_str(dir: &Path) -> String {
    dir.to_string_lossy().into_owned()
}

/// One traced op: the op itself, timed as untraced ops are, then each
/// layer replayed on its inputs against labs in the op's starting state.
fn traced_op(
    fex: &mut Fex,
    config: &ExperimentConfig,
    reference: &str,
    warm_lab: Option<&WarmLab>,
    work: &Path,
    totals: &mut LayerTotals,
) -> Result<(f64, Metrics), String> {
    let result = op(fex, config)?;
    check(&result, reference, warm_lab.is_some())?;
    let (runner_lab, graph_lab) = match warm_lab {
        Some(lab) => {
            lab.reset()?;
            (lab.dir.clone(), lab.dir.clone())
        }
        None => (work.join("replay-runner"), work.join("replay-graph")),
    };
    let replayed = layers::replay(&fex_suites::phoenix(), config, &runner_lab, &graph_lab, totals);
    if warm_lab.is_none() {
        remove(&runner_lab);
        remove(&graph_lab);
    }
    if replayed? != reference {
        return Err("the replayed runner's CSV differs from the reference".into());
    }
    Ok((result.wall, result.journal))
}
