//! The serve-mix workload: an in-process `fex serve` daemon driven as a
//! closed loop by one client thread per core, each sending its seeded
//! submission stream and waiting for every reply.
//!
//! The run is a sequence of epochs. Each epoch boots a daemon on an
//! empty lab and sends a fixed number of submissions per client, so the
//! lab and the daemon's `served` map grow the same way in every epoch.
//! Without epochs the lab would grow for as long as the run lasts, and the
//! op times would depend on how many ops a machine fits into it.

use std::path::Path;
use std::time::{Duration, Instant};

use fex_core::serve::{self, ServeOutcome, Submission};
use fex_core::{Metrics, ServeOptions, ServeSummary, Server, ServerHandle};

use crate::gen::{ClientStream, Kind};
use crate::layers::{self, LayerTotals};
use crate::measure::{self, median, quantile, ratio, Report};
use crate::phoenix::boot;
use crate::{err, Options};

/// Install scripts the micro submissions' build types need.
const SCRIPTS: [&str; 2] = ["gcc-6.1", "clang-3.8"];

/// Submissions per client per epoch (full and smoke runs).
const EPOCH_SUBMISSIONS: usize = 50;
const SMOKE_EPOCH_SUBMISSIONS: usize = 10;

/// One submission as the client saw it.
struct Record {
    kind: Kind,
    sub: Submission,
    /// For a repeat, the index of the submission it repeats.
    repeats: Option<usize>,
    rtt: f64,
    /// Whether the client recorded this submission's span (traced run,
    /// every other submission).
    traced: bool,
    reply: Result<ServeOutcome, String>,
}

/// One epoch: each client's records in stream order.
struct Epoch {
    clients: Vec<Vec<Record>>,
    wall: f64,
    rss_growth: f64,
    evictions: u64,
}

/// The output check and the label guard of one reply. A repeat must be
/// served whole from the store, byte-identical to the reply that first
/// executed it; an executed submission must deliver rows and no failure
/// records, a fresh one with no graph hit and an overlap with at least
/// one.
fn check(rec: &Record, history: &[Record]) -> Result<(), String> {
    let r = rec.reply.as_ref()?;
    match rec.kind {
        Kind::Repeat => {
            let first =
                history[rec.repeats.expect("repeats name their original")].reply.as_ref()?;
            if !r.store_hit {
                return Err("a repeated submission executed again".into());
            }
            if (&r.results_csv, &r.failures_csv, &r.run_id)
                != (&first.results_csv, &first.failures_csv, &first.run_id)
            {
                return Err("a store-served reply differs from the first reply".into());
            }
        }
        Kind::Fresh | Kind::Overlap => {
            if r.store_hit {
                return Err("a new submission was served from the store".into());
            }
            if r.rows == 0 || r.failures > 0 {
                return Err(format!("{} rows, {} failure records", r.rows, r.failures));
            }
            if rec.kind == Kind::Fresh && r.graph_hits > 0 {
                return Err(format!("a fresh submission hit {} graph units", r.graph_hits));
            }
            if rec.kind == Kind::Overlap && r.graph_hits == 0 {
                return Err("an overlapping submission hit nothing in the graph".into());
            }
        }
    }
    Ok(())
}

/// One client's closed loop over `count` submissions.
fn client_loop(socket: &Path, stream: ClientStream, count: usize, trace: bool) -> Vec<Record> {
    let mut spans: Vec<(Instant, Instant)> = Vec::new();
    let records = stream
        .take(count)
        .enumerate()
        .map(|(i, item)| {
            let traced = trace && i % 2 == 1;
            let started = Instant::now();
            let mut reply = serve::submit(socket, &item.sub).map_err(err);
            let ended = Instant::now();
            if traced {
                spans.push((started, ended));
            }
            if !trace {
                // Streamed journal lines are only read by the traced run.
                if let Ok(r) = &mut reply {
                    r.events = Vec::new();
                }
            }
            let rtt = (ended - started).as_secs_f64();
            Record { kind: item.kind, sub: item.sub, repeats: item.repeats, rtt, traced, reply }
        })
        .collect();
    std::hint::black_box(spans);
    records
}

/// Stops a daemon and waits for it to drain.
fn stop(handle: ServerHandle) -> Result<ServeSummary, String> {
    let _ = serve::shutdown(handle.socket());
    handle.wait().map_err(err)
}

/// Boots the framework and a daemon on an empty lab (the set-up that
/// `setup_s` times), runs one epoch and tears it down. Returns the epoch
/// with its set-up and install seconds.
fn epoch(opts: &Options, index: u64, jobs: usize) -> Result<(Epoch, f64, f64), String> {
    let lab = opts.work.join(format!("serve-lab-{index}"));
    let started = Instant::now();
    let (fex, install_s) = boot(&SCRIPTS)?;
    let handle = Server::start(ServeOptions {
        socket: opts.work.join(format!("serve-{index}.sock")),
        lab: lab.to_string_lossy().into_owned(),
        workers: jobs,
        queue_cap: 64,
    })
    .map_err(err)?;
    let setup_s = started.elapsed().as_secs_f64();
    drop(fex);

    let count = if opts.smoke { SMOKE_EPOCH_SUBMISSIONS } else { EPOCH_SUBMISSIONS };
    let rss_start = measure::rss_mb();
    let socket = handle.socket().to_path_buf();
    let started = Instant::now();
    let clients: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|c| {
                let stream = ClientStream::new(opts.seed, index, c, jobs);
                let socket = &socket;
                scope.spawn(move || client_loop(socket, stream, count, opts.trace))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let rss_growth = measure::rss_mb() - rss_start;
    let summary = stop(handle)?;
    let _ = std::fs::remove_dir_all(&lab);
    let epoch = Epoch { clients, wall, rss_growth, evictions: summary.evictions };
    Ok((epoch, setup_s, install_s))
}

/// The serve layer's metrics on a workload that sends no submissions.
/// As with every layer a workload does not exercise, each time is the wall
/// of its empty step (nanoseconds, not 0); shares, counts and growth are 0.
pub(crate) fn unexercised_serve_metrics(report: &mut Report) {
    let replies: &[ServeOutcome] = std::hint::black_box(&[]);
    for name in [
        "serve.wait_s_p50",
        "serve.wait_s_p90",
        "serve.exec_submit_s_p50",
        "serve.hit_submit_s_p50",
    ] {
        let started = Instant::now();
        let waits: Vec<f64> = replies.iter().map(|r| r.wait_ns as f64 / 1e9).collect();
        std::hint::black_box(median(&waits));
        report.metric(name, started.elapsed().as_secs_f64(), "s");
    }
    for (name, unit) in [
        ("serve.store_hit_share", "share"),
        ("serve.graph_hit_share", "share"),
        ("serve.evictions", "count"),
        ("serve.rss_growth_mb", "MB"),
    ] {
        report.metric(name, 0.0, unit);
    }
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let jobs = measure::host_cores();
    let mut report = Report::default();

    // Whole epochs until the measured time is used up.
    let mut epochs = Vec::new();
    let mut setup = Vec::new();
    let mut installs = Vec::new();
    let mut measured = 0.0;
    while epochs.is_empty() || measured < opts.seconds {
        let (e, setup_s, install_s) = epoch(opts, epochs.len() as u64, jobs)?;
        measured += e.wall;
        setup.push(setup_s);
        installs.push(install_s);
        epochs.push(e);
    }

    for e in &epochs {
        for records in &e.clients {
            for (i, rec) in records.iter().enumerate() {
                report.check(check(rec, &records[..i]));
            }
        }
    }
    let all = || {
        let records = epochs.iter().flat_map(|e| e.clients.iter().flatten());
        records.filter_map(|r| Some((r, r.reply.as_ref().ok()?)))
    };
    let rtts: Vec<f64> = all().map(|(r, _)| r.rtt).collect();
    let rows: usize = all().map(|(_, o)| o.rows).sum();
    let executed: Vec<_> = all().filter(|(r, _)| r.kind != Kind::Repeat).collect();
    let exec_rtts: Vec<f64> = executed.iter().map(|(r, _)| r.rtt).collect();
    let hit_rtts: Vec<f64> =
        all().filter(|(r, _)| r.kind == Kind::Repeat).map(|(r, _)| r.rtt).collect();
    report.detail("host_cores", jobs as f64);
    report.detail("clients", jobs as f64);
    report.detail("daemon_workers", jobs as f64);
    report.detail("epochs", epochs.len() as f64);
    report.detail("op_samples", rtts.len() as f64);
    report.detail("exec_samples", exec_rtts.len() as f64);
    report.detail("hit_samples", hit_rtts.len() as f64);
    report.detail("setup_samples", setup.len() as f64);

    if !opts.trace {
        report.metric("setup_s", median(&setup), "s");
        report.metric("op_s_p50", median(&rtts), "s");
        report.metric("op_s_p90", quantile(&rtts, 0.9), "s");
        report.metric("ops_per_s", ratio(rtts.len() as f64, measured), "1/s");
        report.metric("units_per_s", ratio(rows as f64, measured), "1/s");
        report.metric("peak_rss_mb", measure::peak_rss_mb(), "MB");
        report.detail("failed_share", ratio(report.failed as f64, report.attempted as f64));
        return Ok(report);
    }

    let waits: Vec<f64> = all().map(|(_, o)| o.wait_ns as f64 / 1e9).collect();
    let (hits, lookups) = executed
        .iter()
        .fold((0, 0), |(h, l), (_, o)| (h + o.graph_hits, l + o.graph_hits + o.graph_misses));
    let rss_growth = epochs.iter().map(|e| e.rss_growth).fold(f64::MIN, f64::max);
    let evictions: u64 = epochs.iter().map(|e| e.evictions).sum();
    report.metric("serve.wait_s_p50", median(&waits), "s");
    report.metric("serve.wait_s_p90", quantile(&waits, 0.9), "s");
    report.metric("serve.exec_submit_s_p50", median(&exec_rtts), "s");
    report.metric("serve.hit_submit_s_p50", median(&hit_rtts), "s");
    report.metric(
        "serve.store_hit_share",
        ratio(hit_rtts.len() as f64, rtts.len() as f64),
        "share",
    );
    report.metric("serve.graph_hit_share", ratio(hits as f64, lookups as f64), "share");
    report.metric("serve.evictions", evictions as f64, "count");
    report.metric("serve.rss_growth_mb", rss_growth, "MB");
    let span_rtt = |traced: bool| {
        let rtts: Vec<f64> =
            executed.iter().filter(|(r, _)| r.traced == traced).map(|(r, _)| r.rtt).collect();
        median(&rtts)
    };
    report.metric("trace.overhead_share", span_rtt(true) / span_rtt(false) - 1.0, "share");

    // Layer replay of the executed submissions, epoch by epoch on labs
    // that start empty like the epoch's, each client's in stream order
    // (overlaps only reference their own client's earlier pairs), for at
    // most the measured duration.
    let replay_deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let (runner_lab, graph_lab) = (opts.work.join("replay-runner"), opts.work.join("replay-graph"));
    let mut totals = LayerTotals::default();
    let (mut rtt_sum, mut build_wall, mut run_wall) = (0.0, 0.0, 0.0);
    'epochs: for e in &epochs {
        let _ = std::fs::remove_dir_all(&runner_lab);
        let _ = std::fs::remove_dir_all(&graph_lab);
        let replies = e.clients.iter().flatten().filter_map(|r| Some((r, r.reply.as_ref().ok()?)));
        for (rec, reply) in replies.filter(|(r, _)| r.kind != Kind::Repeat) {
            if totals.ops > 0 && Instant::now() >= replay_deadline {
                break 'epochs;
            }
            let suite = rec.sub.suite().map_err(err)?;
            let config = rec.sub.config(None);
            let csv = layers::replay(&suite, &config, &runner_lab, &graph_lab, &mut totals)?;
            if csv != reply.results_csv {
                report.check(Err("the replayed runner's CSV differs from the reply".into()));
            }
            let events: Vec<_> =
                reply.events.iter().filter_map(|l| fex_core::journal::parse_line(l).ok()).collect();
            let journal = Metrics::from_journal(&events);
            rtt_sum += rec.rtt;
            build_wall += journal.build_wall_ns as f64 / 1e9;
            run_wall += journal.run_wall_ns as f64 / 1e9;
        }
    }
    let _ = std::fs::remove_dir_all(&runner_lab);
    let _ = std::fs::remove_dir_all(&graph_lab);
    let replayed = totals.ops as f64;
    report.detail("traced_samples", replayed);
    report.metric("journal.build_wall_s", ratio(build_wall, replayed), "s");
    report.metric("journal.run_wall_s", ratio(run_wall, replayed), "s");
    // The daemon does not plot: the replay's plot is not part of the op.
    let outer = layers::outer_sum(&totals) - totals.per_op("plot.s");
    let workflow = ratio(rtt_sum, replayed) - outer;
    crate::layer_metrics(&mut report, &totals, workflow, jobs, median(&installs));
    report.detail("failed_share", ratio(report.failed as f64, report.attempted as f64));
    Ok(report)
}
