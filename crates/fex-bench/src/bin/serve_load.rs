//! `fex serve` load bench: concurrent clients hammer an in-process daemon
//! with a mixed unique/duplicate submission stream, and the bench gates
//! the service-level invariants:
//!
//! 1. **unique phase** — N distinct micro-suite submissions (benchmark ×
//!    seed variations) from T tenants over C concurrent client
//!    connections; every one must execute (no false cache serves);
//! 2. **duplicate phase** — the same N submissions again, each from a
//!    *different* tenant: every duplicate must be served 100% from the
//!    shared graph/store cache with results byte-identical to the
//!    original, without executing anything;
//! 3. **lab check** — store hits read the archived runs back from the
//!    shared lab, so the lab they were served from must pass
//!    `fex lab fsck` clean.
//!
//! Queue latency (enqueue → dispatch, as journaled by the daemon and
//! echoed in each result reply) is aggregated into per-phase p50/p95/p99
//! percentiles, and the daemon's per-tenant accounting is checked
//! against the client-side view. Everything lands in
//! `target/fex-results/BENCH_serve.json`. Pass `--smoke` for the
//! CI-sized variant (120 submissions, 50% duplicates — same gates).

use std::collections::HashMap;
use std::time::Instant;

use fex_bench::write_artifact;
use fex_core::serve::{self, ServeOutcome, Submission};
use fex_core::{RunStore, ServeOptions, Server};

const WORKERS: usize = 4;
const CLIENTS: usize = 8;
const MICRO_BENCHES: [&str; 4] = ["arrayread", "arraywrite", "ptrchase", "branches"];

fn unique_submission(i: usize, tenant_prefix: &str) -> Submission {
    let mut sub = Submission::new(format!("{tenant_prefix}{}", i % CLIENTS), "micro");
    sub.benchmark = Some(MICRO_BENCHES[i % MICRO_BENCHES.len()].into());
    sub.seed = 1_000 + (i / MICRO_BENCHES.len()) as u64;
    sub.priority = (i % 3) as i64;
    sub.stream = false; // load clients only need the result reply
    sub
}

/// Fans `subs` out over `CLIENTS` threads, each submitting its share
/// sequentially over its own connections. Returns outcomes in
/// submission order.
fn submit_all(socket: &std::path::Path, subs: &[Submission]) -> Vec<ServeOutcome> {
    let mut slots: Vec<Option<ServeOutcome>> = vec![None; subs.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let socket = socket.to_path_buf();
            let shard: Vec<(usize, Submission)> = subs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % CLIENTS == c)
                .map(|(i, s)| (i, s.clone()))
                .collect();
            handles.push(scope.spawn(move || {
                shard
                    .into_iter()
                    .map(|(i, sub)| (i, serve::submit(&socket, &sub).expect("submission serves")))
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for (i, outcome) in handle.join().expect("client thread") {
                slots[i] = Some(outcome);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every slot filled")).collect()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

fn wait_percentiles(outcomes: &[ServeOutcome]) -> (u64, u64, u64) {
    let mut waits: Vec<u64> = outcomes.iter().map(|o| o.wait_ns).collect();
    waits.sort_unstable();
    (percentile(&waits, 50.0), percentile(&waits, 95.0), percentile(&waits, 99.0))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let unique = if smoke { 60 } else { 500 };
    println!(
        "serve_load: {unique} unique + {unique} duplicate submissions, \
         {CLIENTS} clients, {WORKERS} workers{}",
        if smoke { " (smoke)" } else { "" }
    );

    let dir = std::env::temp_dir().join(format!("fex-serve-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");
    let handle = Server::start(ServeOptions {
        socket: dir.join("serve.sock"),
        lab: dir.join("lab").to_string_lossy().into_owned(),
        workers: WORKERS,
        queue_cap: 4 * CLIENTS,
    })
    .expect("daemon starts");
    let socket = handle.socket().to_path_buf();

    // Phase 1: unique submissions — every one executes.
    let uniques: Vec<Submission> = (0..unique).map(|i| unique_submission(i, "t")).collect();
    let start = Instant::now();
    let cold = submit_all(&socket, &uniques);
    let cold_wall = start.elapsed().as_secs_f64();
    let false_hits = cold.iter().filter(|o| o.store_hit).count();
    assert_eq!(false_hits, 0, "distinct submissions must all execute");
    assert!(cold.iter().all(|o| o.rows > 0), "every unique submission yields rows");
    let by_key: HashMap<String, &ServeOutcome> =
        uniques.iter().map(Submission::key).zip(cold.iter()).collect();

    // Phase 2: the same work again, each from a different tenant.
    let dups: Vec<Submission> = (0..unique)
        .map(|i| {
            let mut sub = unique_submission(i, "u");
            sub.tenant = format!("u{}", (i + 1) % CLIENTS); // shuffled tenant
            sub
        })
        .collect();
    let start = Instant::now();
    let warm = submit_all(&socket, &dups);
    let warm_wall = start.elapsed().as_secs_f64();
    let dup_hits = warm.iter().filter(|o| o.store_hit).count();
    assert_eq!(
        dup_hits,
        warm.len(),
        "every duplicate must be served from the cross-tenant cache ({} of {} were)",
        dup_hits,
        warm.len()
    );
    for (sub, outcome) in dups.iter().zip(&warm) {
        let original = by_key[&sub.key()];
        assert_eq!(
            outcome.results_csv, original.results_csv,
            "cache-served results must be byte-identical"
        );
        assert_eq!(outcome.failures_csv, original.failures_csv);
    }

    serve::shutdown(&socket).expect("daemon drains");
    let summary = handle.wait().expect("daemon exits");
    assert_eq!(summary.completed, 2 * unique as u64);
    assert_eq!(summary.store_hits, unique as u64);
    assert_eq!(summary.evictions, 0, "the bounded queue never overflowed");
    let store = RunStore::open(dir.join("lab")).expect("lab opens");
    let report = fex_core::lab::fsck::fsck(&store, false).expect("lab checks");
    assert!(report.clean(), "the served lab must fsck clean:\n{}", report.render());

    let (cold_p50, cold_p95, cold_p99) = wait_percentiles(&cold);
    let (warm_p50, warm_p95, warm_p99) = wait_percentiles(&warm);
    println!(
        "  unique:    {cold_wall:.3}s wall, queue wait p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms",
        cold_p50 as f64 / 1e6,
        cold_p95 as f64 / 1e6,
        cold_p99 as f64 / 1e6
    );
    println!(
        "  duplicate: {warm_wall:.3}s wall, queue wait p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms, \
         {dup_hits}/{} store-served",
        warm_p50 as f64 / 1e6,
        warm_p95 as f64 / 1e6,
        warm_p99 as f64 / 1e6,
        warm.len()
    );

    let tenants_json = summary
        .tenants
        .iter()
        .map(|(tenant, s)| {
            let rate = s.store_hits as f64 / s.submissions.max(1) as f64;
            format!(
                "    \"{tenant}\": {{\"submissions\": {}, \"store_hits\": {}, \
                 \"hit_rate\": {rate:.4}}}",
                s.submissions, s.store_hits
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"workers\": {WORKERS},\n  \"clients\": {CLIENTS},\n  \
         \"unique_submissions\": {unique},\n  \"duplicate_submissions\": {unique},\n  \
         \"duplicate_store_hit_rate\": 1.0,\n  \
         \"unique_wall_s\": {cold_wall:.6},\n  \"duplicate_wall_s\": {warm_wall:.6},\n  \
         \"unique_wait_ns\": {{\"p50\": {cold_p50}, \"p95\": {cold_p95}, \"p99\": {cold_p99}}},\n  \
         \"duplicate_wait_ns\": {{\"p50\": {warm_p50}, \"p95\": {warm_p95}, \
         \"p99\": {warm_p99}}},\n  \"evictions\": 0,\n  \"tenants\": {{\n{tenants_json}\n  }}\n}}\n",
    );
    write_artifact("BENCH_serve.json", &json);
    let _ = std::fs::remove_dir_all(&dir);
}
