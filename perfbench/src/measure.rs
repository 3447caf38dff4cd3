//! Timing statistics, process memory and the result report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size of this process, in MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by every thread of this process so far, exited
/// threads included.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// glibc's `M_MMAP_THRESHOLD` parameter.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_MMAP_THRESHOLD: i32 = -3;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes glibc's mmap threshold at its default of 128 KiB. Left alone,
/// glibc raises the threshold whenever a large mapped block is freed, and
/// later blocks of that size come from per-thread arenas, which keep
/// freed memory. How much each arena keeps depends on thread timing, so
/// peak RSS jumped by steps of about 6 MiB from run to run. With the
/// threshold fixed, large blocks go back to the system when freed and
/// peak RSS follows the memory the program holds. Call before any thread
/// starts.
pub fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `mallopt` only adjusts allocator parameters; no thread
    // allocates concurrently when this runs at start-up.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One workload run's outcome: the figures the benchmark prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed the output check.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Context printed ahead of the result: sample counts behind each
    /// percentile, host cores, shares the metrics do not carry.
    pub detail: BTreeMap<String, f64>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn detail(&mut self, name: &str, value: f64) {
        self.detail.insert(name.to_string(), value);
    }

    /// Records one op's check: `Err` counts it failed and says why on
    /// standard error.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("op {} failed: {why}", self.attempted);
        }
    }

    /// The detail line followed by the result line.
    pub fn render(&self) -> String {
        let num = |v: f64| if v.is_finite() { format!("{v}") } else { "null".to_string() };
        let mut detail = String::from("{\"detail\": {");
        for (i, (k, v)) in self.detail.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(detail, "{sep}\"{k}\": {}", num(*v));
        }
        detail.push_str("}}");
        let mut metrics = String::new();
        for (i, (k, (v, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v));
        }
        let finite = self.metrics.values().all(|(v, _)| v.is_finite());
        let correct = self.failed == 0 && self.attempted > 0 && finite;
        format!(
            "{detail}\n{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}
