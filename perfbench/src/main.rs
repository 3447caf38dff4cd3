//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints a detail line, then the result line
//! (JSON) as the last line of standard output.

use std::path::PathBuf;
use std::process::ExitCode;

use fex_perfbench::{run, Options, WORKLOADS};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing `--workload`")?;
    // Checked here as well as in `run`: the name becomes part of a path.
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (expected one of {WORKLOADS:?})"));
    }
    let seconds = seconds.ok_or("missing `--seconds`")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("`--seconds` must be positive, not {seconds}"));
    }
    // The private work directory lives in the working directory, so a run
    // reads and writes only inside its checkout.
    let work = PathBuf::from(".perfbench-work").join(format!("{workload}-{}", std::process::id()));
    Ok(Options {
        workload,
        seed: seed.ok_or("missing `--seed`")?,
        seconds,
        trace: trace.ok_or("missing `--trace`")?,
        smoke: false,
        work,
    })
}

fn main() -> ExitCode {
    fex_perfbench::measure::fix_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("perfbench: cannot create `{}`: {e}", opts.work.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work);
    let _ = std::fs::remove_dir(".perfbench-work");
    match outcome {
        Ok(report) => {
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
