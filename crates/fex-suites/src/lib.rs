//! # fex-suites — the benchmark programs
//!
//! The Cmm sources for every workload Table I of the paper lists:
//!
//! * [`phoenix`] — 7 MapReduce-style programs (I/O- and memory-intensive),
//! * [`splash`] — the 12 SPLASH-3 parallel kernels/apps,
//! * [`parsec`] — a 7-program PARSEC subset (complex multithreaded),
//! * [`micro`] — debugging microbenchmarks ("e.g., reading from an array"),
//! * [`spec_cpu2006`] — registered but proprietary, exactly as in the
//!   paper ("SPEC CPU cannot be made publicly available and will not be
//!   open-sourced as part of FEX").
//!
//! Each [`BenchProgram`] carries its source, its `test` and `native`
//! argument sets (the paper's `-i test` tiny-input mode), and whether it
//! wants a preliminary dry run (Phoenix does, §II-A).
//!
//! The crate is pure data — compiling and running the programs is the
//! framework's job — so it has no dependencies.

mod micro;
mod parsec;
mod phoenix;
mod spec;
mod splash;

/// Input sizing, mirroring `fex.py -i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSize {
    /// Tiny inputs for correctness tests (`-i test`).
    Test,
    /// Reduced inputs for quick measurements.
    Small,
    /// Full-size inputs for reported numbers.
    Native,
}

/// One benchmark program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchProgram {
    /// Short name (`histogram`, `fft`, …).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Cmm source code.
    pub source: &'static str,
    /// Arguments for `-i test` runs.
    pub test_args: Vec<i64>,
    /// Arguments for small runs.
    pub small_args: Vec<i64>,
    /// Arguments for native runs.
    pub native_args: Vec<i64>,
    /// Whether the runner should perform a preliminary dry run (Phoenix's
    /// `per_benchmark_action` in the paper): one unrecorded run per
    /// (build type, benchmark), ahead of its measured reps.
    pub dry_run: bool,
}

impl BenchProgram {
    /// Arguments for the given input size.
    pub fn args(&self, size: InputSize) -> &[i64] {
        match size {
            InputSize::Test => &self.test_args,
            InputSize::Small => &self.small_args,
            InputSize::Native => &self.native_args,
        }
    }
}

/// A benchmark suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suite {
    /// Suite name (`phoenix`, `splash`, …).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Programs, in canonical order.
    pub programs: Vec<BenchProgram>,
    /// Whether the programs scale with thread count (`-m`).
    pub multithreaded: bool,
    /// True for suites whose sources cannot be distributed (SPEC).
    pub proprietary: bool,
}

impl Suite {
    /// Looks a program up by name.
    pub fn program(&self, name: &str) -> Option<&BenchProgram> {
        self.programs.iter().find(|p| p.name == name)
    }
}

pub use micro::micro;
pub use parsec::parsec;
pub use phoenix::phoenix;
pub use spec::spec_cpu2006;
pub use splash::splash;

/// All suites in the standard distribution, in Table I order.
pub fn all_suites() -> Vec<Suite> {
    vec![phoenix(), splash(), parsec(), spec_cpu2006(), micro()]
}

/// Suites whose sources ship with the framework (excludes SPEC).
pub fn open_suites() -> Vec<Suite> {
    all_suites().into_iter().filter(|s| !s.proprietary).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table_one() {
        let names: Vec<&str> = all_suites().iter().map(|s| s.name).collect();
        assert_eq!(names, ["phoenix", "splash", "parsec", "spec_cpu2006", "micro"]);
        assert_eq!(phoenix().programs.len(), 7);
        assert_eq!(splash().programs.len(), 12);
        assert_eq!(parsec().programs.len(), 7);
        assert_eq!(micro().programs.len(), 4);
    }

    #[test]
    fn spec_is_proprietary_and_sourceless() {
        let spec = spec_cpu2006();
        assert!(spec.proprietary);
        assert!(spec.programs.iter().all(|p| p.source.is_empty()));
        assert!(open_suites().iter().all(|s| s.name != "spec_cpu2006"));
    }

    #[test]
    fn every_open_program_has_sources_and_args() {
        for suite in open_suites() {
            for p in &suite.programs {
                assert!(!p.source.is_empty(), "{} has no source", p.name);
                assert!(!p.test_args.is_empty(), "{} has no test args", p.name);
                assert!(!p.native_args.is_empty(), "{} has no native args", p.name);
                assert_eq!(p.args(InputSize::Test), p.test_args.as_slice());
            }
        }
    }

    #[test]
    fn phoenix_wants_dry_runs() {
        assert!(phoenix().programs.iter().all(|p| p.dry_run));
        assert!(micro().programs.iter().all(|p| !p.dry_run));
    }

    #[test]
    fn program_lookup() {
        assert!(splash().program("fft").is_some());
        assert!(splash().program("nope").is_none());
    }
}
