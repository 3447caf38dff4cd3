//! Distributed experiments — the paper's §VI future-work item ("FEX
//! supports only single-machine experiments. We are investigating ways to
//! build distributed experiments, e.g., using the Fabric library").
//!
//! In this reproduction a *host* is a simulated machine configuration
//! (core count, clock, cache geometry — heterogeneous clusters are the
//! interesting case). A [`DistributedRun`] partitions a suite's
//! benchmarks across hosts round-robin (Fabric-style fan-out), executes
//! each partition under its host's machine, and merges the collected
//! frames with a `host` column, so cross-host comparisons use the same
//! collect/plot pipeline as everything else.
//!
//! Host failures can be injected with [`DistributedRun::kill_host`]: a
//! dead host's partition is re-distributed round-robin across the
//! survivors before execution, and the merged frame marks those runs in
//! its `rescheduled` column so the re-distribution is auditable.

use fex_suites::{InputSize, Suite};
use fex_vm::{Machine, MachineConfig, Measurement};

use crate::build::BuildSystem;
use crate::collect::DataFrame;
use crate::config::{input_name, ExperimentConfig};
use crate::error::{FexError, Result};

/// One simulated host in the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Host name (becomes the `host` column value).
    pub name: String,
    /// Cores available to `parfor`.
    pub cores: usize,
    /// Clock frequency in Hz.
    pub freq_hz: f64,
}

impl HostSpec {
    /// Creates a host.
    pub fn new(name: impl Into<String>, cores: usize, freq_hz: f64) -> Self {
        HostSpec { name: name.into(), cores: cores.max(1), freq_hz }
    }

    fn machine_config(&self, seed: u64) -> MachineConfig {
        MachineConfig { cores: self.cores, freq_hz: self.freq_hz, seed, ..MachineConfig::default() }
    }
}

/// A host's share of the work: each benchmark is flagged with whether it
/// was rescheduled off a dead host.
pub type HostPartition<'a> = (&'a HostSpec, Vec<(&'static str, bool)>);

/// A distributed experiment over one suite.
#[derive(Debug)]
pub struct DistributedRun {
    suite: Suite,
    hosts: Vec<HostSpec>,
    dead: Vec<String>,
}

impl DistributedRun {
    /// Creates a distributed run.
    ///
    /// # Errors
    ///
    /// [`FexError::Config`] when no hosts are given or the suite is
    /// proprietary.
    pub fn new(suite: Suite, hosts: Vec<HostSpec>) -> Result<Self> {
        if hosts.is_empty() {
            return Err(FexError::Config("a distributed run needs at least one host".into()));
        }
        if suite.proprietary {
            return Err(FexError::Config(format!(
                "suite `{}` is proprietary and cannot be distributed",
                suite.name
            )));
        }
        Ok(DistributedRun { suite, hosts, dead: Vec::new() })
    }

    /// Injects a host failure: `name` is considered dead and its
    /// partition is re-distributed to the surviving hosts. Unknown names
    /// are ignored (a host that never existed cannot fail).
    pub fn kill_host(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        if self.hosts.iter().any(|h| h.name == name) && !self.dead.contains(&name) {
            self.dead.push(name);
        }
        self
    }

    /// Hosts marked as failed.
    pub fn dead_hosts(&self) -> &[String] {
        &self.dead
    }

    fn is_dead(&self, name: &str) -> bool {
        self.dead.iter().any(|d| d == name)
    }

    /// The benchmark partition for each host (round-robin), ignoring
    /// host failures.
    pub fn partition(&self) -> Vec<(&HostSpec, Vec<&'static str>)> {
        let mut parts: Vec<(&HostSpec, Vec<&'static str>)> =
            self.hosts.iter().map(|h| (h, Vec::new())).collect();
        for (i, prog) in self.suite.programs.iter().enumerate() {
            parts[i % self.hosts.len()].1.push(prog.name);
        }
        parts
    }

    /// The partition actually executed: dead hosts' benchmarks are
    /// re-distributed round-robin across the survivors. Each benchmark
    /// carries a flag saying whether it was rescheduled off a dead host.
    ///
    /// # Errors
    ///
    /// [`FexError::Config`] when every host is dead.
    pub fn effective_partition(&self) -> Result<Vec<HostPartition<'_>>> {
        let mut survivors: Vec<HostPartition<'_>> =
            self.hosts.iter().filter(|h| !self.is_dead(&h.name)).map(|h| (h, Vec::new())).collect();
        if survivors.is_empty() {
            return Err(FexError::Config(
                "every host in the cluster has failed; nothing can execute".into(),
            ));
        }
        let mut orphans = Vec::new();
        for (host, benches) in self.partition() {
            if self.is_dead(&host.name) {
                orphans.extend(benches);
            } else if let Some(entry) = survivors.iter_mut().find(|(h, _)| h.name == host.name) {
                entry.1.extend(benches.into_iter().map(|b| (b, false)));
            }
        }
        let n = survivors.len();
        for (i, bench) in orphans.into_iter().enumerate() {
            survivors[i % n].1.push((bench, true));
        }
        Ok(survivors)
    }

    /// Executes the distributed experiment: each host builds (locally,
    /// with the same pinned toolchain — reproducibility is preserved by
    /// construction) and runs its partition.
    ///
    /// # Errors
    ///
    /// Build and run failures, annotated with the benchmark name.
    pub fn execute(&self, build: &mut BuildSystem, config: &ExperimentConfig) -> Result<DataFrame> {
        config.validate()?;
        let mut columns = vec![
            "host".to_string(),
            "suite".to_string(),
            "benchmark".to_string(),
            "type".to_string(),
            "input".to_string(),
            "rep".to_string(),
            "time".to_string(),
            "cycles".to_string(),
            // Appended last so positional consumers of the original
            // schema keep working.
            "rescheduled".to_string(),
        ];
        // Keep the frame shape stable regardless of tool.
        columns.dedup();
        let mut df = DataFrame::new(columns);
        for (host, benches) in self.effective_partition()? {
            for ty in &config.build_types {
                for (bench, rescheduled) in &benches {
                    let prog = self.suite.program(bench).ok_or_else(|| FexError::UnknownName {
                        kind: "benchmark",
                        name: bench.to_string(),
                    })?;
                    let artifact =
                        build.build(bench, prog.source, ty, config.debug, config.no_build)?;
                    // The distributed path has no adaptive controller:
                    // every host runs the policy's floor count (which is
                    // the exact count for `Fixed` policies).
                    for rep in 0..config.repetitions.min_reps() {
                        let machine = Machine::new(host.machine_config(config.seed));
                        let run = machine
                            .load(&artifact.program)
                            .run_entry(prog.args(effective_input(config)))
                            .map_err(|source| FexError::Run {
                                benchmark: bench.to_string(),
                                build_type: ty.to_string(),
                                source,
                            })?;
                        let m = Measurement::extract(config.tool, &run);
                        df.push(vec![
                            host.name.as_str().into(),
                            self.suite.name.into(),
                            (*bench).into(),
                            ty.as_str().into(),
                            input_name(effective_input(config)).into(),
                            (rep as i64).into(),
                            m.get("time").unwrap_or(run.wall_seconds).into(),
                            (run.elapsed_cycles as i64).into(),
                            (*rescheduled as i64).into(),
                        ]);
                    }
                }
            }
        }
        Ok(df)
    }
}

fn effective_input(config: &ExperimentConfig) -> InputSize {
    config.input
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::MakefileSet;

    fn hosts() -> Vec<HostSpec> {
        vec![HostSpec::new("node-a", 4, 3.0e9), HostSpec::new("node-b", 2, 2.0e9)]
    }

    #[test]
    fn partition_is_round_robin_and_total() {
        let run = DistributedRun::new(fex_suites::micro(), hosts()).unwrap();
        let parts = run.partition();
        let total: usize = parts.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 4);
        assert_eq!(parts[0].1, vec!["arrayread", "ptrchase"]);
        assert_eq!(parts[1].1, vec!["arraywrite", "branches"]);
    }

    #[test]
    fn executes_across_heterogeneous_hosts() {
        let run = DistributedRun::new(fex_suites::micro(), hosts()).unwrap();
        let mut build = BuildSystem::new(MakefileSet::standard());
        let config = ExperimentConfig::new("micro")
            .types(vec!["gcc_native"])
            .input(InputSize::Test)
            .repetitions(2);
        let df = run.execute(&mut build, &config).unwrap();
        // 4 benchmarks × 1 type × 2 reps.
        assert_eq!(df.len(), 8);
        assert_eq!(df.distinct("host").unwrap(), vec!["node-a", "node-b"]);
        // The slower-clocked host reports proportionally larger times for
        // identical cycle counts.
        let t = |host: &str, bench: &str| -> (f64, f64) {
            let sub = df.filter_eq("host", host).unwrap().filter_eq("benchmark", bench).unwrap();
            let row = sub.iter().next().unwrap().to_vec();
            (row[6].as_num().unwrap(), row[7].as_num().unwrap())
        };
        let (ta, ca) = t("node-a", "arrayread");
        assert!((ta - ca / 3.0e9).abs() / ta < 1e-9, "time must be cycles/freq");
        let (tb, cb) = t("node-b", "arraywrite");
        assert!((tb - cb / 2.0e9).abs() / tb < 1e-9);
    }

    #[test]
    fn invalid_cluster_configs_are_rejected() {
        assert!(DistributedRun::new(fex_suites::micro(), vec![]).is_err());
        assert!(DistributedRun::new(fex_suites::spec_cpu2006(), hosts()).is_err());
    }

    #[test]
    fn dead_host_work_is_redistributed_to_survivors() {
        let run = DistributedRun::new(fex_suites::micro(), hosts())
            .unwrap()
            .kill_host("node-b")
            .kill_host("node-b") // idempotent
            .kill_host("never-existed"); // ignored
        assert_eq!(run.dead_hosts(), &["node-b".to_string()]);

        let parts = run.effective_partition().unwrap();
        assert_eq!(parts.len(), 1, "only node-a survives");
        assert_eq!(parts[0].0.name, "node-a");
        // node-a keeps its own benches un-flagged and inherits node-b's
        // flagged as rescheduled.
        assert_eq!(
            parts[0].1,
            vec![
                ("arrayread", false),
                ("ptrchase", false),
                ("arraywrite", true),
                ("branches", true),
            ]
        );

        let mut build = BuildSystem::new(MakefileSet::standard());
        let config =
            ExperimentConfig::new("micro").types(vec!["gcc_native"]).input(InputSize::Test);
        let df = run.execute(&mut build, &config).unwrap();
        // No work is lost: all 4 benchmarks still execute.
        assert_eq!(df.len(), 4);
        assert_eq!(df.distinct("host").unwrap(), vec!["node-a"]);
        let ri = df.col("rescheduled").unwrap();
        let rescheduled: Vec<String> =
            df.iter().filter(|r| r[ri].as_num() == Some(1.0)).map(|r| r[2].to_string()).collect();
        assert_eq!(rescheduled, vec!["arraywrite", "branches"]);
    }

    #[test]
    fn a_fully_dead_cluster_cannot_execute() {
        let run = DistributedRun::new(fex_suites::micro(), hosts())
            .unwrap()
            .kill_host("node-a")
            .kill_host("node-b");
        assert!(matches!(run.effective_partition(), Err(FexError::Config(_))));
        let mut build = BuildSystem::new(MakefileSet::standard());
        let config = ExperimentConfig::new("micro").input(InputSize::Test);
        assert!(run.execute(&mut build, &config).is_err());
    }

    /// Unit results are pure functions of their coordinates, so on a
    /// homogeneous cluster losing a host moves work without changing a
    /// single measured value.
    #[test]
    fn killed_hosts_on_a_homogeneous_cluster_change_no_measurement() {
        let cluster: Vec<HostSpec> =
            (0..3).map(|i| HostSpec::new(format!("node{i}"), 2, 3.0e9)).collect();
        let config = ExperimentConfig::new("micro")
            .types(vec!["gcc_native"])
            .input(InputSize::Test)
            .repetitions(2);
        let measured = |run: DistributedRun| {
            let df = run.execute(&mut BuildSystem::new(MakefileSet::standard()), &config).unwrap();
            let (host, rescheduled) = (df.col("host").unwrap(), df.col("rescheduled").unwrap());
            let (ty, bench, rep) =
                (df.col("type").unwrap(), df.col("benchmark").unwrap(), df.col("rep").unwrap());
            let mut rows: Vec<_> = df
                .iter()
                .map(|r| {
                    let cells: Vec<String> = (0..r.len())
                        .filter(|&i| i != host && i != rescheduled)
                        .map(|i| r[i].to_string())
                        .collect();
                    let rep = r[rep].as_num().unwrap() as i64;
                    ((r[ty].to_string(), r[bench].to_string(), rep), cells)
                })
                .collect();
            rows.sort();
            rows.into_iter().map(|(_, cells)| cells).collect::<Vec<_>>()
        };
        let undisturbed =
            measured(DistributedRun::new(fex_suites::micro(), cluster.clone()).unwrap());
        let killed =
            measured(DistributedRun::new(fex_suites::micro(), cluster).unwrap().kill_host("node1"));
        assert_eq!(undisturbed.len(), 8, "4 benchmarks × 2 reps");
        assert_eq!(undisturbed, killed);
    }

    #[test]
    fn healthy_clusters_report_no_rescheduling() {
        let run = DistributedRun::new(fex_suites::micro(), hosts()).unwrap();
        let mut build = BuildSystem::new(MakefileSet::standard());
        let config =
            ExperimentConfig::new("micro").types(vec!["gcc_native"]).input(InputSize::Test);
        let df = run.execute(&mut build, &config).unwrap();
        let ri = df.col("rescheduled").unwrap();
        assert!(df.iter().all(|r| r[ri].as_num() == Some(0.0)));
    }
}
