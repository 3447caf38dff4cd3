//! `fex lab fsck` — store integrity checking, quarantine, and the disk
//! fault injector that tests it.
//!
//! The store is append-only and content-addressed, which makes every
//! corruption *detectable*: a torn index append, a run directory lost to
//! a partial `rm`, an artifact edited behind the store's back — each
//! breaks an invariant this module recomputes from scratch. `check`
//! reports; `fsck(store, quarantine=true)` additionally moves the broken
//! runs into `<root>/quarantine/` and rewrites the index to the surviving
//! entries, restoring a clean store without deleting evidence.
//!
//! The artifact graph has no index: its pass walks `graph/nodes/*` and
//! checks that each node's payload verifies against its own digest line.
//! Bad node directories move under `quarantine/graph-<hex>`.
//!
//! [`Corruption`] is the matching fault injector — the same torn-write
//! and missing-file shapes the checker must catch, applied
//! deterministically so both the unit tests here and the `fex fuzz`
//! recovery oracle can drive the checker against every failure mode.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::error::{FexError, Result};
use crate::graph;
use crate::journal::{self, Json};

use super::store::{rewrite_index, scan_index, IndexEntry, RunStore};

/// What kind of damage an [`FsckIssue`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// An index line that does not parse (torn append, editor damage).
    CorruptIndexLine,
    /// An index entry whose artifact directory is gone.
    MissingRunDir,
    /// A run directory missing one of its artifact files.
    MissingArtifact,
    /// Artifact bytes that no longer hash to the entry's run id.
    DigestMismatch,
    /// Row/failure counts in the index disagreeing with the stored CSVs.
    CountMismatch,
    /// An unreadable, unparseable or contradictory `record.json`.
    CorruptRecord,
    /// A `runs/` directory no surviving index entry references.
    OrphanRunDir,
    /// A `graph/nodes/` directory with no readable `payload.json`.
    MissingGraphNode,
    /// A node payload that is not its payload line plus that line's
    /// digest (the node was edited or torn behind the graph's back).
    GraphDigestMismatch,
}

impl IssueKind {
    /// Whether this issue lives in the artifact graph (subjects are node
    /// digests) rather than the run store (subjects are run ids).
    fn is_graph(self) -> bool {
        matches!(self, IssueKind::MissingGraphNode | IssueKind::GraphDigestMismatch)
    }
}

impl fmt::Display for IssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IssueKind::CorruptIndexLine => "corrupt-index-line",
            IssueKind::MissingRunDir => "missing-run-dir",
            IssueKind::MissingArtifact => "missing-artifact",
            IssueKind::DigestMismatch => "digest-mismatch",
            IssueKind::CountMismatch => "count-mismatch",
            IssueKind::CorruptRecord => "corrupt-record",
            IssueKind::OrphanRunDir => "orphan-run-dir",
            IssueKind::MissingGraphNode => "missing-graph-node",
            IssueKind::GraphDigestMismatch => "graph-digest-mismatch",
        })
    }
}

/// One detected integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckIssue {
    /// What is wrong.
    pub kind: IssueKind,
    /// The run id (or `index line N` for index-level damage).
    pub subject: String,
    /// Human-readable detail.
    pub detail: String,
}

/// The result of one integrity pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Index entries examined.
    pub entries_checked: usize,
    /// Artifact-graph nodes examined (0 when the lab has no graph).
    pub graph_nodes_checked: usize,
    /// Everything found wrong, in detection order.
    pub issues: Vec<FsckIssue>,
    /// Run ids (and orphan directory names) moved to `quarantine/`.
    pub quarantined: Vec<String>,
}

impl FsckReport {
    /// Whether the store passed without findings.
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Renders the `fex lab fsck` output.
    pub fn render(&self) -> String {
        let mut s = format!("checked {} index entries\n", self.entries_checked);
        if self.graph_nodes_checked > 0 {
            s.push_str(&format!("checked {} graph nodes\n", self.graph_nodes_checked));
        }
        for issue in &self.issues {
            s.push_str(&format!("{}: {} ({})\n", issue.kind, issue.subject, issue.detail));
        }
        if !self.quarantined.is_empty() {
            s.push_str(&format!(
                "quarantined {} corrupt entries (moved under quarantine/)\n",
                self.quarantined.len()
            ));
        }
        if self.clean() {
            s.push_str("store is clean\n");
        } else {
            s.push_str(&format!("{} issues found\n", self.issues.len()));
        }
        s
    }
}

/// Checks every invariant of the store without touching it (opening the
/// graph upgrades an older one first; see [`graph::ArtifactGraph::open`]).
pub fn check(store: &RunStore) -> FsckReport {
    let mut report = FsckReport::default();
    let (entries, skipped) = scan_index(&store.index_path(), "index", IndexEntry::parse);
    report.entries_checked = entries.len();
    for (line, warning) in skipped {
        report.issues.push(FsckIssue {
            kind: IssueKind::CorruptIndexLine,
            subject: format!("index line {line}"),
            detail: warning,
        });
    }
    for entry in &entries {
        check_entry(store, entry, &mut report);
    }
    let runs = store.root().join("runs");
    for name in orphan_dirs(&runs, entries.iter().map(|e| e.run_id.as_str())) {
        report.issues.push(FsckIssue {
            kind: IssueKind::OrphanRunDir,
            subject: format!("fex256:{name}"),
            detail: "no index entry references this directory".into(),
        });
    }
    check_graph(store, &mut report);
    report
}

/// Names of the directories under `dir` that no `referenced` id
/// (`fex256:` prefix optional) points at, sorted.
fn orphan_dirs<'a>(dir: &Path, referenced: impl Iterator<Item = &'a str>) -> Vec<String> {
    let referenced: BTreeSet<&str> =
        referenced.map(|id| id.trim_start_matches("fex256:")).collect();
    let Ok(dirs) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut orphans: Vec<String> = dirs
        .filter_map(|d| d.ok())
        .map(|d| d.file_name().to_string_lossy().into_owned())
        .filter(|name| !referenced.contains(name.as_str()))
        .collect();
    orphans.sort();
    orphans
}

/// The artifact-graph pass: every directory under `<root>/graph/nodes/`
/// must hold a payload that verifies against its own digest line. A lab
/// without a graph (pre-graph labs, `--no-graph` runs) skips silently.
fn check_graph(store: &RunStore, report: &mut FsckReport) {
    if !store.root().join(graph::ArtifactGraph::SUBDIR).is_dir() {
        return;
    }
    let Ok(g) = graph::ArtifactGraph::open(store.root()) else {
        return;
    };
    let names = graph::node_names(g.root());
    report.graph_nodes_checked = names.len();
    for name in names {
        let subject = format!("fex256:{name}");
        match fs::read(graph::node_dir_at(g.root(), &name).join(graph::PAYLOAD)) {
            Err(e) => report.issues.push(FsckIssue {
                kind: IssueKind::MissingGraphNode,
                subject,
                detail: format!("cannot read `payload.json`: {e}"),
            }),
            Ok(bytes) => {
                if std::str::from_utf8(&bytes).ok().and_then(graph::verified_payload).is_none() {
                    report.issues.push(FsckIssue {
                        kind: IssueKind::GraphDigestMismatch,
                        subject,
                        detail: "payload does not verify against its digest line; the node \
                                 was edited or torn"
                            .into(),
                    });
                }
            }
        }
    }
}

fn check_entry(store: &RunStore, entry: &IndexEntry, report: &mut FsckReport) {
    let dir = store.run_dir(&entry.run_id);
    let mut issue = |kind, detail: String| {
        report.issues.push(FsckIssue { kind, subject: entry.run_id.clone(), detail });
    };
    if !dir.is_dir() {
        issue(IssueKind::MissingRunDir, format!("`{}` does not exist", dir.display()));
        return;
    }
    let read = |name: &str| fs::read_to_string(dir.join(name));
    let results = read("results.csv");
    let failures = read("failures.csv");
    for (name, content) in [("results.csv", &results), ("failures.csv", &failures)] {
        if let Err(e) = content {
            issue(IssueKind::MissingArtifact, format!("cannot read `{name}`: {e}"));
        }
    }
    if let (Ok(results), Ok(failures)) = (&results, &failures) {
        let recomputed = RunStore::run_id_from_parts(&entry.key, results, failures);
        if recomputed != entry.run_id {
            issue(
                IssueKind::DigestMismatch,
                format!("artifacts hash to {recomputed}; the run was edited or torn"),
            );
        }
        let rows = results.lines().count().saturating_sub(1);
        let failure_rows = failures.lines().count().saturating_sub(1);
        if rows != entry.rows || failure_rows != entry.failures {
            issue(
                IssueKind::CountMismatch,
                format!(
                    "index says {} rows / {} failures, artifacts have {rows} / {failure_rows}",
                    entry.rows, entry.failures
                ),
            );
        }
    }
    match read("record.json") {
        Err(e) => issue(IssueKind::CorruptRecord, format!("cannot read `record.json`: {e}")),
        Ok(text) => match journal::parse_flat_object(text.trim()) {
            Err(e) => issue(IssueKind::CorruptRecord, format!("unparseable: {e}")),
            Ok(map) => {
                match map.get("run_id") {
                    Some(Json::Str(id)) if *id == entry.run_id => {}
                    other => issue(
                        IssueKind::CorruptRecord,
                        format!("record run_id {other:?} disagrees with the index"),
                    ),
                }
                // A journaled run must keep its metrics roll-up.
                if matches!(map.get("journal_digest"), Some(Json::Str(d)) if !d.is_empty())
                    && !dir.join("metrics.json").is_file()
                {
                    issue(
                        IssueKind::MissingArtifact,
                        "journaled run lost its `metrics.json`".into(),
                    );
                }
            }
        },
    }
}

/// Checks the store and, when `quarantine` is set, moves every corrupt
/// run directory (and orphan) and every bad graph node under
/// `<root>/quarantine/` and rewrites the store index to the clean
/// entries. Returns the final report.
/// Quarantining is a maintenance operation (see `rewrite_index`).
///
/// # Errors
///
/// [`FexError::Data`] on filesystem failures while quarantining.
pub fn fsck(store: &RunStore, quarantine: bool) -> Result<FsckReport> {
    let mut report = check(store);
    if !quarantine || report.clean() {
        return Ok(report);
    }
    let qdir = store.root().join("quarantine");
    fs::create_dir_all(&qdir)
        .map_err(|e| FexError::Data(format!("cannot create `{}`: {e}", qdir.display())))?;
    let bad = quarantine_side(&mut report, false, &qdir, |run_id| store.run_dir(run_id))?;
    // Rewriting the index to the entries left drops corrupt lines and bad
    // entries in one go.
    let survivors: String = store
        .scan()
        .0
        .into_iter()
        .filter(|e| !bad.contains(&e.run_id))
        .map(|e| e.to_json() + "\n")
        .collect();
    let index = store.index_path();
    rewrite_index(&index, &survivors)
        .map_err(|e| FexError::Data(format!("cannot rewrite `{}`: {e}", index.display())))?;
    // Bad graph nodes move under `quarantine/graph-<hex>`; the graph has
    // no index to rewrite.
    let groot = store.root().join(graph::ArtifactGraph::SUBDIR);
    quarantine_side(&mut report, true, &qdir, |digest| graph::node_dir_at(&groot, digest))?;
    Ok(report)
}

/// The quarantine step the store and the graph share. Every subject with
/// an issue on this side (`graph`), other than a corrupt index line, has
/// its directory (`dir_of`) moved under `qdir` and is recorded as
/// quarantined. Returns those subjects.
fn quarantine_side(
    report: &mut FsckReport,
    graph: bool,
    qdir: &Path,
    dir_of: impl Fn(&str) -> PathBuf,
) -> Result<BTreeSet<String>> {
    let bad: BTreeSet<String> = report
        .issues
        .iter()
        .filter(|i| i.kind.is_graph() == graph && i.kind != IssueKind::CorruptIndexLine)
        .map(|i| i.subject.clone())
        .collect();
    let tag = if graph { "graph-" } else { "" };
    for subject in &bad {
        let src = dir_of(subject);
        if src.is_dir() {
            let short = subject.trim_start_matches("fex256:");
            fs::rename(&src, qdir.join(format!("{tag}{short}"))).map_err(|e| {
                FexError::Data(format!("cannot quarantine `{}`: {e}", src.display()))
            })?;
        }
        report.quarantined.push(subject.clone());
    }
    Ok(bad)
}

// ---------------------------------------------------------------------
// Disk fault injection
// ---------------------------------------------------------------------

/// A deterministic store corruption, for tests and the fuzz recovery
/// oracle. Each variant is one realistic failure shape; [`inject`]
/// applies it to the newest run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Tear the final index append mid-record (crash during `save`).
    TruncatedIndex,
    /// Append a non-JSON line to the index (editor/merge damage).
    GarbageIndexLine,
    /// Delete the newest run's `results.csv`.
    MissingResultsCsv,
    /// Delete the newest run's whole artifact directory.
    MissingRunDir,
    /// Tear the newest run's `record.json` in half (partial write).
    TornRecord,
    /// Delete the newest journaled run's `metrics.json`.
    MissingMetrics,
}

impl Corruption {
    /// Every injectable corruption, in a stable order (the fuzzer indexes
    /// into this with its seeded dice).
    pub const ALL: [Corruption; 6] = [
        Corruption::TruncatedIndex,
        Corruption::GarbageIndexLine,
        Corruption::MissingResultsCsv,
        Corruption::MissingRunDir,
        Corruption::TornRecord,
        Corruption::MissingMetrics,
    ];
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Corruption::TruncatedIndex => "truncated-index",
            Corruption::GarbageIndexLine => "garbage-index-line",
            Corruption::MissingResultsCsv => "missing-results-csv",
            Corruption::MissingRunDir => "missing-run-dir",
            Corruption::TornRecord => "torn-record",
            Corruption::MissingMetrics => "missing-metrics",
        })
    }
}

/// Applies `corruption` to the newest run of `store`.
///
/// # Errors
///
/// [`FexError::Data`] when the store is empty or the filesystem refuses.
pub fn inject(store: &RunStore, corruption: Corruption) -> Result<()> {
    let latest = store.resolve("latest")?;
    let dir = store.run_dir(&latest.run_id);
    let io = |e: std::io::Error| FexError::Data(format!("fault injection failed: {e}"));
    match corruption {
        Corruption::TruncatedIndex => {
            let index = fs::read_to_string(store.index_path()).map_err(io)?;
            let torn = index.len().saturating_sub(9);
            fs::write(store.index_path(), &index[..torn]).map_err(io)?;
        }
        Corruption::GarbageIndexLine => {
            let mut index = fs::read_to_string(store.index_path()).map_err(io)?;
            index.push_str("{\"run_id\": 42, definitely not an index line\n");
            fs::write(store.index_path(), index).map_err(io)?;
        }
        Corruption::MissingResultsCsv => {
            fs::remove_file(dir.join("results.csv")).map_err(io)?;
        }
        Corruption::MissingRunDir => {
            fs::remove_dir_all(&dir).map_err(io)?;
        }
        Corruption::TornRecord => {
            let record = fs::read_to_string(dir.join("record.json")).map_err(io)?;
            fs::write(dir.join("record.json"), &record[..record.len() / 2]).map_err(io)?;
        }
        Corruption::MissingMetrics => {
            fs::remove_file(dir.join("metrics.json")).map_err(io)?;
        }
    }
    Ok(())
}

/// A deterministic artifact-graph corruption. Kept separate from
/// [`Corruption`] — the fuzzer's seeded dice index into
/// [`Corruption::ALL`] by position, so that array must never grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphCorruption {
    /// Delete the last node's `payload.json`.
    MissingNodePayload,
    /// Append bytes to the last node's payload (silent edit).
    EditedNodePayload,
}

impl GraphCorruption {
    /// Every injectable graph corruption, in a stable order.
    pub const ALL: [GraphCorruption; 2] =
        [GraphCorruption::MissingNodePayload, GraphCorruption::EditedNodePayload];
}

impl fmt::Display for GraphCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GraphCorruption::MissingNodePayload => "missing-node-payload",
            GraphCorruption::EditedNodePayload => "edited-node-payload",
        })
    }
}

/// Applies `corruption` to the node of `store`'s artifact graph whose
/// name sorts last.
///
/// # Errors
///
/// [`FexError::Data`] when the graph is missing or empty, or the
/// filesystem refuses.
pub fn inject_graph(store: &RunStore, corruption: GraphCorruption) -> Result<()> {
    let groot = store.root().join(graph::ArtifactGraph::SUBDIR);
    let io = |e: std::io::Error| FexError::Data(format!("graph fault injection failed: {e}"));
    let last = graph::node_names(&groot)
        .pop()
        .ok_or_else(|| FexError::Data("the artifact graph is empty".into()))?;
    let path = graph::node_dir_at(&groot, &last).join(graph::PAYLOAD);
    match corruption {
        GraphCorruption::MissingNodePayload => fs::remove_file(&path).map_err(io)?,
        GraphCorruption::EditedNodePayload => {
            let mut payload = fs::read_to_string(&path).map_err(io)?;
            payload.push_str("# tampered\n");
            fs::write(&path, payload).map_err(io)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::lab::RunArtifacts;
    use fex_suites::InputSize;

    fn temp_store(tag: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("fex-fsck-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    fn populated(tag: &str) -> RunStore {
        let store = temp_store(tag);
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let art = |results: &'static str| RunArtifacts {
            results_csv: results,
            failures_csv: "benchmark,type,threads,rep,error,attempts,outcome\n",
            metrics_json: Some("{}"),
            journal_digest: Some("fex256:00000000000000000000000000000abc"),
        };
        store.save(&cfg, &art("h\n1\n")).unwrap();
        store.save(&cfg.clone().seed(99), &art("h\n2\n")).unwrap();
        store
    }

    #[test]
    fn clean_store_passes() {
        let store = populated("clean");
        let report = check(&store);
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.entries_checked, 2);
        assert!(report.render().contains("store is clean"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_injected_corruption_is_detected() {
        for corruption in Corruption::ALL {
            let store = populated(&format!("inject-{corruption}"));
            inject(&store, corruption).unwrap();
            let report = check(&store);
            assert!(!report.clean(), "{corruption} went undetected");
            let expected = match corruption {
                Corruption::TruncatedIndex => IssueKind::CorruptIndexLine,
                Corruption::GarbageIndexLine => IssueKind::CorruptIndexLine,
                Corruption::MissingResultsCsv => IssueKind::MissingArtifact,
                Corruption::MissingRunDir => IssueKind::MissingRunDir,
                Corruption::TornRecord => IssueKind::CorruptRecord,
                Corruption::MissingMetrics => IssueKind::MissingArtifact,
            };
            assert!(
                report.issues.iter().any(|i| i.kind == expected),
                "{corruption}: wanted {expected}, got {}",
                report.render()
            );
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn edited_artifacts_fail_the_digest_check() {
        let store = populated("digest");
        let latest = store.resolve("latest").unwrap();
        let path = store.run_dir(&latest.run_id).join("results.csv");
        fs::write(&path, "h\n2\n# tampered\n").unwrap();
        let report = check(&store);
        let kinds: Vec<IssueKind> = report.issues.iter().map(|i| i.kind).collect();
        assert!(kinds.contains(&IssueKind::DigestMismatch), "{}", report.render());
        assert!(kinds.contains(&IssueKind::CountMismatch), "{}", report.render());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn quarantine_restores_a_clean_store() {
        let store = populated("quarantine");
        inject(&store, Corruption::MissingResultsCsv).unwrap();
        let report = fsck(&store, true).unwrap();
        assert!(!report.clean());
        assert_eq!(report.quarantined.len(), 1);
        // The quarantined run's remains are preserved, not deleted.
        let short = report.quarantined[0].trim_start_matches("fex256:");
        assert!(store.root().join("quarantine").join(short).is_dir());
        // And a second pass finds nothing left to complain about.
        let after = check(&store);
        assert!(after.clean(), "{}", after.render());
        assert_eq!(after.entries_checked, 1, "the intact run survived");
        let _ = fs::remove_dir_all(store.root());
    }

    /// A populated store with a small artifact graph beside it: three
    /// run-unit nodes, stored through the real graph API so index lines
    /// and payload digests are genuine.
    fn populated_with_graph(tag: &str) -> RunStore {
        use fex_container::Digest;
        let store = populated(tag);
        let mut g = graph::ArtifactGraph::open(store.root()).unwrap();
        for key in 1..=3 {
            g.store_run(&Digest(key), &graph::tests::sample_run()).unwrap();
        }
        store
    }

    #[test]
    fn clean_graph_passes() {
        let store = populated_with_graph("graph-clean");
        let report = check(&store);
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.graph_nodes_checked, 3);
        assert!(report.render().contains("checked 3 graph nodes"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_injected_graph_corruption_is_detected() {
        for corruption in GraphCorruption::ALL {
            let store = populated_with_graph(&format!("graph-inject-{corruption}"));
            inject_graph(&store, corruption).unwrap();
            let report = check(&store);
            assert!(!report.clean(), "{corruption} went undetected");
            let expected = match corruption {
                GraphCorruption::MissingNodePayload => IssueKind::MissingGraphNode,
                GraphCorruption::EditedNodePayload => IssueKind::GraphDigestMismatch,
            };
            assert!(
                report.issues.iter().any(|i| i.kind == expected),
                "{corruption}: wanted {expected}, got {}",
                report.render()
            );
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn graph_quarantine_restores_a_clean_store() {
        for corruption in GraphCorruption::ALL {
            let store = populated_with_graph(&format!("graph-quarantine-{corruption}"));
            inject_graph(&store, corruption).unwrap();
            let report = fsck(&store, true).unwrap();
            assert!(!report.clean(), "{corruption}");
            let after = check(&store);
            assert!(after.clean(), "{corruption}: {}", after.render());
            // Graph damage must never quarantine run directories: the two
            // intact runs survive every graph corruption.
            assert_eq!(after.entries_checked, 2, "{corruption} touched the run store");
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn graph_quarantine_preserves_evidence() {
        let store = populated_with_graph("graph-evidence");
        inject_graph(&store, GraphCorruption::EditedNodePayload).unwrap();
        let report = fsck(&store, true).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        let short = report.quarantined[0].trim_start_matches("fex256:");
        let moved = store.root().join("quarantine").join(format!("graph-{short}"));
        assert!(moved.join("payload.json").is_file(), "edited payload kept as evidence");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn quarantine_sweeps_orphan_directories() {
        let store = populated("orphan");
        inject(&store, Corruption::TruncatedIndex).unwrap();
        let report = check(&store);
        // The torn entry's directory is now unreferenced.
        assert!(report.issues.iter().any(|i| i.kind == IssueKind::CorruptIndexLine));
        assert!(report.issues.iter().any(|i| i.kind == IssueKind::OrphanRunDir));
        let fixed = fsck(&store, true).unwrap();
        assert!(!fixed.quarantined.is_empty());
        assert!(check(&store).clean());
        let _ = fs::remove_dir_all(store.root());
    }
}
