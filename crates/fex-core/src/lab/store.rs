//! The on-disk run store.
//!
//! Layout (everything under the store root, default `.fex-lab/`):
//!
//! ```text
//! .fex-lab/
//!   index.json                 # one flat JSON object per line, append-only
//!   runs/<digest>/results.csv  # the collected frame
//!   runs/<digest>/failures.csv # the failure report
//!   runs/<digest>/metrics.json # journal metrics roll-up (when journaled)
//!   runs/<digest>/record.json  # the index line again, self-describing
//! ```
//!
//! Runs are **content addressed**: the run id is a digest over the
//! experiment key (name, build matrix, benchmark filter, thread sweep,
//! repetition policy, input, seed, tool, debug) *and* the result bytes, so
//! re-running a deterministic configuration produces the same id. The
//! index is append-only and a line's position in it is its sequence
//! number — no stored counter and no wall-clock timestamps, so stored
//! artifacts stay byte-reproducible. Duplicate run ids are allowed (two
//! identical runs are two index lines), which is exactly what a "compare
//! the same commit twice, expect unchanged" CI smoke test needs.
//!
//! Concurrency rule: concurrent `O_APPEND` line writes from threads or
//! processes never overwrite or interleave one another, and a crash tears
//! at most the last line. `gc` and `fex lab fsck --quarantine` are
//! maintenance operations (see `rewrite_index`).

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

use fex_container::DigestBuilder;

use crate::config::ExperimentConfig;
use crate::error::{FexError, Result};
use crate::journal::{self, Json, JsonLine};

/// Artifacts of one completed experiment, borrowed from the workflow.
#[derive(Debug, Clone, Copy)]
pub struct RunArtifacts<'a> {
    /// The results frame as CSV.
    pub results_csv: &'a str,
    /// The failure report as CSV (header-only when clean).
    pub failures_csv: &'a str,
    /// The journal metrics roll-up, when journaling was on.
    pub metrics_json: Option<&'a str>,
    /// Digest of the journal stream, when journaling was on.
    pub journal_digest: Option<&'a str>,
}

/// One line of the store index; its position is its sequence number (a
/// `seq` key on lines written by older versions is ignored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Content-addressed run id (`fex256:…`).
    pub run_id: String,
    /// Experiment name.
    pub experiment: String,
    /// Human-readable experiment key (the digested configuration axes).
    pub key: String,
    /// Rows in the stored results CSV.
    pub rows: usize,
    /// Records in the stored failure report.
    pub failures: usize,
}

impl IndexEntry {
    pub(crate) fn to_json(&self) -> String {
        let mut w = JsonLine::object("run_id", &self.run_id);
        w.str("experiment", &self.experiment)
            .str("key", &self.key)
            .num("rows", self.rows as i64)
            .num("failures", self.failures as i64);
        w.finish()
    }

    pub(crate) fn parse(line: &str) -> Result<IndexEntry> {
        let bad = |i: journal::ParseIssue| FexError::Data(format!("corrupt store index: {i}"));
        let map = journal::parse_flat_object(line).map_err(bad)?;
        let get = |k| journal::get_str(&map, k).map(str::to_string).map_err(bad);
        Ok(IndexEntry {
            run_id: get("run_id")?,
            experiment: get("experiment")?,
            key: get("key")?,
            rows: journal::get_u64(&map, "rows").map_err(bad)? as usize,
            failures: journal::get_u64(&map, "failures").map_err(bad)? as usize,
        })
    }
}

/// The content-addressed archive of completed experiments.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// Default store directory, relative to the working directory.
    pub const DEFAULT_DIR: &'static str = ".fex-lab";

    /// Opens (creating if necessary) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let root = dir.into();
        fs::create_dir_all(root.join("runs")).map_err(|e| {
            FexError::Data(format!("cannot create store at `{}`: {e}", root.display()))
        })?;
        Ok(RunStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The human-readable experiment key digested into the run id.
    pub fn experiment_key(config: &ExperimentConfig) -> String {
        let mut key = String::new();
        let _ = write!(
            key,
            "{} types={:?} bench={} threads={:?} reps={:?} input={:?} seed={} tool={:?} debug={}",
            config.name,
            config.build_types,
            config.benchmark.as_deref().unwrap_or("*"),
            config.threads,
            config.repetitions,
            config.input,
            config.seed,
            config.tool,
            config.debug,
        );
        key
    }

    /// The content-addressed run id of a configuration + its results.
    pub fn run_id(config: &ExperimentConfig, art: &RunArtifacts<'_>) -> String {
        Self::run_id_from_parts(&Self::experiment_key(config), art.results_csv, art.failures_csv)
    }

    /// The run id recomputed from its stored parts: the experiment key
    /// (as archived in the index) and the artifact bytes. `fex lab fsck`
    /// uses this to detect silently-edited artifacts.
    pub fn run_id_from_parts(key: &str, results_csv: &str, failures_csv: &str) -> String {
        let mut d = DigestBuilder::new();
        d.update_str(key).update_str(results_csv).update_str(failures_csv);
        d.finish().to_string()
    }

    /// Archives one completed run: writes its artifact directory and
    /// appends an index line. Returns the new entry.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on filesystem failures or a corrupt index.
    pub fn save(&self, config: &ExperimentConfig, art: &RunArtifacts<'_>) -> Result<IndexEntry> {
        let run_id = Self::run_id(config, art);
        let entry = IndexEntry {
            run_id: run_id.clone(),
            experiment: config.name.clone(),
            key: Self::experiment_key(config),
            rows: art.results_csv.lines().count().saturating_sub(1),
            failures: art.failures_csv.lines().count().saturating_sub(1),
        };
        let dir = self.run_dir(&run_id);
        let io = |e: std::io::Error| FexError::Data(format!("store write failed: {e}"));
        fs::create_dir_all(&dir).map_err(io)?;
        fs::write(dir.join("results.csv"), art.results_csv).map_err(io)?;
        fs::write(dir.join("failures.csv"), art.failures_csv).map_err(io)?;
        if let Some(m) = art.metrics_json {
            fs::write(dir.join("metrics.json"), m).map_err(io)?;
        }
        let mut record = JsonLine::object("run_id", &run_id);
        record
            .str("experiment", &entry.experiment)
            .str("key", &entry.key)
            .num("rows", entry.rows as i64)
            .num("failures", entry.failures as i64)
            .str("journal_digest", art.journal_digest.unwrap_or(""));
        fs::write(dir.join("record.json"), record.finish() + "\n").map_err(io)?;
        append_index_line(&self.index_path(), &entry.to_json()).map_err(io)?;
        Ok(entry)
    }

    /// All index entries in insertion order.
    ///
    /// Corrupt lines are skipped (see [`RunStore::scan`]); an interrupted
    /// append — a truncated or garbage trailing line — must not take the
    /// whole store down with it.
    ///
    /// # Errors
    ///
    /// Kept for API stability; the skip-and-warn reader never fails.
    pub fn list(&self) -> Result<Vec<IndexEntry>> {
        Ok(self.scan().0)
    }

    /// Reads the index with per-line fault isolation: every parseable
    /// entry, plus one warning per skipped line — the same discipline as
    /// the journal reader. A store whose last append was torn by a crash
    /// stays listable, resolvable and appendable.
    pub fn scan(&self) -> (Vec<IndexEntry>, Vec<String>) {
        let (entries, skipped) = scan_index(&self.index_path(), "index", IndexEntry::parse);
        (entries, skipped.into_iter().map(|(_, warning)| warning).collect())
    }

    /// Resolves a selector to an index entry: `latest` (newest entry),
    /// `prev` (second newest), or a unique `run_id` prefix (with or
    /// without the `fex256:` prefix).
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] when the store is empty, nothing matches, or a
    /// prefix is ambiguous.
    pub fn resolve(&self, selector: &str) -> Result<IndexEntry> {
        let entries = self.list()?;
        if entries.is_empty() {
            return Err(FexError::Data(format!(
                "store `{}` is empty; run with --lab first",
                self.root.display()
            )));
        }
        match selector {
            "latest" => Ok(entries[entries.len() - 1].clone()),
            "prev" => entries
                .len()
                .checked_sub(2)
                .map(|i| entries[i].clone())
                .ok_or_else(|| FexError::Data("store has only one run; no `prev`".into())),
            prefix => {
                let wanted = prefix.trim_start_matches("fex256:");
                let mut matches: Vec<&IndexEntry> = entries
                    .iter()
                    .filter(|e| e.run_id.trim_start_matches("fex256:").starts_with(wanted))
                    .collect();
                // The same run id may be stored several times; those are
                // interchangeable, so keep the newest.
                matches.dedup_by(|a, b| a.run_id == b.run_id);
                match matches[..] {
                    [] => Err(FexError::Data(format!("no stored run matches `{selector}`"))),
                    [one] => Ok(one.clone()),
                    _ => Err(FexError::Data(format!(
                        "run id prefix `{selector}` is ambiguous ({} matches)",
                        matches.len()
                    ))),
                }
            }
        }
    }

    /// Reads the stored results CSV of an entry.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] naming the corrupt run when the artifact is
    /// missing or unreadable (`fex lab fsck` finds and quarantines such
    /// runs).
    pub fn results_csv(&self, entry: &IndexEntry) -> Result<String> {
        let path = self.run_dir(&entry.run_id).join("results.csv");
        fs::read_to_string(&path).map_err(|e| {
            FexError::Data(format!(
                "run {} is corrupt: cannot read `{}`: {e}; try `fex lab fsck`",
                entry.run_id,
                path.display()
            ))
        })
    }

    /// Garbage-collects the store: per experiment key, keeps the newest
    /// `keep` entries and deletes the rest (index lines and, when no
    /// surviving entry references them, artifact directories). Returns
    /// the number of index entries removed.
    ///
    /// A maintenance operation (see `rewrite_index`).
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on filesystem failures or a corrupt index.
    pub fn gc(&self, keep: usize) -> Result<usize> {
        let entries = self.list()?;
        let mut kept: Vec<&IndexEntry> = Vec::new();
        // Walk newest-first so "the newest `keep` per key" is a simple
        // counter; then restore insertion order.
        let mut seen: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for e in entries.iter().rev() {
            let n = seen.entry(e.key.as_str()).or_insert(0);
            if *n < keep {
                kept.push(e);
                *n += 1;
            }
        }
        kept.reverse();
        let removed = entries.len() - kept.len();
        let live: std::collections::BTreeSet<&str> =
            kept.iter().map(|e| e.run_id.as_str()).collect();
        for e in &entries {
            if !live.contains(e.run_id.as_str()) {
                let _ = fs::remove_dir_all(self.run_dir(&e.run_id));
            }
        }
        let index: String = kept.iter().map(|e| e.to_json() + "\n").collect();
        rewrite_index(&self.index_path(), &index)
            .map_err(|e| FexError::Data(format!("store write failed: {e}")))?;
        Ok(removed)
    }

    /// Renders `fex lab list` output. The `seq` column is each entry's
    /// position in `entries`. The `repro` column is the
    /// [`ReproScore`](crate::diag::ReproScore) — readiness + outcome out
    /// of 100 — so stored runs rank by reproducibility health.
    pub fn render_list(&self, entries: &[IndexEntry]) -> String {
        if entries.is_empty() {
            return "(store is empty)\n".to_string();
        }
        let mut s = format!(
            "seq   {:<40} {:<12} {:>6} {:>9} {:>8}\n",
            "run id", "experiment", "rows", "failures", "repro"
        );
        for (seq, e) in entries.iter().enumerate() {
            let score = crate::diag::repro_score(self, e);
            let _ = writeln!(
                s,
                "{:<5} {:<40} {:<12} {:>6} {:>9} {:>8}",
                seq,
                e.run_id,
                e.experiment,
                e.rows,
                e.failures,
                score.render()
            );
        }
        s
    }

    /// Renders `fex lab list --json`: one flat-JSON object per line with
    /// the table's fields plus the split repro score, so CI scripts can
    /// consume the store without screen-scraping.
    pub fn render_list_json(&self, entries: &[IndexEntry]) -> String {
        let mut s = String::new();
        for (seq, e) in entries.iter().enumerate() {
            let score = crate::diag::repro_score(self, e);
            let mut w = JsonLine::object("run_id", &e.run_id);
            w.num("seq", seq as i64)
                .str("experiment", &e.experiment)
                .str("key", &e.key)
                .num("rows", e.rows as i64)
                .num("failures", e.failures as i64)
                .num("repro", score.total() as i64)
                .num("readiness", score.readiness as i64)
                .num("outcome", score.outcome as i64);
            s.push_str(&w.finish());
            s.push('\n');
        }
        s
    }

    /// Renders `fex lab show <selector>` output.
    pub fn render_show(&self, entry: &IndexEntry) -> Result<String> {
        let mut s = String::new();
        let _ = writeln!(s, "run id:     {}", entry.run_id);
        let _ = writeln!(s, "experiment: {}", entry.experiment);
        let _ = writeln!(s, "key:        {}", entry.key);
        let _ = writeln!(s, "rows:       {}", entry.rows);
        let _ = writeln!(s, "failures:   {}", entry.failures);
        let record = self.run_dir(&entry.run_id).join("record.json");
        if let Ok(text) = fs::read_to_string(&record) {
            if let Ok(map) = journal::parse_flat_object(text.trim()) {
                if let Some(Json::Str(d)) = map.get("journal_digest") {
                    if !d.is_empty() {
                        let _ = writeln!(s, "journal:    {d}");
                    }
                }
            }
        }
        Ok(s)
    }

    pub(crate) fn index_path(&self) -> PathBuf {
        self.root.join("index.json")
    }

    pub(crate) fn run_dir(&self, run_id: &str) -> PathBuf {
        self.root.join("runs").join(run_id.trim_start_matches("fex256:"))
    }
}

/// Reads an append-only index file (the run store's, or an older artifact
/// graph's during its one-time upgrade) with per-line fault isolation:
/// every line `parse` accepts, plus a `(line number, warning)` pair per
/// skipped line, the warning naming the index by `label`. Blank lines are
/// ignored and a missing file reads as empty.
pub(crate) fn scan_index<T>(
    path: &Path,
    label: &str,
    parse: impl Fn(&str) -> Result<T>,
) -> (Vec<T>, Vec<(usize, String)>) {
    let Ok(text) = fs::read_to_string(path) else {
        return (Vec::new(), Vec::new());
    };
    let mut entries = Vec::new();
    let mut skipped = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Ok(e) => entries.push(e),
            Err(e) => skipped.push((i + 1, format!("skipping {label} line {}: {e}", i + 1))),
        }
    }
    (entries, skipped)
}

/// Appends one line to the run store's append-only index with one
/// `O_APPEND` write. Only the last byte is
/// read: if a crash tore the previous append mid-line, a leading newline
/// seals the fragment onto its own line, where the reader skips it.
pub(crate) fn append_index_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut file = fs::OpenOptions::new().read(true).append(true).create(true).open(path)?;
    let mut last = [b'\n'];
    if let Some(end) = file.metadata()?.len().checked_sub(1) {
        file.read_exact_at(&mut last, end)?;
    }
    let seal = if last[0] == b'\n' { "" } else { "\n" };
    file.write_all(format!("{seal}{line}\n").as_bytes())
}

/// Replaces an index file whole through `index.json.tmp` and a rename, so
/// a crash leaves the old index or the new one. For maintenance only: a
/// line another writer appends meanwhile is lost, and its run dir is an
/// orphan in the next `fex lab fsck`.
pub(crate) fn rewrite_index(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fex_suites::InputSize;

    fn temp_store(tag: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("fex-lab-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    fn art(results: &'static str) -> RunArtifacts<'static> {
        RunArtifacts {
            results_csv: results,
            failures_csv: "benchmark,type,threads,rep,error,attempts,outcome\n",
            metrics_json: Some("{}"),
            journal_digest: Some("fex256:00000000000000000000000000000abc"),
        }
    }

    #[test]
    fn save_list_resolve_roundtrip() {
        let store = temp_store("roundtrip");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n2\n")).unwrap();
        let b = store.save(&cfg.clone().seed(43), &art("h\n3\n")).unwrap();
        assert_ne!(a.run_id, b.run_id, "different seeds, different ids");
        assert_eq!(a.rows, 2);

        let entries = store.list().unwrap();
        assert_eq!(entries, vec![a.clone(), b.clone()]);
        assert_eq!(store.resolve("latest").unwrap(), b);
        assert_eq!(store.resolve("prev").unwrap(), a);
        assert_eq!(store.resolve(&a.run_id).unwrap(), a);
        let prefix = &a.run_id.trim_start_matches("fex256:")[..12];
        assert_eq!(store.resolve(prefix).unwrap(), a);
        assert!(store.resolve("zzzz").is_err());
        assert_eq!(store.results_csv(&a).unwrap(), "h\n1\n2\n");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn identical_runs_share_an_id_but_not_an_index_line() {
        let store = temp_store("dup");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n")).unwrap();
        let b = store.save(&cfg, &art("h\n1\n")).unwrap();
        assert_eq!(a.run_id, b.run_id);
        assert_eq!(store.list().unwrap().len(), 2);
        // A shared id resolves to the duplicate, not an ambiguity error.
        assert_eq!(store.resolve(&a.run_id).unwrap().run_id, a.run_id);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_keeps_the_newest_per_key() {
        let store = temp_store("gc");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        store.save(&cfg, &art("h\n1\n")).unwrap();
        store.save(&cfg, &art("h\n2\n")).unwrap();
        let other = store.save(&cfg.clone().seed(99), &art("h\n3\n")).unwrap();
        let removed = store.gc(1).unwrap();
        assert_eq!(removed, 1, "one of the two same-key entries goes");
        let left = store.list().unwrap();
        assert_eq!(left.len(), 2);
        assert!(left.iter().any(|e| e.run_id == other.run_id));
        // Survivors keep their artifacts readable.
        for e in &left {
            assert!(store.results_csv(e).is_ok());
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_trailing_index_line_is_skipped_with_a_warning() {
        let store = temp_store("truncated");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n")).unwrap();
        store.save(&cfg.clone().seed(99), &art("h\n2\n")).unwrap();

        // Tear the last append mid-byte, as a crash during `save` would.
        let index = fs::read_to_string(store.index_path()).unwrap();
        fs::write(store.index_path(), &index[..index.len() - 9]).unwrap();

        let (entries, warnings) = store.scan();
        assert_eq!(entries, vec![a.clone()], "the intact entry survives");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("index line 2"), "{warnings:?}");

        // Every reader path stays functional on the torn store.
        assert_eq!(store.list().unwrap(), vec![a.clone()]);
        assert_eq!(store.resolve("latest").unwrap(), a);
        let c = store.save(&cfg.clone().seed(7), &art("h\n3\n")).unwrap();
        assert_eq!(store.list().unwrap(), vec![a, c], "appends still work");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_torn_offset_of_the_last_append_loses_at_most_that_line() {
        use crate::lab::fsck::{check, IssueKind};
        let store = temp_store("torn-every");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let earlier = [
            store.save(&cfg, &art("h\n1\n")).unwrap(),
            store.save(&cfg.clone().seed(99), &art("h\n2\n")).unwrap(),
        ];
        let start = fs::read(store.index_path()).unwrap().len();
        let last = store.save(&cfg.clone().seed(7), &art("h\n3\n")).unwrap();
        let full = fs::read(store.index_path()).unwrap();
        for k in start..full.len() {
            // A crash after `k` bytes of the last line reached the disk.
            fs::write(store.index_path(), &full[..k]).unwrap();
            let (entries, warnings) = store.scan();
            assert_eq!(entries[..2], earlier[..], "offset {k}");
            assert!(entries.len() == 2 || entries[2] == last, "offset {k}: {entries:?}");
            assert!(warnings.len() <= 1, "offset {k}: {warnings:?}");

            // The torn line's run dir was written before the append, so
            // it may be an orphan; nothing else may be reported.
            let report = check(&store);
            let corrupt = report.issues.iter().filter(|i| i.kind == IssueKind::CorruptIndexLine);
            assert!(corrupt.count() <= 1, "offset {k}: {}", report.render());
            assert!(
                report.issues.iter().all(|i| i.kind == IssueKind::CorruptIndexLine
                    || (i.kind == IssueKind::OrphanRunDir && i.subject == last.run_id)),
                "offset {k}: {}",
                report.render()
            );

            let next = store.save(&cfg.clone().seed(11), &art("h\n4\n")).unwrap();
            let listed = store.list().unwrap();
            assert_eq!(listed[..2], earlier[..], "offset {k}");
            assert_eq!(listed.last(), Some(&next), "offset {k}");
            assert_eq!(store.resolve("latest").unwrap(), next, "offset {k}");
            fs::remove_dir_all(store.run_dir(&next.run_id)).unwrap();
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn concurrent_savers_lose_no_line() {
        let store = temp_store("concurrent");
        let root = store.root().to_path_buf();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let root = &root;
                s.spawn(move || {
                    let own = RunStore::open(root).unwrap();
                    for i in 0..50 {
                        let cfg =
                            ExperimentConfig::new("micro").input(InputSize::Test).seed(t * 100 + i);
                        own.save(&cfg, &art("h\n1\n")).unwrap();
                    }
                });
            }
        });
        let (entries, warnings) = store.scan();
        assert!(warnings.is_empty(), "{warnings:?}");
        let ids: std::collections::BTreeSet<&str> =
            entries.iter().map(|e| e.run_id.as_str()).collect();
        assert_eq!((entries.len(), ids.len()), (200, 200));
        let report = crate::lab::fsck::check(&store);
        assert!(report.clean(), "{}", report.render());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn index_and_records_written_with_a_stored_seq_still_open() {
        // Older versions stored a `seq` key on index lines and in
        // `record.json`; `gc` could leave gaps in it.
        let store = temp_store("seq-format");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let old: Vec<IndexEntry> =
            (0..3).map(|i| store.save(&cfg.clone().seed(i), &art("h\n1\n")).unwrap()).collect();
        let with_seq = |line: &str, seq: u64| {
            line.replacen(", \"experiment\"", &format!(", \"seq\": {seq}, \"experiment\""), 1)
        };
        let mut index = String::new();
        for (e, seq) in old.iter().zip([0, 2, 3]) {
            index.push_str(&with_seq(&e.to_json(), seq));
            index.push('\n');
            let record = store.run_dir(&e.run_id).join("record.json");
            let text = fs::read_to_string(&record).unwrap();
            fs::write(&record, with_seq(&text, seq)).unwrap();
        }
        assert!(index.contains("\"seq\": 2"), "{index}");
        fs::write(store.index_path(), &index).unwrap();

        let (entries, warnings) = store.scan();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(entries, old);
        let json = store.render_list_json(&entries);
        let seqs: Vec<&str> = json
            .lines()
            .map(|l| l.split("\"seq\": ").nth(1).unwrap().split(',').next().unwrap())
            .collect();
        assert_eq!(seqs, ["0", "1", "2"], "listed by position");
        let table = store.render_list(&entries);
        assert!(table.lines().nth(3).unwrap().starts_with("2     fex256:"), "{table}");
        assert_eq!(store.resolve("latest").unwrap(), old[2]);
        assert_eq!(store.resolve("prev").unwrap(), old[1]);
        let report = crate::lab::fsck::check(&store);
        assert!(report.clean(), "{}", report.render());

        let next = store.save(&cfg.clone().seed(9), &art("h\n2\n")).unwrap();
        assert!(fs::read_to_string(store.index_path()).unwrap().starts_with(&index));
        assert_eq!(store.list().unwrap(), [&old[..], &[next]].concat());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn garbage_index_lines_do_not_poison_the_store() {
        let store = temp_store("garbage");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n")).unwrap();
        let mut index = fs::read_to_string(store.index_path()).unwrap();
        index.push_str("{\"run_id\": 12, not json at all\n");
        index.push('\n'); // blank lines are fine, not warnings
        fs::write(store.index_path(), index).unwrap();
        let (entries, warnings) = store.scan();
        assert_eq!(entries, vec![a]);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn missing_artifact_error_names_the_run() {
        let store = temp_store("missing-artifact");
        let cfg = ExperimentConfig::new("micro").input(InputSize::Test);
        let a = store.save(&cfg, &art("h\n1\n")).unwrap();
        fs::remove_file(store.run_dir(&a.run_id).join("results.csv")).unwrap();
        let err = store.results_csv(&a).unwrap_err().to_string();
        assert!(err.contains(&a.run_id), "{err}");
        assert!(err.contains("fsck"), "{err}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn empty_store_reports_clearly() {
        let store = temp_store("empty");
        assert!(store.list().unwrap().is_empty());
        let err = store.resolve("latest").unwrap_err().to_string();
        assert!(err.contains("empty"), "{err}");
        assert!(store.render_list(&[]).contains("empty"));
        let _ = fs::remove_dir_all(store.root());
    }
}
