//! Checkpoint journal: crash-safe resume for grid runs.
//!
//! The journal is an append-only JSONL file. Line 1 is a header binding
//! the journal to the spec and the report-shaping options; every
//! subsequent line records one completed cell:
//!
//! ```text
//! {"choco_journal": 1, "spec": "...", "spec_hash": 123, "cells": 8, ...}
//! {"index": 3, "duration_us": 1042, "record": {"index": 3, ...}}
//! ```
//!
//! Each cell line is written with a single `write_all` + flush, so a
//! crash leaves at most one torn *trailing* line, which the loader
//! detects and drops. Because cell records hold only deterministic
//! fields (wall-clock durations live in the non-compared `duration_us`
//! sidecar), a resumed run re-emits byte-identical reports at any worker
//! count and any kill point. Error records are deliberately *not*
//! treated as completions: resuming re-executes failed cells, so a
//! faulty run followed by a healthy resume converges to the clean
//! report.

use crate::json::{record_from_json, Json, JsonParser};
use crate::report::{write_json_str, Field, Record};
use crate::run::RunOptions;
use crate::spec::{fnv1a, ExperimentSpec};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Journal format version; bumped on any layout change.
const JOURNAL_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

/// The journal's first line: binds it to the spec and to every option
/// that shapes record *content*. Worker counts, simulator threads, and
/// fault budgets are deliberately unbound — resuming with more workers
/// or a longer `--cell-timeout` is a supported operational flow.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JournalHeader {
    version: u64,
    spec_name: String,
    /// FNV-1a over the spec's `Debug` rendering — cheap, dependency-free,
    /// and sensitive to every axis value.
    spec_hash: u64,
    cells: u64,
    quick: bool,
    engine: String,
    optimizer: String,
}

impl JournalHeader {
    /// The header a fresh journal for this run would carry.
    pub(crate) fn for_run(spec: &ExperimentSpec, opts: &RunOptions, cells: usize) -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            spec_name: spec.name.clone(),
            spec_hash: fnv1a(format!("{spec:?}").as_bytes()),
            cells: cells as u64,
            quick: opts.quick,
            engine: opts.effective_sim(spec).engine.label().to_string(),
            optimizer: opts.effective_optimizer(spec).label().to_string(),
        }
    }

    fn to_line(&self) -> String {
        let mut out = String::new();
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!("{{\"choco_journal\": {}, \"spec\": ", self.version),
        );
        write_json_str(&mut out, &self.spec_name);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                ", \"spec_hash\": {}, \"cells\": {}, \"quick\": {}, \"engine\": \"{}\", \"optimizer\": \"{}\"}}\n",
                self.spec_hash, self.cells, self.quick, self.engine, self.optimizer
            ),
        );
        out
    }

    fn from_json(value: &Json) -> Result<JournalHeader, String> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("journal header is missing `{key}`"))
        };
        Ok(JournalHeader {
            version: field("choco_journal")?
                .as_u64()
                .ok_or("`choco_journal` is not an integer")?,
            spec_name: field("spec")?
                .as_str()
                .ok_or("`spec` is not a string")?
                .to_string(),
            spec_hash: field("spec_hash")?
                .as_u64()
                .ok_or("`spec_hash` is not an integer")?,
            cells: field("cells")?
                .as_u64()
                .ok_or("`cells` is not an integer")?,
            quick: field("quick")?.as_bool().ok_or("`quick` is not a bool")?,
            engine: field("engine")?
                .as_str()
                .ok_or("`engine` is not a string")?
                .to_string(),
            optimizer: field("optimizer")?
                .as_str()
                .ok_or("`optimizer` is not a string")?
                .to_string(),
        })
    }

    /// Field-by-field comparison with actionable messages: a mismatched
    /// journal names exactly which knob diverged instead of a bare
    /// "hash mismatch".
    fn validate(&self, expected: &JournalHeader) -> Result<(), String> {
        if self.version != expected.version {
            return Err(format!(
                "journal version {} is not the supported version {}",
                self.version, expected.version
            ));
        }
        let mut diffs = Vec::new();
        if self.spec_name != expected.spec_name {
            diffs.push(format!(
                "spec name `{}` != current `{}`",
                self.spec_name, expected.spec_name
            ));
        }
        if self.spec_hash != expected.spec_hash {
            diffs.push(format!(
                "spec hash {:#x} != current {:#x} (the spec file changed)",
                self.spec_hash, expected.spec_hash
            ));
        }
        if self.cells != expected.cells {
            diffs.push(format!(
                "cell count {} != current {}",
                self.cells, expected.cells
            ));
        }
        if self.quick != expected.quick {
            diffs.push(format!(
                "quick={} != current quick={} (pass the same --quick)",
                self.quick, expected.quick
            ));
        }
        if self.engine != expected.engine {
            diffs.push(format!(
                "engine `{}` != current `{}` (pass the same --engine)",
                self.engine, expected.engine
            ));
        }
        if self.optimizer != expected.optimizer {
            diffs.push(format!(
                "optimizer `{}` != current `{}` (pass the same --optimizer)",
                self.optimizer, expected.optimizer
            ));
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "journal does not match this run: {}",
                diffs.join("; ")
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends completed cells to the journal file. Shared across workers;
/// each cell is one atomic `write_all` + flush so concurrent appends
/// never interleave and a crash tears at most the final line.
pub(crate) struct CheckpointJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl CheckpointJournal {
    /// Creates (truncating) a fresh journal and writes the header.
    pub(crate) fn create(path: &Path, header: &JournalHeader) -> Result<CheckpointJournal, String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    format!(
                        "cannot create checkpoint directory {}: {e}",
                        parent.display()
                    )
                })?;
            }
        }
        let mut file = File::create(path)
            .map_err(|e| format!("cannot create checkpoint {}: {e}", path.display()))?;
        file.write_all(header.to_line().as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot write checkpoint header {}: {e}", path.display()))?;
        Ok(CheckpointJournal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Reopens an existing journal for appending (resume flow; the caller
    /// has already validated the header via [`load_journal`]).
    pub(crate) fn append_to(path: &Path) -> Result<CheckpointJournal, String> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot reopen checkpoint {}: {e}", path.display()))?;
        Ok(CheckpointJournal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Appends one completed cell. `duration` is observability-only (it
    /// lives outside the record so reports stay deterministic).
    pub(crate) fn append_cell(
        &self,
        index: usize,
        duration: Duration,
        record: &Record,
    ) -> Result<(), String> {
        let mut line = String::with_capacity(256);
        let _ = std::fmt::Write::write_fmt(
            &mut line,
            format_args!(
                "{{\"index\": {index}, \"duration_us\": {}, \"record\": ",
                duration.as_micros()
            ),
        );
        record.write_json_line(&mut line);
        line.push_str("}\n");
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot append to checkpoint {}: {e}", self.path.display()))
    }
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

/// Reads and validates a journal against the header this run would
/// write, returning its completed (`status == "ok"`) records by cell
/// index. A torn (unparseable) *final* line is dropped with a warning —
/// that is the expected crash artifact; corruption anywhere else is an
/// error.
pub(crate) fn load_journal(
    path: &Path,
    expected: &JournalHeader,
) -> Result<BTreeMap<usize, Record>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().collect();
    let header_line = lines
        .first()
        .ok_or_else(|| format!("checkpoint {} is empty", path.display()))?;
    let header_json = JsonParser::parse(header_line)
        .map_err(|e| format!("checkpoint {}: bad header: {e}", path.display()))?;
    let header = JournalHeader::from_json(&header_json)
        .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
    header
        .validate(expected)
        .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;

    let mut completed = BTreeMap::new();
    for (lineno, line) in lines.iter().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let is_last = lineno == lines.len() - 1;
        let parsed = match JsonParser::parse(line) {
            Ok(v) => v,
            Err(e) if is_last => {
                eprintln!(
                    "checkpoint {}: dropping torn final line {} ({e})",
                    path.display(),
                    lineno + 1
                );
                continue;
            }
            Err(e) => {
                return Err(format!(
                    "checkpoint {}: corrupt line {}: {e}",
                    path.display(),
                    lineno + 1
                ));
            }
        };
        let entry = (|| -> Result<(usize, Record), String> {
            let raw_index = parsed.get("index").ok_or("cell line is missing `index`")?;
            // `as_u64` re-parses the raw token, so a fractional or
            // negative index fails here with the offending value named —
            // it must never truncate into a plausible-looking cell slot.
            let index = raw_index.as_u64().ok_or_else(|| {
                format!(
                    "cell line `index` is not a non-negative integer (got {})",
                    raw_index.brief()
                )
            })?;
            let index = usize::try_from(index)
                .map_err(|_| format!("cell line `index` {index} does not fit this platform"))?;
            let record = parsed
                .get("record")
                .ok_or("cell line is missing `record`")?;
            Ok((index, record_from_json(record)?))
        })();
        let (index, record) = match entry {
            Ok(pair) => pair,
            Err(e) if is_last => {
                eprintln!(
                    "checkpoint {}: dropping torn final line {} ({e})",
                    path.display(),
                    lineno + 1
                );
                continue;
            }
            Err(e) => {
                return Err(format!(
                    "checkpoint {}: corrupt line {}: {e}",
                    path.display(),
                    lineno + 1
                ));
            }
        };
        if index as u64 >= expected.cells {
            return Err(format!(
                "checkpoint {}: line {} indexes cell {} outside the {}-cell grid",
                path.display(),
                lineno + 1,
                index,
                expected.cells
            ));
        }
        // Only clean completions count: error records re-execute on
        // resume, so a faulty run converges to the clean report. Later
        // lines win (a re-run cell supersedes its earlier entry).
        let ok = matches!(record.get("status"), Some(Field::Str(s)) if s == "ok");
        if ok {
            completed.insert(index, record);
        } else {
            completed.remove(&index);
        }
    }
    Ok(completed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: &Record) -> Record {
        let mut line = String::new();
        record.write_json_line(&mut line);
        let parsed = JsonParser::parse(&line).expect("parse");
        record_from_json(&parsed).expect("record")
    }

    #[test]
    fn records_roundtrip_byte_identically() {
        let mut record = Record::new();
        record
            .push("index", Field::UInt(3))
            .push("problem", Field::Str("F1 \"quoted\"\n".into()))
            .push("layers", Field::Null)
            .push("noisy", Field::Bool(false))
            .push("optimal_value", Field::Float(-12.5))
            .push("whole_float", Field::Float(3.0))
            .push("tiny", Field::Float(1.25e-7))
            .push("nan_metric", Field::Float(f64::NAN))
            .push("cost_history", Field::Floats(vec![1.0, f64::NAN, 0.5]));
        let reloaded = roundtrip(&record);
        let (mut a, mut b) = (String::new(), String::new());
        record.write_json_line(&mut a);
        reloaded.write_json_line(&mut b);
        assert_eq!(a, b, "reload must re-emit identical bytes");
        // NaN → null → NaN inside arrays; NaN scalar → null → Null field,
        // which emits identically (`null`).
        assert_eq!(reloaded.get("nan_metric"), Some(&Field::Null));
        match reloaded.get("cost_history") {
            Some(Field::Floats(xs)) => {
                assert!(xs[1].is_nan());
                assert_eq!((xs[0], xs[2]), (1.0, 0.5));
            }
            other => panic!("bad history: {other:?}"),
        }
        // Whole floats collapse to UInt on reload but print identically.
        assert_eq!(reloaded.get("whole_float"), Some(&Field::UInt(3)));
    }

    #[test]
    fn non_integer_indices_are_precise_errors_not_truncations() {
        // Regression: a fractional or negative `index` used to surface as
        // a misleading "missing `index`" and the cast to usize was
        // unchecked. Mid-file, each must be a structured error naming the
        // offending token; as the final line it is a torn-line drop.
        let dir = std::env::temp_dir().join(format!("choco_ckpt_idx_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_index.jsonl");
        let header = test_header();
        for (token, needle) in [
            ("2.5", "not a non-negative integer"),
            ("-1", "not a non-negative integer"),
            ("\"two\"", "not a non-negative integer"),
            ("1e300", "not a non-negative integer"),
        ] {
            let mut ok_line = String::from("{\"index\": 0, \"duration_us\": 1, \"record\": ");
            ok_record(0).write_json_line(&mut ok_line);
            ok_line.push_str("}\n");
            let text = format!(
                "{}{{\"index\": {token}, \"duration_us\": 1, \"record\": {{\"status\": \"ok\"}}}}\n{ok_line}",
                header.to_line()
            );
            std::fs::write(&path, text).unwrap();
            let err = load_journal(&path, &header).unwrap_err();
            assert!(err.contains("corrupt line 2"), "{token}: {err}");
            assert!(err.contains(needle), "{token}: {err}");
            assert!(err.contains(token.trim_matches('"')), "{token}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn test_header() -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            spec_name: "t".into(),
            spec_hash: 0xABCD,
            cells: 4,
            quick: false,
            engine: "compact".into(),
            optimizer: "adam".into(),
        }
    }

    #[test]
    fn header_roundtrips_and_validates() {
        let header = test_header();
        let line = header.to_line();
        let parsed = JournalHeader::from_json(&JsonParser::parse(line.trim()).unwrap()).unwrap();
        assert_eq!(parsed, header);
        parsed.validate(&header).unwrap();
        let mut other = header.clone();
        other.engine = "dense".into();
        let err = parsed.validate(&other).unwrap_err();
        assert!(err.contains("--engine"), "{err}");
        let mut other = header.clone();
        other.spec_hash ^= 1;
        assert!(parsed
            .validate(&other)
            .unwrap_err()
            .contains("spec file changed"));
    }

    fn ok_record(index: u64) -> Record {
        let mut r = Record::new();
        r.push("index", Field::UInt(index))
            .push("status", Field::Str("ok".into()))
            .push("best_value", Field::Float(1.5));
        r
    }

    #[test]
    fn journal_write_load_cycle() {
        let dir = std::env::temp_dir().join(format!("choco_ckpt_{}", std::process::id()));
        let path = dir.join("cycle.jsonl");
        let header = test_header();
        let journal = CheckpointJournal::create(&path, &header).unwrap();
        journal
            .append_cell(0, Duration::from_micros(42), &ok_record(0))
            .unwrap();
        let mut failed = Record::new();
        failed
            .push("index", Field::UInt(1))
            .push("status", Field::Str("error".into()));
        journal.append_cell(1, Duration::ZERO, &failed).unwrap();
        drop(journal);

        let loaded = load_journal(&path, &header).unwrap();
        assert_eq!(loaded.len(), 1, "error records are not completions");
        assert!(loaded.contains_key(&0));

        // A torn trailing line is dropped, not fatal.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"index\": 2, \"duration_us\": 1, \"rec");
        std::fs::write(&path, &text).unwrap();
        let loaded = load_journal(&path, &header).unwrap();
        assert_eq!(loaded.len(), 1);

        // The same corruption mid-file is fatal.
        let torn = format!(
            "{}{{\"index\": 2, \"duration_us\": 1, \"rec\n{}",
            header.to_line(),
            {
                let mut line = String::from("{\"index\": 0, \"duration_us\": 1, \"record\": ");
                ok_record(0).write_json_line(&mut line);
                line.push_str("}\n");
                line
            }
        );
        std::fs::write(&path, torn).unwrap();
        let err = load_journal(&path, &header).unwrap_err();
        assert!(err.contains("corrupt line 2"), "{err}");

        // Out-of-range indices are rejected.
        let journal = CheckpointJournal::create(&path, &header).unwrap();
        journal
            .append_cell(99, Duration::ZERO, &ok_record(99))
            .unwrap();
        drop(journal);
        assert!(load_journal(&path, &header)
            .unwrap_err()
            .contains("outside the 4-cell grid"));

        // Resumed cells supersede earlier entries for the same index.
        let journal = CheckpointJournal::create(&path, &header).unwrap();
        let mut v1 = ok_record(0);
        v1.push("marker", Field::UInt(1));
        let mut v2 = ok_record(0);
        v2.push("marker", Field::UInt(2));
        journal.append_cell(0, Duration::ZERO, &v1).unwrap();
        journal.append_cell(0, Duration::ZERO, &v2).unwrap();
        drop(journal);
        let loaded = load_journal(&path, &header).unwrap();
        assert_eq!(loaded[&0].get("marker"), Some(&Field::UInt(2)));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_header_fields_are_named() {
        let err = JournalHeader::from_json(&JsonParser::parse("{\"choco_journal\": 1}").unwrap())
            .unwrap_err();
        assert!(err.contains("`spec`"), "{err}");
    }
}
