//! JSON checkpoint/resume of partial adaptive estimates.
//!
//! Long `--full` adaptive runs sample millions of shots per
//! configuration; a [`CheckpointStore`] persists every configuration's
//! [`RunningEstimate`] after each chunk so an interrupted run resumes
//! where it left off (`repro --resume FILE`). Configurations are keyed
//! by the pipeline fingerprint
//! ([`EvalPipeline::fingerprint`](crate::EvalPipeline::fingerprint)),
//! which covers the noisy circuit, decoder kind, seed and batch size —
//! a stale checkpoint from a different configuration can never be
//! merged into the wrong estimate.
//!
//! The on-disk format is a flat JSON object, written and read through
//! the workspace's shared [`ftqc_telemetry::json`] codec:
//!
//! ```json
//! {
//!   "version": 1,
//!   "entries": {
//!     "c0ffee0123456789": {"trials": 40960, "failures": [12, 3, 9]}
//!   }
//! }
//! ```

use ftqc_sim::RunningEstimate;
use ftqc_telemetry::json::{push_json_str, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A file-backed map from configuration key to partial estimate.
///
/// Writes go through a temp-file + rename, so a crash mid-write leaves
/// the previous checkpoint intact.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    entries: Mutex<BTreeMap<String, (u64, Vec<u64>)>>,
}

impl CheckpointStore {
    /// Opens (or initializes) the checkpoint at `path`. A missing file
    /// is an empty store; a malformed file is an error rather than a
    /// silent restart from zero.
    ///
    /// # Errors
    ///
    /// I/O failures, and `InvalidData` for unparsable contents.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<CheckpointStore> {
        let path = path.into();
        let entries = match std::fs::read_to_string(&path) {
            Ok(text) => parse(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => BTreeMap::new(),
            Err(e) => return Err(e),
        };
        Ok(CheckpointStore {
            path,
            entries: Mutex::new(entries),
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of checkpointed configurations.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partial estimate checkpointed under `key`, if any.
    pub fn get(&self, key: &str) -> Option<RunningEstimate> {
        self.entries
            .lock()
            .unwrap()
            .get(key)
            .map(|(trials, failures)| RunningEstimate::from_parts(*trials, failures.clone()))
    }

    /// Records `state` under `key` and persists the whole store.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the in-memory entry is updated
    /// either way).
    pub fn put(&self, key: &str, state: &RunningEstimate) -> io::Result<()> {
        let mut entries = self.entries.lock().unwrap();
        entries.insert(key.to_string(), (state.trials(), state.failures().to_vec()));
        let rendered = render(&entries);
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, rendered)?;
        std::fs::rename(&tmp, &self.path)
    }
}

fn render(entries: &BTreeMap<String, (u64, Vec<u64>)>) -> String {
    let mut s = String::from("{\n  \"version\": 1,\n  \"entries\": {");
    for (i, (key, (trials, failures))) in entries.iter().enumerate() {
        let failures = failures
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(if i == 0 { "\n    " } else { ",\n    " });
        push_json_str(&mut s, key);
        let _ = write!(s, ": {{\"trials\": {trials}, \"failures\": [{failures}]}}");
    }
    s.push_str("\n  }\n}\n");
    s
}

/// Reads the checkpoint schema above back through the shared JSON
/// reader.
fn parse(text: &str) -> Result<BTreeMap<String, (u64, Vec<u64>)>, String> {
    let doc = Value::parse(text)?;
    known_keys(&doc, &["version", "entries"])?;
    if doc.get_f64("version") != Some(1.0) {
        return Err("unsupported checkpoint version".into());
    }
    let entries = doc
        .field("entries")
        .and_then(Value::as_object)
        .ok_or("missing `entries` object")?;
    entries
        .iter()
        .map(|(key, entry)| {
            known_keys(entry, &["trials", "failures"])?;
            let trials = entry.field("trials").ok_or("entry missing `trials`")?;
            let failures = entry
                .field("failures")
                .and_then(Value::as_array)
                .ok_or("entry missing `failures` array")?;
            let failures = failures.iter().map(count).collect::<Result<_, _>>()?;
            Ok((key.clone(), (count(trials)?, failures)))
        })
        .collect()
}

/// Rejects an object with keys outside `known`: a file from another
/// schema or with a corrupted key is an error, not silently dropped data.
fn known_keys(value: &Value, known: &[&str]) -> Result<(), String> {
    let pairs = value.as_object().ok_or("expected a JSON object")?;
    match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("unknown key `{k}`")),
        None => Ok(()),
    }
}

/// A stored count. JSON numbers are read as `f64`, which holds every
/// integer up to 2^53 exactly; a fractional, negative or larger value
/// is rejected rather than rounded.
fn count(value: &Value) -> Result<u64, String> {
    const EXACT: f64 = (1u64 << 53) as f64;
    match *value {
        Value::Number(x) if x.fract() == 0.0 && (0.0..=EXACT).contains(&x) => Ok(x as u64),
        ref other => Err(format!("invalid count {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ftqc-ckpt-{}-{tag}.json", std::process::id()))
    }

    #[test]
    fn roundtrips_through_disk() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let store = CheckpointStore::open(&path).unwrap();
        assert!(store.is_empty());
        let mut state = RunningEstimate::new(3);
        state.record(40_960, &[12, 3, 9]);
        store.put("c0ffee0123456789", &state).unwrap();
        let mut later = RunningEstimate::new(1);
        later.record(100, &[1]);
        store.put("aa00", &later).unwrap();
        // Keys are escaped, so any string survives the round trip.
        store.put("a\"b\\c", &later).unwrap();

        let reopened = CheckpointStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.get("c0ffee0123456789"), Some(state));
        assert_eq!(reopened.get("a\"b\\c"), Some(later.clone()));
        assert_eq!(reopened.get("aa00"), Some(later));
        assert_eq!(reopened.get("missing"), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_file_is_an_error_not_a_restart() {
        let path = temp_path("malformed");
        std::fs::write(&path, "{\"version\": 2}").unwrap();
        let err = CheckpointStore::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(&path, "not json").unwrap();
        assert!(CheckpointStore::open(&path).is_err());
        for bad in [
            "[".repeat(1_000_000),
            r#"{"version": 1, "entries": {}, "extra": 0}"#.to_string(),
            r#"{"version": 1, "entries": {"k": {"trials": 1, "failures": [], "x": 0}}}"#
                .to_string(),
        ] {
            std::fs::write(&path, &bad).unwrap();
            let err = CheckpointStore::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parser_accepts_rendered_edge_cases() {
        assert_eq!(parse(&render(&BTreeMap::new())).unwrap(), BTreeMap::new());
        let mut one = BTreeMap::new();
        one.insert("k".to_string(), (7, vec![]));
        assert_eq!(parse(&render(&one)).unwrap(), one);
    }

    #[test]
    fn counts_must_be_exact_non_negative_integers() {
        let doc = |trials: &str, failure: &str| {
            format!(
                "{{\"version\": 1, \"entries\": {{\"k\": {{\"trials\": {trials}, \"failures\": [{failure}]}}}}}}"
            )
        };
        let exact = "9007199254740992"; // 2^53
        assert_eq!(
            parse(&doc(exact, exact)).unwrap()["k"],
            (1 << 53, vec![1 << 53])
        );
        let path = temp_path("counts");
        for bad in [
            "1.5",
            "-1",
            "9007199254740994",
            "18446744073709551615",
            "1e300",
            "\"3\"",
        ] {
            for text in [doc(bad, "0"), doc("10", bad)] {
                std::fs::write(&path, &text).unwrap();
                let err = CheckpointStore::open(&path).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "accepted: {text}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_written_before_the_shared_codec_resumes() {
        // `tests/fixtures/checkpoint-v1.json` was written by the previous,
        // hand-rolled checkpoint writer during a `repro fig14` adaptive run.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/checkpoint-v1.json"
        );
        let text = std::fs::read_to_string(path).unwrap();
        let store = CheckpointStore::open(path).unwrap();
        assert_eq!(store.len(), 31);
        for (key, trials, failures) in [
            ("02a7714c8e2011ea", 2048, [7, 8, 15]),
            ("4be6ffffd98b1c3c", 1024, [133, 90, 195]),
            ("fc6193baa01e0f44", 1024, [8, 24, 32]),
        ] {
            let expected = RunningEstimate::from_parts(trials, failures.to_vec());
            assert_eq!(store.get(key), Some(expected), "{key}");
        }
        // Every entry survives: rewriting the store reproduces the file.
        assert_eq!(render(&store.entries.lock().unwrap()), text);
    }
}
