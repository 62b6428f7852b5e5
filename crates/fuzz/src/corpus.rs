//! The on-disk regression corpus.
//!
//! Every shrunk failure is written as a self-contained JSON file — the full
//! [`FuzzCase`] (dataset parameters + statements), a version tag, and a
//! human note. `tests/corpus/` holds the *committed* corpus: seeds that
//! once failed (or that pin known-tricky interleavings) and now must stay
//! green; `tests/fuzz_corpus.rs` replays all of them on every `cargo test`.

use std::path::{Path, PathBuf};

use eva_common::json::Json;
use eva_common::GovernorConfig;

use crate::gen::{FuzzCase, FuzzStmt, Sabotage};

/// Bumped when [`FuzzCase`]'s serialized form changes incompatibly; the
/// replay test refuses files from another version instead of mis-reading
/// them.
pub const CORPUS_VERSION: u32 = 1;

/// One corpus entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusFile {
    /// Format version (see [`CORPUS_VERSION`]).
    pub version: u32,
    /// Why this case is in the corpus.
    pub note: String,
    /// The session to replay through the oracles.
    pub case: FuzzCase,
}

/// The committed corpus directory (`tests/corpus/` at the repository root).
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Stable file name for a repro of the given case.
pub fn repro_file_name(case: &FuzzCase) -> String {
    format!("repro-{:016x}.json", case.seed)
}

/// Write one corpus file (pretty-printed, trailing newline) and return its
/// path.
pub fn write_corpus_file(dir: &Path, file: &CorpusFile) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(repro_file_name(&file.case));
    let mut json = file.to_json().pretty();
    json.push('\n');
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Load every `.json` file in a corpus directory, sorted by file name.
/// A malformed file is an error — a corpus entry that silently stops
/// parsing is a regression test that silently stopped running.
pub fn load_corpus_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusFile)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let file = Json::parse(&text)
            .and_then(|json| CorpusFile::from_json(&json))
            .map_err(|e| format!("parse {}: {e}", path.display()))?;
        out.push((path, file));
    }
    Ok(out)
}

// The JSON layout: one object per struct, `null` for `None`, and enum
// variants tagged by name (`"Save"`, `{"Select": "…"}`). On read, a missing
// `Option` or `governor` field takes its default, so files written before
// governance existed still load.

impl CorpusFile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::from(self.version)),
            ("note", Json::from(self.note.as_str())),
            ("case", case_to_json(&self.case)),
        ])
    }

    fn from_json(json: &Json) -> Result<CorpusFile, String> {
        Ok(CorpusFile {
            version: u32::try_from(u64_field(json, "version")?)
                .map_err(|_| "version: out of range".to_string())?,
            note: field(json, "note")?
                .as_str()
                .ok_or("note: expected a string")?
                .to_string(),
            case: case_from_json(field(json, "case")?)?,
        })
    }
}

fn case_to_json(case: &FuzzCase) -> Json {
    let governor = &case.governor;
    Json::obj([
        ("seed", Json::from(case.seed)),
        ("dataset_seed", Json::from(case.dataset_seed)),
        ("n_frames", Json::from(case.n_frames)),
        (
            "sabotage",
            Json::from(case.sabotage.map(|Sabotage::SkipPrune| "SkipPrune")),
        ),
        (
            "governor",
            Json::obj([
                ("deadline_ms", Json::from(governor.deadline_ms)),
                ("wall_deadline_ms", Json::from(governor.wall_deadline_ms)),
                ("budget_bytes", Json::from(governor.budget_bytes)),
            ]),
        ),
        ("admission_width", Json::from(case.admission_width)),
        ("stmts", Json::arr(case.stmts.iter().map(stmt_to_json))),
    ])
}

fn case_from_json(json: &Json) -> Result<FuzzCase, String> {
    let governor = match json.get("governor") {
        None | Some(Json::Null) => GovernorConfig::default(),
        Some(g) => GovernorConfig {
            deadline_ms: optional(g, "deadline_ms", Json::as_f64)?,
            wall_deadline_ms: optional(g, "wall_deadline_ms", Json::as_u64)?,
            budget_bytes: optional(g, "budget_bytes", Json::as_u64)?,
        },
    };
    let stmts = field(json, "stmts")?
        .as_array()
        .ok_or("stmts: expected an array")?;
    Ok(FuzzCase {
        seed: u64_field(json, "seed")?,
        dataset_seed: u64_field(json, "dataset_seed")?,
        n_frames: u64_field(json, "n_frames")?,
        sabotage: optional(json, "sabotage", |v| {
            (v.as_str()? == "SkipPrune").then_some(Sabotage::SkipPrune)
        })?,
        governor,
        admission_width: optional(json, "admission_width", |v| {
            v.as_u64().and_then(|n| usize::try_from(n).ok())
        })?,
        stmts: stmts.iter().map(stmt_from_json).collect::<Result<_, _>>()?,
    })
}

fn stmt_to_json(stmt: &FuzzStmt) -> Json {
    let tagged = |tag: &str, text: &str| Json::obj([(tag, Json::from(text))]);
    match stmt {
        FuzzStmt::Select(sql) => tagged("Select", sql),
        FuzzStmt::Fault(spec) => tagged("Fault", spec),
        FuzzStmt::ResetViews => Json::from("ResetViews"),
        FuzzStmt::Save => Json::from("Save"),
        FuzzStmt::Load => Json::from("Load"),
        FuzzStmt::Disarm => Json::from("Disarm"),
    }
}

fn stmt_from_json(json: &Json) -> Result<FuzzStmt, String> {
    let stmt = match json {
        Json::Str(tag) => match tag.as_str() {
            "ResetViews" => Some(FuzzStmt::ResetViews),
            "Save" => Some(FuzzStmt::Save),
            "Load" => Some(FuzzStmt::Load),
            "Disarm" => Some(FuzzStmt::Disarm),
            _ => None,
        },
        Json::Obj(fields) => match fields.as_slice() {
            [(tag, Json::Str(text))] if tag == "Select" => Some(FuzzStmt::Select(text.clone())),
            [(tag, Json::Str(text))] if tag == "Fault" => Some(FuzzStmt::Fault(text.clone())),
            _ => None,
        },
        _ => None,
    };
    stmt.ok_or_else(|| format!("not a statement: {json}"))
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, String> {
    field(json, key)?
        .as_u64()
        .ok_or_else(|| format!("{key}: expected an unsigned integer"))
}

/// A field that may be absent or `null`; any other value must `read`.
fn optional<T>(
    json: &Json,
    key: &str,
    read: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => read(value)
            .map(Some)
            .ok_or_else(|| format!("{key}: unexpected value {value}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, sabotage_case};
    use eva_harness::TempDir;

    #[test]
    fn corpus_files_round_trip() {
        let dir = TempDir::new("fuzz_corpus_rt");
        // A governed case, a 64-bit seed and a sabotaged one.
        let cases = [generate_case(0), generate_case(u64::MAX), sabotage_case(9)];
        assert!(cases[0].is_governed());
        for case in cases.clone() {
            let file = CorpusFile {
                version: CORPUS_VERSION,
                note: "round-trip test".to_string(),
                case,
            };
            let path = write_corpus_file(dir.path(), &file).expect("write");
            assert!(path.is_file());
        }
        let loaded = load_corpus_dir(dir.path()).expect("load");
        assert_eq!(loaded.len(), cases.len());
        for (_, f) in &loaded {
            assert_eq!(f.version, CORPUS_VERSION);
            assert!(cases.contains(&f.case), "{:?} changed on disk", f.case);
        }
        // Deterministic order: sorted by file name.
        let names: Vec<_> = loaded
            .iter()
            .map(|(p, _)| p.file_name().unwrap().to_owned())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn malformed_corpus_file_is_an_error() {
        let dir = TempDir::new("fuzz_corpus_bad");
        std::fs::write(dir.path().join("broken.json"), "{ not json").expect("write");
        assert!(load_corpus_dir(dir.path()).is_err());
    }

    #[test]
    fn committed_corpus_dir_exists() {
        // The committed corpus must never silently vanish (an empty or
        // missing directory would make the replay test vacuous).
        let entries = load_corpus_dir(&corpus_dir()).expect("committed corpus loads");
        assert!(!entries.is_empty(), "tests/corpus/ has no entries");
        // Writing a committed file back and reading it again is lossless.
        for (path, file) in &entries {
            let again = CorpusFile::from_json(&Json::parse(&file.to_json().pretty()).unwrap());
            assert_eq!(again.as_ref(), Ok(file), "{}", path.display());
        }
    }
}
