//! `eva-paper [id ...]`: run the paper's experiments and write each one's
//! artifact to `experiments_out/<id>.json` at the workspace root, whatever
//! the working directory. With no ids it runs all of them; either way they
//! run in the order of `eva_bench::EXPERIMENTS`, whose ids these are.
//!
//! The artifacts are simulated time and deterministic counters only, so a
//! second run writes the same bytes and `git diff experiments_out` is empty
//! unless a paper number moved.

use eva_bench::{artifact_path, EXPERIMENTS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if let Some(id) = ids
        .iter()
        .find(|id| !EXPERIMENTS.iter().any(|e| e.id == *id))
    {
        let known: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        return Err(format!("unknown experiment `{id}`; known: {}", known.join(", ")).into());
    }
    let selected = EXPERIMENTS
        .iter()
        .filter(|e| ids.is_empty() || ids.iter().any(|id| id == e.id));
    for experiment in selected {
        let artifact = (experiment.run)()?;
        let path = artifact_path(experiment.id);
        std::fs::write(&path, artifact.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("{} → {}", experiment.paper_ref, path.display());
    }
    Ok(())
}
