//! # eva-harness
//!
//! Hosts the repository-root `examples/` and `tests/` (Cargo targets must
//! belong to a package; this crate points its example and test paths at the
//! repository root). It also provides the session fixture the integration
//! tests share; their dataset is [`eva_video::generator::test_dataset`] and
//! their temp dirs come from `eva_common::testutil`.

use eva_core::{EvaDb, SessionConfig};
use eva_planner::ReuseStrategy;
use eva_video::generator::test_dataset;

/// A session with the given strategy and a test dataset loaded as `video`.
pub fn test_session(strategy: ReuseStrategy, seed: u64, n_frames: u64) -> EvaDb {
    let mut db = EvaDb::new(SessionConfig::for_strategy(strategy)).expect("session construction");
    db.load_video(test_dataset(seed, n_frames), "video")
        .expect("dataset load");
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = test_dataset(1, 50);
        let b = test_dataset(1, 50);
        assert_eq!(a.frames(), b.frames());
    }

    #[test]
    fn session_fixture_loads_table() {
        let db = test_session(ReuseStrategy::Eva, 1, 30);
        assert!(db.catalog().table("video").is_ok());
    }
}
