//! The UDF MANAGER (paper Fig. 1, §3.1–§4.1).
//!
//! For every UDF signature the manager maintains:
//!
//! * the **materialized view** holding all results computed so far,
//! * the **aggregated predicate** `p_u` — the union of the predicates of
//!   every committed invocation, kept reduced by Algorithm 1 (this is what
//!   "the tuples for which results exist" means symbolically).
//!
//! The planner reads `p_u` through [`UdfManager::aggregated`] and derives
//! `p∩ = INTER(p_u, q)` and `p₋ = DIFF(p_u, q)` itself;
//! [`UdfManager::commit`] is §4.1's `p_u ← UNION(p_u, q)`, called once a
//! query that stored into the view has completed.

use std::collections::BTreeMap;
use std::sync::Arc;

use eva_common::sync::RwLock;
use eva_common::{Schema, ViewId};
use eva_storage::{StorageEngine, ViewKeyKind};
use eva_symbolic::{union, Dnf};

use crate::signature::UdfSignature;

// Re-export for convenience: the storage ViewId used across this module.
pub use eva_storage::view::ViewDef;

/// Magic for the persisted manager state.
const MANAGER_MAGIC: [u8; 4] = *b"EVAU";
/// Current manager state format version.
const MANAGER_VERSION: u32 = 1;
/// File the manager state persists to.
pub const MANAGER_FILE: &str = "udf_manager.bin";

struct SigState {
    view: ViewId,
    agg: Dnf,
}

/// Thread-safe UDF manager. Cheap to clone.
#[derive(Clone)]
pub struct UdfManager {
    storage: StorageEngine,
    inner: Arc<RwLock<BTreeMap<UdfSignature, SigState>>>,
}

impl std::fmt::Debug for UdfManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sigs: Vec<String> = self.inner.read().keys().map(|s| s.to_string()).collect();
        f.debug_struct("UdfManager")
            .field("signatures", &sigs)
            .finish()
    }
}

impl UdfManager {
    /// Create a manager backed by the given storage engine.
    pub fn new(storage: StorageEngine) -> UdfManager {
        UdfManager {
            storage,
            inner: Arc::default(),
        }
    }

    /// The view for a signature, creating it (empty) on first sight.
    pub fn view_for(
        &self,
        sig: &UdfSignature,
        key_kind: ViewKeyKind,
        output_schema: Arc<Schema>,
    ) -> ViewId {
        if let Some(s) = self.inner.read().get(sig) {
            return s.view;
        }
        let mut inner = self.inner.write();
        // Double-checked: another thread may have created it.
        if let Some(s) = inner.get(sig) {
            return s.view;
        }
        let view = self
            .storage
            .create_view(sig.to_string(), key_kind, output_schema);
        inner.insert(
            sig.clone(),
            SigState {
                view,
                agg: Dnf::false_(),
            },
        );
        view
    }

    /// The view for a signature, if one was ever created, with its current
    /// key count.
    pub fn view_of(&self, sig: &UdfSignature) -> Option<(ViewId, u64)> {
        let inner = self.inner.read();
        inner
            .get(sig)
            .map(|s| (s.view, self.storage.view_n_keys(s.view).unwrap_or(0)))
    }

    /// The aggregated predicate `p_u` (FALSE when the signature is unknown).
    pub fn aggregated(&self, sig: &UdfSignature) -> Dnf {
        self.inner
            .read()
            .get(sig)
            .map(|s| s.agg.clone())
            .unwrap_or_else(Dnf::false_)
    }

    /// Fold an executed invocation's predicate into the aggregate:
    /// `p_u ← UNION(p_u, q)`. A signature without a view has nothing to
    /// claim coverage for and is left alone.
    pub fn commit(&self, sig: &UdfSignature, q: &Dnf) {
        if let Some(s) = self.inner.write().get_mut(sig) {
            s.agg = union(&s.agg, q);
        }
    }

    /// Known signatures with their view sizes — Fig. 8(b)'s "materialized
    /// UDF results converge" series.
    pub fn view_sizes(&self) -> BTreeMap<UdfSignature, u64> {
        self.inner
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), self.storage.view_n_keys(v.view).unwrap_or(0)))
            .collect()
    }

    /// Forget everything (clean-state workload restarts). Views themselves
    /// are cleared through the storage engine by the session.
    pub fn reset(&self) {
        self.inner.write().clear();
    }

    /// Persist the manager's reuse state — signature → (view id, aggregated
    /// predicate) — to `dir/udf_manager.bin`, in the same checksummed
    /// envelope and via the same crash-safe atomic-rename protocol as view
    /// segments. Views persist separately via the storage engine; together
    /// the two restore a session's full reuse capability after a restart.
    pub fn save(&self, dir: &std::path::Path) -> eva_common::Result<()> {
        std::fs::create_dir_all(dir)?;
        let inner = self.inner.read();
        let mut w = eva_common::ByteWriter::new();
        w.count(inner.len());
        for (sig, s) in inner.iter() {
            w.str(&sig.name);
            w.str(&sig.inputs);
            w.u64(s.view.raw());
            eva_symbolic::codec::write_dnf(&mut w, &s.agg);
        }
        let sealed = eva_common::codec::seal(MANAGER_MAGIC, MANAGER_VERSION, w.as_slice());
        eva_storage::segment::write_atomic(dir, MANAGER_FILE, &sealed, self.storage.failpoints())
    }

    /// Restore state saved with [`UdfManager::save`]. The referenced views
    /// must already have been loaded into the storage engine. A manager
    /// state that fails validation returns [`eva_common::EvaError::Corrupt`]
    /// and leaves the manager untouched — the session layer treats that as
    /// "start cold", never as a fatal error. Loaded signatures are inserted
    /// over whatever the manager holds, so a caller restoring a whole
    /// session [`UdfManager::reset`]s first. Signatures whose views did not
    /// survive recovery must be dropped afterwards via
    /// [`UdfManager::prune_dangling`], or their aggregated predicates would
    /// claim coverage the store can no longer serve.
    pub fn load(&self, dir: &std::path::Path) -> eva_common::Result<()> {
        let bytes = std::fs::read(dir.join(MANAGER_FILE))?;
        let (_, payload) = eva_common::codec::unseal(&bytes, MANAGER_MAGIC, MANAGER_VERSION)?;
        let mut r = eva_common::ByteReader::new(payload);
        let n = r.count()?;
        let mut state = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let inputs = r.str()?;
            let view = ViewId(r.u64()?);
            let agg = eva_symbolic::codec::read_dnf(&mut r)?;
            state.push((UdfSignature { name, inputs }, view, agg));
        }
        r.expect_end()?;
        let mut inner = self.inner.write();
        for (sig, view, agg) in state {
            inner.insert(sig, SigState { view, agg });
        }
        Ok(())
    }

    /// Drop every signature whose view no longer exists in the storage
    /// engine (e.g. it was quarantined by the recovery pass). Without this,
    /// a stale aggregated predicate could claim full coverage and the
    /// planner would drop the APPLY branch for results that are gone —
    /// silently wrong answers. Pruned signatures simply start cold again.
    /// Returns the pruned signatures.
    pub fn prune_dangling(&self) -> Vec<UdfSignature> {
        let mut inner = self.inner.write();
        let dangling: Vec<UdfSignature> = inner
            .iter()
            .filter(|(_, s)| self.storage.view_n_keys(s.view).is_err())
            .map(|(sig, _)| sig.clone())
            .collect();
        for sig in &dangling {
            inner.remove(sig);
        }
        dangling
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::{DataType, Field};
    use eva_expr::Expr;
    use eva_symbolic::{diff, inter};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![Field::new("label", DataType::Str)]).unwrap())
    }

    fn sig() -> UdfSignature {
        UdfSignature::new("det", "video", &["frame"])
    }

    fn pred(lo: f64, hi: f64) -> Dnf {
        let e = Expr::col("id").ge(lo).and(Expr::col("id").lt(hi));
        eva_symbolic::to_dnf(&e).unwrap()
    }

    #[test]
    fn first_sight_has_no_view() {
        let mgr = UdfManager::new(StorageEngine::new());
        assert!(mgr.view_of(&sig()).is_none());
        // An unknown signature covers nothing: p∩ = FALSE, p₋ = q.
        let (p_u, q) = (mgr.aggregated(&sig()), pred(0.0, 100.0));
        assert!(inter(&p_u, &q).is_false());
        assert_eq!(diff(&p_u, &q), q);
    }

    #[test]
    fn view_created_once_per_signature() {
        let mgr = UdfManager::new(StorageEngine::new());
        let v1 = mgr.view_for(&sig(), ViewKeyKind::Frame, schema());
        let v2 = mgr.view_for(&sig(), ViewKeyKind::Frame, schema());
        assert_eq!(v1, v2);
        let other = UdfSignature::new("det", "video2", &["frame"]);
        let v3 = mgr.view_for(&other, ViewKeyKind::Frame, schema());
        assert_ne!(v1, v3);
    }

    #[test]
    fn commit_then_derive_coverage() {
        let mgr = UdfManager::new(StorageEngine::new());
        mgr.view_for(&sig(), ViewKeyKind::Frame, schema());
        mgr.commit(&sig(), &pred(0.0, 1000.0));
        let p_u = mgr.aggregated(&sig());
        // (p∩ = FALSE, p₋ = FALSE) for a subset, a disjoint and a partially
        // overlapping query.
        for (q, no_overlap, fully_covered) in [
            (pred(100.0, 200.0), false, true),
            (pred(5000.0, 6000.0), true, false),
            (pred(500.0, 1500.0), false, false),
        ] {
            assert_eq!(inter(&p_u, &q).is_false(), no_overlap, "{q}");
            assert_eq!(diff(&p_u, &q).is_false(), fully_covered, "{q}");
        }
    }

    #[test]
    fn aggregate_reduces_over_commits() {
        let mgr = UdfManager::new(StorageEngine::new());
        mgr.view_for(&sig(), ViewKeyKind::Frame, schema());
        mgr.commit(&sig(), &pred(0.0, 100.0));
        mgr.commit(&sig(), &pred(100.0, 200.0));
        mgr.commit(&sig(), &pred(50.0, 150.0));
        let agg = mgr.aggregated(&sig());
        // Three overlapping/adjacent ranges collapse to one conjunct.
        assert_eq!(agg.conjuncts().len(), 1);
        assert_eq!(agg.atom_count(), 2);
    }

    #[test]
    fn save_load_round_trips_aggregates() {
        let dir = eva_common::testutil::unique_temp_dir("mgr_roundtrip");
        let storage = StorageEngine::new();
        let mgr = UdfManager::new(storage.clone());
        mgr.view_for(&sig(), ViewKeyKind::Frame, schema());
        mgr.commit(&sig(), &pred(0.0, 500.0));
        mgr.save(&dir).unwrap();

        let mgr2 = UdfManager::new(storage);
        mgr2.load(&dir).unwrap();
        assert_eq!(mgr2.aggregated(&sig()), mgr.aggregated(&sig()));
        assert_eq!(mgr2.view_of(&sig()), mgr.view_of(&sig()));
        // Restored aggregates answer coverage questions identically.
        assert!(diff(&mgr2.aggregated(&sig()), &pred(10.0, 20.0)).is_false());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manager_state_is_corrupt_not_io() {
        let dir = eva_common::testutil::unique_temp_dir("mgr_corrupt");
        let storage = StorageEngine::new();
        let mgr = UdfManager::new(storage.clone());
        mgr.view_for(&sig(), ViewKeyKind::Frame, schema());
        mgr.commit(&sig(), &pred(0.0, 500.0));
        mgr.save(&dir).unwrap();
        let path = dir.join(super::MANAGER_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();

        let mgr2 = UdfManager::new(storage);
        let err = mgr2.load(&dir).unwrap_err();
        assert_eq!(err.stage(), "corrupt");
        // The failed load left the manager untouched (cold, not half-loaded).
        assert!(mgr2.aggregated(&sig()).is_false());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_dangling_drops_lost_views() {
        let storage = StorageEngine::new();
        let mgr = UdfManager::new(storage.clone());
        mgr.view_for(&sig(), ViewKeyKind::Frame, schema());
        mgr.commit(&sig(), &pred(0.0, 1000.0));
        assert!(mgr.prune_dangling().is_empty(), "live views are kept");

        // Simulate recovery quarantining the view: it vanishes from storage.
        storage.clear_views();
        let pruned = mgr.prune_dangling();
        assert_eq!(pruned, vec![sig()]);
        // The signature is cold again: no claimed coverage, no view.
        assert!(mgr.view_of(&sig()).is_none());
        assert!(mgr.aggregated(&sig()).is_false());
    }

    #[test]
    fn reset_clears_state() {
        let mgr = UdfManager::new(StorageEngine::new());
        mgr.view_for(&sig(), ViewKeyKind::Frame, schema());
        mgr.commit(&sig(), &pred(0.0, 10.0));
        mgr.reset();
        assert!(mgr.aggregated(&sig()).is_false());
        assert!(mgr.view_sizes().is_empty());
    }
}
