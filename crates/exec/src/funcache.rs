//! The FunCache baseline's tuple-level function cache (§5.1).
//!
//! An in-memory hash table mapping `(udf, 128-bit xxHash of the input
//! arguments)` to the UDF's output rows. The defining overhead of this
//! approach — hashing the raw frame bytes on **every** invocation, hit or
//! miss — is charged to the virtual clock by the apply operator.
//!
//! UDF names are interned to small integer ids, so building the per-row
//! cache key allocates nothing; cached values are `Arc<[Row]>`, so hits
//! share rows instead of copying them.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

use eva_common::hash::xxhash128;
use eva_common::Row;

/// A fully-interned cache key: UDF id plus the 128-bit argument hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FunCacheKey {
    udf: u32,
    lo: u64,
    hi: u64,
}

/// Shared tuple-level cache. Cheap to clone; contents live for a workload.
#[derive(Debug, Clone, Default)]
pub struct FunCacheTable {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// UDF name → interned id. Read-locked on the hot path; a write lock is
    /// only taken the first time a name is seen.
    names: RwLock<HashMap<String, u32>>,
    map: Mutex<HashMap<FunCacheKey, Arc<[Row]>>>,
}

impl FunCacheTable {
    /// Fresh empty cache.
    pub fn new() -> FunCacheTable {
        FunCacheTable::default()
    }

    /// Intern a UDF name to its small id (allocation-free after the first
    /// call per name).
    fn intern(&self, udf: &str) -> u32 {
        if let Some(&id) = self.inner.names.read().get(udf) {
            return id;
        }
        let mut names = self.inner.names.write();
        if let Some(&id) = names.get(udf) {
            return id;
        }
        let id = names.len() as u32;
        names.insert(udf.to_string(), id);
        id
    }

    /// Compute the cache key for raw argument bytes.
    pub fn key(&self, udf: &str, arg_bytes: &[u8]) -> FunCacheKey {
        let (lo, hi) = xxhash128(arg_bytes);
        FunCacheKey {
            udf: self.intern(udf),
            lo,
            hi,
        }
    }

    /// Look up previously cached results (a hit shares the stored rows).
    pub fn get(&self, key: &FunCacheKey) -> Option<Arc<[Row]>> {
        self.inner.map.lock().get(key).map(Arc::clone)
    }

    /// Insert results for a key; returns the rows as the table now shares
    /// them.
    pub fn insert(&self, key: FunCacheKey, rows: Vec<Row>) -> Arc<[Row]> {
        let rows: Arc<[Row]> = rows.into();
        self.inner.map.lock().insert(key, Arc::clone(&rows));
        rows
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.map.lock().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.inner.map.lock().is_empty()
    }

    /// Drop everything (workload restart). Interned names survive — ids
    /// stay stable for the session.
    pub fn clear(&self) {
        self.inner.map.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_common::Value;

    #[test]
    fn round_trip() {
        let c = FunCacheTable::new();
        let k = c.key("det", b"frame-0-bytes");
        assert!(c.get(&k).is_none());
        c.insert(k, vec![vec![Value::Int(1)]]);
        assert_eq!(c.get(&k).unwrap()[0][0], Value::Int(1));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn keys_distinguish_udf_and_bytes() {
        let c = FunCacheTable::new();
        let a = c.key("det", b"x");
        let b = c.key("det", b"y");
        let other = c.key("other", b"x");
        assert_ne!(a, b);
        assert_ne!(a, other);
    }

    #[test]
    fn interning_is_stable() {
        let c = FunCacheTable::new();
        let a = c.key("det", b"x");
        let b = c.key("det", b"x");
        assert_eq!(a, b, "same name + bytes → same key");
        c.clear();
        assert_eq!(c.key("det", b"x"), a, "ids survive a clear");
    }

    #[test]
    fn hits_share_rows() {
        let c = FunCacheTable::new();
        let k = c.key("det", b"bytes");
        c.insert(k, vec![vec![Value::Int(1)]]);
        let a = c.get(&k).unwrap();
        let b = c.get(&k).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache hits must be zero-copy");
    }
}
