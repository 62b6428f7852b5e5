//! Deterministic fault injection.
//!
//! The durability story of the view store (DESIGN.md §4d) is only credible
//! if every failure mode it claims to survive is actually exercised. This
//! module provides a small, fully deterministic failpoint facility: named
//! injection *sites* wired through the storage save/load path and the UDF
//! evaluation path, each armed with a [`FireRule`] deciding *when* the site
//! fires.
//!
//! Every site is *ordinal*: it fires on hit indices (`nth:3`, `every:2`,
//! `always`). Save/load walk segments in a fixed order and the executor
//! evaluates batches in a fixed order, so "the 3rd write crashes" or "the
//! 2nd evaluation fails" is perfectly reproducible. Nothing here touches
//! wall-clock time or the [`SimClock`](crate::SimClock): an injected failure
//! is free.
//!
//! Registries are armed programmatically ([`FailpointRegistry::arm`]) or
//! from the `EVA_FAILPOINTS` environment variable (see
//! [`FailpointRegistry::apply_spec`] for the grammar), which is how the CI
//! chaos job runs the whole fault-injection suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{EvaError, Result};

/// Environment variable consulted by [`FailpointRegistry::from_env`].
pub const FAILPOINTS_ENV: &str = "EVA_FAILPOINTS";

/// A named injection site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Failpoint {
    /// Crash mid-write: a partial payload lands in the temp file and the
    /// save aborts before the atomic rename.
    TornWrite,
    /// A lying disk: fewer bytes than the header claims are persisted, yet
    /// the file is renamed into place as if the write completed.
    ShortWrite,
    /// Crash between the temp-file write and the atomic rename.
    RenameFail,
    /// Silent corruption: one bit of an already-persisted file is flipped
    /// after a successful save.
    BitFlip,
    /// A UDF evaluation fails: hit once per evaluation batch and once per
    /// FunCache miss; the query fails with an `Exec` error naming the UDF.
    UdfFail,
}

impl Failpoint {
    /// Every site, in stable order.
    pub const ALL: [Failpoint; 5] = [
        Failpoint::TornWrite,
        Failpoint::ShortWrite,
        Failpoint::RenameFail,
        Failpoint::BitFlip,
        Failpoint::UdfFail,
    ];

    /// The site's name as used in `EVA_FAILPOINTS` specs.
    pub fn name(&self) -> &'static str {
        match self {
            Failpoint::TornWrite => "torn_write",
            Failpoint::ShortWrite => "short_write",
            Failpoint::RenameFail => "rename_fail",
            Failpoint::BitFlip => "bit_flip",
            Failpoint::UdfFail => "udf_fail",
        }
    }

    /// Parse a site name.
    pub fn parse(s: &str) -> Option<Failpoint> {
        Failpoint::ALL.into_iter().find(|f| f.name() == s)
    }

    fn index(&self) -> usize {
        match self {
            Failpoint::TornWrite => 0,
            Failpoint::ShortWrite => 1,
            Failpoint::RenameFail => 2,
            Failpoint::BitFlip => 3,
            Failpoint::UdfFail => 4,
        }
    }
}

/// When an armed site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FireRule {
    /// Disarmed (the default for every site).
    Never,
    /// Fire on every hit.
    Always,
    /// Fire exactly once, on the `n`-th hit (1-based).
    Nth(u64),
    /// Fire on every `n`-th hit (`n ≥ 1`).
    Every(u64),
}

#[derive(Debug, Default)]
struct Site {
    rule: Mutex<Option<FireRule>>,
    hits: AtomicU64,
    fires: AtomicU64,
}

/// A set of armed failpoints. Cheap to clone (shared state), `Sync`, and
/// disarmed by default. Every site check locks that site's `Mutex` to read
/// its rule (uncontended: a query checks its sites from one thread); an
/// armed site then bumps its hit counter with a relaxed atomic add.
#[derive(Debug, Clone, Default)]
pub struct FailpointRegistry {
    sites: Arc<[Site; 5]>,
}

impl FailpointRegistry {
    /// A registry with every site disarmed.
    pub fn new() -> FailpointRegistry {
        FailpointRegistry::default()
    }

    /// A registry armed from the `EVA_FAILPOINTS` environment variable, or
    /// fully disarmed when the variable is unset. Parse errors disarm the
    /// registry rather than failing construction — a bad spec must never
    /// take down a production engine.
    pub fn from_env() -> FailpointRegistry {
        let reg = FailpointRegistry::new();
        if let Ok(spec) = std::env::var(FAILPOINTS_ENV) {
            let _ = reg.apply_spec(&spec);
        }
        reg
    }

    /// Arm one site. Resets the site's hit/fire counters.
    pub fn arm(&self, site: Failpoint, rule: FireRule) {
        let s = &self.sites[site.index()];
        *s.rule.lock().expect("failpoint lock") = match rule {
            FireRule::Never => None,
            other => Some(other),
        };
        s.hits.store(0, Ordering::Relaxed);
        s.fires.store(0, Ordering::Relaxed);
    }

    /// Disarm one site.
    pub fn disarm(&self, site: Failpoint) {
        self.arm(site, FireRule::Never);
    }

    /// Disarm every site (chaos scenarios call this between cases).
    pub fn disarm_all(&self) {
        for site in Failpoint::ALL {
            self.disarm(site);
        }
    }

    /// The rule currently arming a site.
    pub fn rule(&self, site: Failpoint) -> FireRule {
        self.sites[site.index()]
            .rule
            .lock()
            .expect("failpoint lock")
            .unwrap_or(FireRule::Never)
    }

    /// Is any site armed?
    pub fn any_armed(&self) -> bool {
        Failpoint::ALL
            .iter()
            .any(|s| self.rule(*s) != FireRule::Never)
    }

    /// How many times a site has fired since it was last armed.
    pub fn fires(&self, site: Failpoint) -> u64 {
        self.sites[site.index()].fires.load(Ordering::Relaxed)
    }

    /// Register one hit on a site and decide whether it fires.
    pub fn should_fire(&self, site: Failpoint) -> bool {
        let s = &self.sites[site.index()];
        let Some(rule) = *s.rule.lock().expect("failpoint lock") else {
            return false;
        };
        let hit = s.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = match rule {
            FireRule::Never => false,
            FireRule::Always => true,
            FireRule::Nth(n) => hit == n,
            FireRule::Every(n) => n > 0 && hit % n == 0,
        };
        if fire {
            s.fires.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Arm sites from a spec string. Grammar (`;`- or `,`-separated items):
    ///
    /// ```text
    /// all                arm the four storage sites with `nth:1`
    /// <site>=off         disarm one site
    /// <site>=always      fire on every hit
    /// <site>=nth:<n>     fire once, on the n-th hit
    /// <site>=every:<n>   fire on every n-th hit
    /// ```
    ///
    /// `all` leaves `udf_fail` alone: armed, it fails queries outright
    /// rather than exercising a recovery path, so it is armed by name.
    pub fn apply_spec(&self, spec: &str) -> Result<()> {
        for item in spec
            .split([';', ','])
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            if item == "all" {
                for site in Failpoint::ALL {
                    if site != Failpoint::UdfFail {
                        self.arm(site, FireRule::Nth(1));
                    }
                }
                continue;
            }
            let (name, rule) = item.split_once('=').ok_or_else(|| {
                EvaError::Config(format!("bad failpoint item '{item}' (want site=rule)"))
            })?;
            let site = Failpoint::parse(name)
                .ok_or_else(|| EvaError::Config(format!("unknown failpoint site '{name}'")))?;
            self.arm(site, parse_rule(rule)?);
        }
        Ok(())
    }
}

fn parse_rule(rule: &str) -> Result<FireRule> {
    let bad = || EvaError::Config(format!("bad failpoint rule '{rule}'"));
    let parts: Vec<&str> = rule.split(':').collect();
    match parts.as_slice() {
        ["off"] | ["never"] => Ok(FireRule::Never),
        ["always"] => Ok(FireRule::Always),
        ["nth", n] => n.parse().map(FireRule::Nth).map_err(|_| bad()),
        ["every", n] => n.parse().map(FireRule::Every).map_err(|_| bad()),
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_by_default() {
        let r = FailpointRegistry::new();
        for site in Failpoint::ALL {
            assert!(!r.should_fire(site));
            assert_eq!(r.fires(site), 0);
        }
        assert!(!r.any_armed());
    }

    #[test]
    fn nth_fires_exactly_once() {
        let r = FailpointRegistry::new();
        r.arm(Failpoint::TornWrite, FireRule::Nth(3));
        let fired: Vec<bool> = (0..6)
            .map(|_| r.should_fire(Failpoint::TornWrite))
            .collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(r.fires(Failpoint::TornWrite), 1);
    }

    #[test]
    fn every_fires_periodically() {
        let r = FailpointRegistry::new();
        r.arm(Failpoint::RenameFail, FireRule::Every(2));
        let fired: Vec<bool> = (0..6)
            .map(|_| r.should_fire(Failpoint::RenameFail))
            .collect();
        assert_eq!(fired, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn always_and_disarm() {
        let r = FailpointRegistry::new();
        r.arm(Failpoint::BitFlip, FireRule::Always);
        assert!(r.should_fire(Failpoint::BitFlip));
        r.disarm(Failpoint::BitFlip);
        assert!(!r.should_fire(Failpoint::BitFlip));
    }

    #[test]
    fn spec_round_trip() {
        let r = FailpointRegistry::new();
        r.apply_spec("torn_write=nth:2; rename_fail=always, udf_fail=every:3")
            .unwrap();
        assert_eq!(r.rule(Failpoint::TornWrite), FireRule::Nth(2));
        assert_eq!(r.rule(Failpoint::RenameFail), FireRule::Always);
        assert_eq!(r.rule(Failpoint::ShortWrite), FireRule::Never);
        assert_eq!(r.rule(Failpoint::UdfFail), FireRule::Every(3));
        r.apply_spec("torn_write=off").unwrap();
        assert_eq!(r.rule(Failpoint::TornWrite), FireRule::Never);
    }

    #[test]
    fn spec_all_arms_everything() {
        let r = FailpointRegistry::new();
        r.apply_spec("all").unwrap();
        assert!(r.any_armed());
        for site in Failpoint::ALL {
            let want = match site {
                Failpoint::UdfFail => FireRule::Never,
                _ => FireRule::Nth(1),
            };
            assert_eq!(r.rule(site), want, "{}", site.name());
        }
    }

    #[test]
    fn spec_errors_are_reported() {
        let r = FailpointRegistry::new();
        assert!(r.apply_spec("nope=always").is_err());
        assert!(r.apply_spec("torn_write").is_err());
        assert!(r.apply_spec("torn_write=wat").is_err());
        assert!(r.apply_spec("udf_fail=p:0.5").is_err());
        assert!(r.apply_spec("seed:99").is_err());
    }

    #[test]
    fn arming_resets_counters() {
        let r = FailpointRegistry::new();
        r.arm(Failpoint::TornWrite, FireRule::Always);
        assert!(r.should_fire(Failpoint::TornWrite));
        assert_eq!(r.fires(Failpoint::TornWrite), 1);
        r.arm(Failpoint::TornWrite, FireRule::Nth(1));
        assert_eq!(r.fires(Failpoint::TornWrite), 0);
        assert!(r.should_fire(Failpoint::TornWrite));
    }

    #[test]
    fn clones_share_state() {
        let a = FailpointRegistry::new();
        let b = a.clone();
        b.arm(Failpoint::ShortWrite, FireRule::Always);
        assert!(a.should_fire(Failpoint::ShortWrite));
        assert_eq!(b.fires(Failpoint::ShortWrite), 1);
    }

    #[test]
    fn site_names_round_trip() {
        for site in Failpoint::ALL {
            assert_eq!(Failpoint::parse(site.name()), Some(site));
        }
        assert_eq!(Failpoint::parse("bogus"), None);
    }
}
