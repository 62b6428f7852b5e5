//! Deterministic fault injection.
//!
//! The durability story of the view store (DESIGN.md §4d) is only credible
//! if every failure mode it claims to survive is actually exercised. This
//! module provides a small, fully deterministic failpoint facility: named
//! injection *sites* wired through the storage save/load path and the UDF
//! runtime, each armed with a [`FireRule`] deciding *when* the site fires.
//!
//! Determinism is the design constraint throughout:
//!
//! * **Ordinal sites** (the storage IO sites) fire on hit indices
//!   (`nth:3`, `every:2`, `always`). Save/load walk segments in a fixed
//!   order, so "the 3rd write crashes" is perfectly reproducible.
//! * **Keyed sites** (`udf_transient`) decide per *input key* via a seeded
//!   hash, never per hit order — a UDF invocation for frame 17 fails on the
//!   same attempts whatever batch it lands in and in whatever order the
//!   batch is evaluated. The *set* of failures is a function of the keys, so
//!   the `CostBreakdown` under injected faults repeats exactly; the executor
//!   charges all retry backoff on the caller thread.
//!
//! Nothing here touches wall-clock time: injected failures are free, and
//! the *response* to them (retry backoff in the executor) is charged to the
//! session's [`SimClock`](crate::SimClock) like any other simulated cost.
//!
//! Registries are armed programmatically ([`FailpointRegistry::arm`]) or
//! from the `EVA_FAILPOINTS` environment variable (see
//! [`FailpointRegistry::apply_spec`] for the grammar), which is how the CI
//! chaos job runs the whole fault-injection suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{EvaError, Result};
use crate::hash::xxhash64;

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
    /// A transient UDF failure (flaky model server); the executor's retry
    /// path owns the response.
    UdfTransient,
}

impl Failpoint {
    /// Every site, in stable order.
    pub const ALL: [Failpoint; 5] = [
        Failpoint::TornWrite,
        Failpoint::ShortWrite,
        Failpoint::RenameFail,
        Failpoint::BitFlip,
        Failpoint::UdfTransient,
    ];

    /// The site's name as used in `EVA_FAILPOINTS` specs.
    pub fn name(&self) -> &'static str {
        match self {
            Failpoint::TornWrite => "torn_write",
            Failpoint::ShortWrite => "short_write",
            Failpoint::RenameFail => "rename_fail",
            Failpoint::BitFlip => "bit_flip",
            Failpoint::UdfTransient => "udf_transient",
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
            Failpoint::UdfTransient => 4,
        }
    }

    /// Per-site salt folded into keyed decisions so two sites armed with the
    /// same probability select different key sets.
    fn salt(&self) -> u64 {
        0x5EED_FA11_0000_0000 | self.index() as u64
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
    /// Keyed decision for [`Failpoint::UdfTransient`]: a key is *selected*
    /// with probability `prob_permille / 1000` (seeded hash of the key — the
    /// same key is always selected or never, independent of evaluation
    /// order), and a selected key fails its first `fails` attempts before
    /// succeeding.
    Keyed {
        /// Selection probability in permille (0..=1000).
        prob_permille: u16,
        /// Number of leading attempts that fail for a selected key.
        fails: u32,
    },
}

#[derive(Debug, Default)]
struct Site {
    rule: Mutex<Option<FireRule>>,
    hits: AtomicU64,
    fires: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    sites: [Site; 5],
    seed: AtomicU64,
}

/// A set of armed failpoints. Cheap to clone (shared state), `Sync`, and
/// disarmed by default so production paths pay one relaxed atomic load per
/// site check.
#[derive(Debug, Clone, Default)]
pub struct FailpointRegistry {
    inner: Arc<Inner>,
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

    /// The seed folded into keyed decisions (chaos runs record it so every
    /// injected failure is replayable).
    pub fn seed(&self) -> u64 {
        self.inner.seed.load(Ordering::Relaxed)
    }

    /// Set the keyed-decision seed.
    pub fn set_seed(&self, seed: u64) {
        self.inner.seed.store(seed, Ordering::Relaxed);
    }

    /// Arm one site. Resets the site's hit/fire counters.
    pub fn arm(&self, site: Failpoint, rule: FireRule) {
        let s = &self.inner.sites[site.index()];
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
        self.inner.sites[site.index()]
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
        self.inner.sites[site.index()].fires.load(Ordering::Relaxed)
    }

    /// Register one hit on an ordinal site and decide whether it fires.
    /// Keyed rules never fire through this path.
    pub fn should_fire(&self, site: Failpoint) -> bool {
        let s = &self.inner.sites[site.index()];
        let Some(rule) = *s.rule.lock().expect("failpoint lock") else {
            return false;
        };
        let hit = s.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = match rule {
            FireRule::Never | FireRule::Keyed { .. } => false,
            FireRule::Always => true,
            FireRule::Nth(n) => hit == n,
            FireRule::Every(n) => n > 0 && hit % n == 0,
        };
        if fire {
            s.fires.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Keyed decision: should attempt number `attempt` (0-based) for input
    /// `key` fail at this site? Deterministic in `(seed, site, key,
    /// attempt)` and independent of call order, so parallel and serial
    /// executions inject the identical failure set.
    pub fn should_fail_keyed(&self, site: Failpoint, key: u64, attempt: u32) -> bool {
        let s = &self.inner.sites[site.index()];
        let Some(FireRule::Keyed {
            prob_permille,
            fails,
        }) = *s.rule.lock().expect("failpoint lock")
        else {
            return false;
        };
        s.hits.fetch_add(1, Ordering::Relaxed);
        let seed = self.seed() ^ site.salt();
        let selected = xxhash64(&key.to_le_bytes(), seed) % 1000 < prob_permille as u64;
        let fire = selected && attempt < fails;
        if fire {
            s.fires.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Arm sites from a spec string. Grammar (`;`- or `,`-separated items):
    ///
    /// ```text
    /// all                      arm every site with its default rule
    /// seed:<u64>               set the keyed-decision seed
    /// <site>=off               disarm one site
    /// <site>=always            fire on every hit
    /// <site>=nth:<n>           fire once, on the n-th hit
    /// <site>=every:<n>         fire on every n-th hit
    /// udf_transient=p:<f>:fails:<n>   keyed: select keys w.p. f, fail n attempts
    /// ```
    ///
    /// Default rules under `all`: ordinal sites get `nth:1`,
    /// `udf_transient` gets `p:0.25:fails:1`.
    pub fn apply_spec(&self, spec: &str) -> Result<()> {
        for item in spec
            .split([';', ','])
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            if item == "all" {
                for site in Failpoint::ALL {
                    self.arm(site, default_rule(site));
                }
                continue;
            }
            if let Some(seed) = item.strip_prefix("seed:") {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| EvaError::Config(format!("bad failpoint seed '{seed}'")))?;
                self.set_seed(seed);
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

/// The rule `all` arms a site with.
fn default_rule(site: Failpoint) -> FireRule {
    match site {
        Failpoint::UdfTransient => FireRule::Keyed {
            prob_permille: 250,
            fails: 1,
        },
        _ => FireRule::Nth(1),
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
        ["p", p] | ["p", p, "fails", _] => {
            let prob: f64 = p.parse().map_err(|_| bad())?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(bad());
            }
            let fails = match parts.as_slice() {
                [_, _, _, n] => n.parse().map_err(|_| bad())?,
                _ => 1,
            };
            Ok(FireRule::Keyed {
                prob_permille: (prob * 1000.0).round() as u16,
                fails,
            })
        }
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
            assert!(!r.should_fail_keyed(site, 7, 0));
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
    fn keyed_decisions_are_order_independent() {
        let r = FailpointRegistry::new();
        r.set_seed(42);
        r.arm(
            Failpoint::UdfTransient,
            FireRule::Keyed {
                prob_permille: 500,
                fails: 2,
            },
        );
        let forward: Vec<bool> = (0..100)
            .map(|k| r.should_fail_keyed(Failpoint::UdfTransient, k, 0))
            .collect();
        let backward: Vec<bool> = (0..100)
            .rev()
            .map(|k| r.should_fail_keyed(Failpoint::UdfTransient, k, 0))
            .collect();
        let backward_reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_reversed);
        let n_selected = forward.iter().filter(|b| **b).count();
        assert!((20..80).contains(&n_selected), "p=0.5 of 100: {n_selected}");
        // A selected key fails attempts 0 and 1, then succeeds.
        let k = forward.iter().position(|b| *b).unwrap() as u64;
        assert!(r.should_fail_keyed(Failpoint::UdfTransient, k, 1));
        assert!(!r.should_fail_keyed(Failpoint::UdfTransient, k, 2));
    }

    #[test]
    fn seed_changes_the_selected_set() {
        let select = |seed: u64| -> Vec<bool> {
            let r = FailpointRegistry::new();
            r.set_seed(seed);
            r.arm(
                Failpoint::UdfTransient,
                FireRule::Keyed {
                    prob_permille: 500,
                    fails: 1,
                },
            );
            (0..64)
                .map(|k| r.should_fail_keyed(Failpoint::UdfTransient, k, 0))
                .collect()
        };
        assert_ne!(select(1), select(2));
        assert_eq!(select(3), select(3));
    }

    #[test]
    fn spec_round_trip() {
        let r = FailpointRegistry::new();
        r.apply_spec("torn_write=nth:2; rename_fail=always, seed:99")
            .unwrap();
        assert_eq!(r.rule(Failpoint::TornWrite), FireRule::Nth(2));
        assert_eq!(r.rule(Failpoint::RenameFail), FireRule::Always);
        assert_eq!(r.rule(Failpoint::ShortWrite), FireRule::Never);
        assert_eq!(r.seed(), 99);
        r.apply_spec("torn_write=off").unwrap();
        assert_eq!(r.rule(Failpoint::TornWrite), FireRule::Never);
    }

    #[test]
    fn spec_all_arms_everything() {
        let r = FailpointRegistry::new();
        r.apply_spec("all").unwrap();
        assert!(r.any_armed());
        for site in Failpoint::ALL {
            assert_ne!(r.rule(site), FireRule::Never, "{}", site.name());
        }
        assert_eq!(
            r.rule(Failpoint::UdfTransient),
            FireRule::Keyed {
                prob_permille: 250,
                fails: 1
            }
        );
    }

    #[test]
    fn spec_keyed_grammar() {
        let r = FailpointRegistry::new();
        r.apply_spec("udf_transient=p:0.5:fails:3").unwrap();
        assert_eq!(
            r.rule(Failpoint::UdfTransient),
            FireRule::Keyed {
                prob_permille: 500,
                fails: 3
            }
        );
        r.apply_spec("udf_transient=p:0.1").unwrap();
        assert_eq!(
            r.rule(Failpoint::UdfTransient),
            FireRule::Keyed {
                prob_permille: 100,
                fails: 1
            }
        );
    }

    #[test]
    fn spec_errors_are_reported() {
        let r = FailpointRegistry::new();
        assert!(r.apply_spec("nope=always").is_err());
        assert!(r.apply_spec("torn_write").is_err());
        assert!(r.apply_spec("torn_write=wat").is_err());
        assert!(r.apply_spec("udf_transient=p:1.5").is_err());
        assert!(r.apply_spec("seed:abc").is_err());
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
