//! Memoization of the engine's repeated queries, scoped to a session.
//!
//! The IOLB driver re-tests near-identical constraint systems across
//! parametrization depths, statements and path-combination rounds: the same
//! feasibility, entailment and cardinality questions are asked over and over
//! (entailment-based bound pruning alone is quadratic in the number of
//! candidate bounds). Each [`EngineCtx`](crate::engine::EngineCtx) owns one
//! `QueryCache` for the three query kinds, consulted by
//! [`crate::fm::is_feasible_in`], [`crate::fm::implies_in`] and
//! [`crate::count::card_basic_in`]. Because the cache lives in the session,
//! unrelated analyses never share entries, and dropping the session frees
//! the memory.
//!
//! Queries are identified by the **exact** inputs (constraint lists in input
//! order) — not a canonicalised form — so a cached answer is what re-running
//! the query would produce and enabling the cache cannot change an analysis
//! result. The map key is a 128-bit fingerprint of the inputs (see
//! [`crate::fxhash`]) computed in one allocation-free walk;
//! systems are never cloned into the cache. A colliding fingerprint could in
//! principle return a wrong answer, but at ~10⁶ entries the probability is
//! ~2⁻⁸⁸ — far below the chance of a hardware fault.
//!
//! The cache is sharded (16 ways) behind `RwLock`s so the parallel driver
//! scales, and the total capacity is configurable per session
//! ([`crate::engine::EngineConfig::cache_capacity`], surfaced as the CLI's
//! `--cache-cap`): once full, new results are simply not stored (the cache
//! never evicts, which keeps lookups cheap and behaviour deterministic).
//! A capacity of 0 turns memoization off.

use crate::affine::Constraint;
use crate::fxhash::{Fingerprint, FingerprintMap};
use crate::stats::Counters;
use iolb_symbol::Poly;
use std::sync::RwLock;

/// Domain separators so the three query kinds (and the parts within a query)
/// can never alias each other's fingerprints.
mod tag {
    pub const FEASIBILITY: u64 = 1;
    pub const ENTAILMENT: u64 = 2;
    pub const COUNT: u64 = 3;
    pub const PROJECTION: u64 = 4;
    pub const PART: u64 = 0x5E77_A5A7;
}

const SHARDS: usize = 16;
/// The three boolean/polynomial query kinds the main capacity budget is split
/// across. The projection cache has its own, smaller budget (at most
/// [`PROJECTION_CAP`]) because its values are whole constraint systems, not
/// scalars.
const KINDS: usize = 3;
/// Ceiling on memoized projections, whatever the session's capacity.
const PROJECTION_CAP: usize = 65_536;

struct Sharded<V> {
    shards: Vec<RwLock<FingerprintMap<V>>>,
    shard_cap: usize,
}

impl<V: Clone> Sharded<V> {
    fn new(shard_cap: usize) -> Self {
        Sharded {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(FingerprintMap::default()))
                .collect(),
            shard_cap,
        }
    }

    fn shard(&self, key: u128) -> &RwLock<FingerprintMap<V>> {
        // The map's pass-through hasher consumes the low 64 bits, so shard
        // selection must draw on the (independent) high half.
        &self.shards[((key >> 64) as usize) % SHARDS]
    }

    fn get(&self, key: u128) -> Option<V> {
        self.shard(key).read().unwrap().get(&key).cloned()
    }

    fn insert(&self, key: u128, value: V) {
        let mut shard = self.shard(key).write().unwrap();
        if shard.len() < self.shard_cap {
            shard.insert(key, value);
        }
    }

    fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.write().unwrap();
            // Release the backing allocation too: a cleared cache must not
            // keep its high-water-mark memory resident.
            *shard = FingerprintMap::default();
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }
}

/// One session's memoization state: the three sharded fingerprint→result
/// query maps plus the projection store. Owned by
/// [`crate::engine::EngineCtx`]; use the session facade (`clear_cache`,
/// `cache_len`) from outside the crate.
pub(crate) struct QueryCache {
    feasibility: Sharded<bool>,
    entailment: Sharded<bool>,
    count: Sharded<Option<Poly>>,
    projection: Sharded<Vec<Constraint>>,
}

impl QueryCache {
    /// Creates a cache whose **total** entry count across the three
    /// boolean/polynomial query kinds is capped by `capacity`, and whose
    /// projection store is capped by `min(PROJECTION_CAP, capacity)`. Each
    /// budget is split evenly over its 16 shards, rounding up per shard (so
    /// tiny non-zero budgets still store a few entries; the true ceiling is
    /// within one entry per shard of the budget). A capacity of 0 disables
    /// storage entirely.
    pub(crate) fn new(capacity: usize) -> Self {
        let shard_cap = capacity.div_ceil(SHARDS * KINDS);
        QueryCache {
            feasibility: Sharded::new(shard_cap),
            entailment: Sharded::new(shard_cap),
            count: Sharded::new(shard_cap),
            projection: Sharded::new(PROJECTION_CAP.min(capacity).div_ceil(SHARDS)),
        }
    }

    pub(crate) fn clear(&self) {
        self.feasibility.clear();
        self.entailment.clear();
        self.count.clear();
        self.projection.clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.feasibility.len() + self.entailment.len() + self.count.len() + self.projection.len()
    }

    /// Memoizes a feasibility query. `compute` runs on a miss.
    pub(crate) fn feasibility(
        &self,
        stats: &Counters,
        sys: &[Constraint],
        nvars: usize,
        compute: impl FnOnce() -> bool,
    ) -> bool {
        let mut fp = Fingerprint::new(tag::FEASIBILITY);
        fp.add(&nvars);
        fp.add(&sys);
        let key = fp.finish();
        if let Some(v) = self.feasibility.get(key) {
            stats.bump_feasibility_cache_hit();
            return v;
        }
        let v = compute();
        self.feasibility.insert(key, v);
        v
    }

    /// Memoizes an entailment query.
    pub(crate) fn entailment(
        &self,
        stats: &Counters,
        sys: &[Constraint],
        nvars: usize,
        target: &Constraint,
        compute: impl FnOnce() -> bool,
    ) -> bool {
        let mut fp = Fingerprint::new(tag::ENTAILMENT);
        fp.add(&nvars);
        fp.add(&sys);
        fp.add(&tag::PART);
        fp.add(target);
        let key = fp.finish();
        if let Some(v) = self.entailment.get(key) {
            stats.bump_entailment_cache_hit();
            return v;
        }
        let v = compute();
        self.entailment.insert(key, v);
        v
    }

    /// Memoizes a symbolic cardinality query (including the "not exactly
    /// countable" `None` outcome, which is just as expensive to recompute).
    pub(crate) fn count(
        &self,
        stats: &Counters,
        sys: &[Constraint],
        dim: usize,
        ctx: &[Constraint],
        compute: impl FnOnce() -> Option<Poly>,
    ) -> Option<Poly> {
        let mut fp = Fingerprint::new(tag::COUNT);
        fp.add(&dim);
        fp.add(&sys);
        fp.add(&tag::PART);
        fp.add(&ctx);
        let key = fp.finish();
        if let Some(v) = self.count.get(key) {
            stats.bump_count_cache_hit();
            return v;
        }
        let v = compute();
        self.count.insert(key, v.clone());
        v
    }

    /// Memoizes a single-variable projection: the post-elimination constraint
    /// system for `(sys, idx)`. The near-identical projection chains a
    /// stencil's candidate sweep emits mostly differ in a suffix, so sibling
    /// queries converge on shared intermediate systems and skip the
    /// cross-product work entirely. `compute` is responsible for bumping
    /// `FM_ELIMINATIONS` (a *performed* elimination); the hit path bumps
    /// `PROJECTION_CACHE_HITS` here, keeping hits + eliminations equal to the
    /// number of projections requested.
    pub(crate) fn projection(
        &self,
        stats: &Counters,
        sys: Vec<Constraint>,
        idx: usize,
        compute: impl FnOnce(Vec<Constraint>) -> Vec<Constraint>,
    ) -> Vec<Constraint> {
        let mut fp = Fingerprint::new(tag::PROJECTION);
        fp.add(&idx);
        fp.add(&sys);
        let key = fp.finish();
        if let Some(v) = self.projection.get(key) {
            stats.bump_projection_cache_hit();
            return v;
        }
        let v = compute(sys);
        self.projection.insert(key, v.clone());
        v
    }

    /// Owned-system variant of [`QueryCache::feasibility`] for the recursive
    /// feasibility kernel, which hands the system to its `compute`
    /// continuation instead of re-borrowing it. Keys identically to
    /// `feasibility` (same tag, same parts), so the two entry points share
    /// entries.
    pub(crate) fn feasibility_owned(
        &self,
        stats: &Counters,
        sys: Vec<Constraint>,
        nvars: usize,
        compute: impl FnOnce(Vec<Constraint>) -> bool,
    ) -> bool {
        let mut fp = Fingerprint::new(tag::FEASIBILITY);
        fp.add(&nvars);
        fp.add(&sys);
        let key = fp.finish();
        if let Some(v) = self.feasibility.get(key) {
            stats.bump_feasibility_cache_hit();
            return v;
        }
        let v = compute(sys);
        self.feasibility.insert(key, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::LinExpr;
    use crate::engine::EngineCtx;

    fn c(k: i128) -> Constraint {
        Constraint::ge0(LinExpr::constant(1, k))
    }

    #[test]
    fn feasibility_memoizes() {
        let e = EngineCtx::new();
        let sys = vec![c(101), c(102)];
        let mut calls = 0;
        let a = e.query_cache().feasibility(e.counters(), &sys, 1, || {
            calls += 1;
            true
        });
        let b = e.query_cache().feasibility(e.counters(), &sys, 1, || {
            calls += 1;
            false // would poison the cache if actually called
        });
        assert!(a && b);
        assert_eq!(calls, 1);
        assert_eq!(e.stats().FEASIBILITY_CACHE_HITS, 1);
    }

    #[test]
    fn count_caches_none_too() {
        let e = EngineCtx::new();
        let sys = vec![c(107)];
        let mut calls = 0;
        let first = e.query_cache().count(e.counters(), &sys, 1, &[], || {
            calls += 1;
            None
        });
        let second = e.query_cache().count(e.counters(), &sys, 1, &[], || {
            calls += 1;
            Some(Poly::one())
        });
        assert!(first.is_none() && second.is_none());
        assert_eq!(calls, 1);
    }

    #[test]
    fn distinct_queries_do_not_alias() {
        let e = EngineCtx::new();
        let cache = e.query_cache();
        let stats = e.counters();
        // Same system, different arity.
        let a = cache.feasibility(stats, &[c(108)], 1, || true);
        let b = cache.feasibility(stats, &[c(108)], 2, || false);
        assert!(a);
        assert!(!b);
        // A feasibility key never answers an entailment query.
        let t = c(109);
        let e1 = cache.entailment(stats, &[c(108)], 1, &t, || false);
        assert!(!e1);
        // Shifting a constraint between `sys` and `target` changes the key.
        let x = cache.entailment(stats, &[c(108), c(110)], 1, &t, || true);
        let y = cache.entailment(stats, &[c(108)], 1, &c(110), || false);
        assert!(x);
        assert!(!y);
    }

    #[test]
    fn sessions_do_not_share_entries() {
        let a = EngineCtx::new();
        let b = EngineCtx::new();
        let sys = vec![c(111)];
        a.query_cache().feasibility(a.counters(), &sys, 1, || true);
        // Same key in session b must recompute (and may differ).
        let v = b.query_cache().feasibility(b.counters(), &sys, 1, || false);
        assert!(!v);
        assert_eq!(a.cache_len(), 1);
        assert_eq!(b.cache_len(), 1);
    }
}
