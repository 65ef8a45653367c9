//! Engine-operation counters, scoped to a session.
//!
//! Each [`EngineCtx`](crate::engine::EngineCtx) owns one set of [`Counters`]:
//! cheap `AtomicU64` tallies of the polyhedral engine's hot operations
//! (feasibility checks, entailment checks, variable eliminations, symbolic
//! counts) and of the [`crate::cache`] hit rates. Because the counters live
//! in the session, concurrent analyses report **disjoint** statistics — one
//! user's work never inflates another's numbers. The `perf_report` binary
//! snapshots these alongside wall-clock times so that perf regressions show
//! up as *operation-count* regressions too, which are stable across
//! machines.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $NAME:ident / $field:ident $(/ $bump:ident)?),+ $(,)?) => {
        /// One session's operation counters (all relaxed atomics).
        #[derive(Default)]
        pub struct Counters {
            $( $(#[$doc])* $field: AtomicU64, )+
        }

        impl Counters {
            /// Fresh zeroed counters.
            pub fn new() -> Self {
                Counters::default()
            }

            $($(
                #[inline]
                pub(crate) fn $bump(&self) {
                    self.$field.fetch_add(1, Ordering::Relaxed);
                }
            )?)+

            /// Reads every counter (relaxed; values are advisory).
            pub fn snapshot(&self) -> Snapshot {
                Snapshot { $( $NAME: self.$field.load(Ordering::Relaxed), )+ }
            }

            /// Resets every counter to zero.
            pub fn reset(&self) {
                $( self.$field.store(0, Ordering::Relaxed); )+
            }
        }

        /// A point-in-time snapshot of every engine counter.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        #[allow(non_snake_case)]
        pub struct Snapshot {
            $( $(#[$doc])* pub $NAME: u64, )+
        }

        impl Snapshot {
            /// The counters as `(name, value)` pairs, in declaration order.
            pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (stringify!($NAME), self.$NAME), )+ ]
            }

            /// The counter increments between `earlier` and `self`
            /// (saturating, so a reset in between yields zeros rather than
            /// wrapping).
            pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
                Snapshot { $( $NAME: self.$NAME.saturating_sub(earlier.$NAME), )+ }
            }
        }
    };
}

counters! {
    /// Rational feasibility queries consulted: top-level `fm::is_feasible_in`
    /// calls plus every memoized intermediate state of the recursive
    /// elimination kernel (each consult may be answered from the cache).
    FEASIBILITY_CHECKS / feasibility_checks / bump_feasibility_check,
    /// Feasibility checks answered from the cache.
    FEASIBILITY_CACHE_HITS / feasibility_cache_hits / bump_feasibility_cache_hit,
    /// Entailment checks performed (`fm::implies_in` calls).
    ENTAILMENT_CHECKS / entailment_checks / bump_entailment_check,
    /// Entailment checks answered from the cache.
    ENTAILMENT_CACHE_HITS / entailment_cache_hits / bump_entailment_cache_hit,
    /// Single-variable Fourier–Motzkin eliminations performed.
    FM_ELIMINATIONS / fm_eliminations / bump_fm_elimination,
    /// Symbolic cardinality computations (`count::card_basic_in` calls).
    COUNT_CALLS / count_calls / bump_count_call,
    /// Cardinality computations answered from the cache.
    COUNT_CACHE_HITS / count_cache_hits / bump_count_cache_hit,
    /// Always 0: the engine has no LP redundancy pruner. Kept because
    /// `engine_stats` in schema-v1 documents carries it.
    LP_CALLS / lp_calls,
    /// Always 0, like [`LP_CALLS`](Snapshot::LP_CALLS); kept for schema v1.
    LP_DROPPED_CONSTRAINTS / lp_dropped_constraints,
    /// Feasibility eliminations where the greedy ordering heuristic picked a
    /// variable other than the fixed highest-index default.
    GREEDY_REORDERS / greedy_reorders / bump_greedy_reorder,
    /// Single-variable projections answered from the projection cache.
    PROJECTION_CACHE_HITS / projection_cache_hits / bump_projection_cache_hit,
}

/// `hits / total`, or `None` when no query of the kind ran at all — an
/// idle session has **no** hit rate, which is not the
/// same thing as a 0% one (and naively dividing would put a `NaN`, which is
/// not valid JSON, into the serialised reports).
fn rate(hits: u64, total: u64) -> Option<f64> {
    if total == 0 {
        None
    } else {
        Some(hits as f64 / total as f64)
    }
}

impl Snapshot {
    /// Fraction of feasibility checks answered from the cache, or `None`
    /// when no feasibility check ran.
    pub fn feasibility_hit_rate(&self) -> Option<f64> {
        rate(self.FEASIBILITY_CACHE_HITS, self.FEASIBILITY_CHECKS)
    }

    /// Fraction of entailment checks answered from the cache, or `None`
    /// when no entailment check ran.
    pub fn entailment_hit_rate(&self) -> Option<f64> {
        rate(self.ENTAILMENT_CACHE_HITS, self.ENTAILMENT_CHECKS)
    }

    /// Fraction of cardinality computations answered from the cache, or
    /// `None` when no cardinality computation ran.
    pub fn count_hit_rate(&self) -> Option<f64> {
        rate(self.COUNT_CACHE_HITS, self.COUNT_CALLS)
    }

    /// Fraction of single-variable projections answered from the projection
    /// cache, or `None` when no projection ran. `FM_ELIMINATIONS` counts only
    /// the projections actually *performed* (cache misses), so hits + misses
    /// is the total number of projections requested.
    pub fn projection_hit_rate(&self) -> Option<f64> {
        rate(
            self.PROJECTION_CACHE_HITS,
            self.PROJECTION_CACHE_HITS + self.FM_ELIMINATIONS,
        )
    }

    /// The per-query-kind cache hit rates as `(name, rate)` pairs
    /// (serialised into `BENCH_analysis.json` and the report JSON per
    /// session). A `None` rate means the session saw no query of that kind
    /// and serialises as JSON `null`, never as `NaN`.
    pub fn hit_rates(&self) -> Vec<(&'static str, Option<f64>)> {
        vec![
            ("feasibility_hit_rate", self.feasibility_hit_rate()),
            ("entailment_hit_rate", self.entailment_hit_rate()),
            ("count_hit_rate", self.count_hit_rate()),
            ("projection_hit_rate", self.projection_hit_rate()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineCtx;

    #[test]
    fn snapshot_and_reset() {
        let e = EngineCtx::new();
        e.counters().bump_fm_elimination();
        e.counters().bump_fm_elimination();
        assert_eq!(e.stats().FM_ELIMINATIONS, 2);
        let pairs = e.stats().as_pairs();
        assert_eq!(pairs.len(), 11);
        assert!(pairs.iter().any(|(k, _)| *k == "FM_ELIMINATIONS"));
        e.reset_stats();
        assert_eq!(e.stats(), Snapshot::default());
    }

    #[test]
    fn delta_since_subtracts_saturating() {
        let a = Snapshot {
            FM_ELIMINATIONS: 5,
            COUNT_CALLS: 2,
            ..Snapshot::default()
        };
        let b = Snapshot {
            FM_ELIMINATIONS: 8,
            ..Snapshot::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.FM_ELIMINATIONS, 3);
        assert_eq!(d.COUNT_CALLS, 0, "saturates instead of wrapping");
    }

    #[test]
    fn hit_rates_divide_safely() {
        // Regression: a session that saw zero queries (an idle session) has
        // no hit rate at all — `None`, which serialises as
        // JSON `null` — never a 0/0 division (NaN is not valid JSON).
        let s = Snapshot::default();
        assert_eq!(s.feasibility_hit_rate(), None);
        assert_eq!(s.entailment_hit_rate(), None);
        assert_eq!(s.count_hit_rate(), None);
        assert!(s.hit_rates().iter().all(|(_, r)| r.is_none()));
        let s = Snapshot {
            FEASIBILITY_CHECKS: 4,
            FEASIBILITY_CACHE_HITS: 1,
            ..Snapshot::default()
        };
        assert_eq!(s.feasibility_hit_rate(), Some(0.25));
        assert_eq!(s.hit_rates().len(), 4);
        assert!(s
            .hit_rates()
            .iter()
            .all(|(_, r)| r.is_none_or(|r| r.is_finite())));
    }

    #[test]
    fn sessions_count_independently() {
        let a = EngineCtx::new();
        let b = EngineCtx::new();
        a.counters().bump_count_call();
        assert_eq!(a.stats().COUNT_CALLS, 1);
        assert_eq!(b.stats().COUNT_CALLS, 0);
    }
}
