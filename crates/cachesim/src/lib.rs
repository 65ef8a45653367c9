//! # iolb-cachesim
//!
//! A small two-level memory-hierarchy simulator — the stand-in for the Dinero
//! cache simulator used in Sec. 8.2 of the paper to measure the *achieved*
//! operational intensity of compiler-tiled schedules.
//!
//! The model matches the paper's idealised setting: a fast memory of `S`
//! words in front of an infinite slow memory, with either LRU replacement
//! (what a real cache does) or Belady/optimal replacement (what an explicitly
//! managed scratchpad could achieve). The simulator consumes a word-granular
//! address trace and reports the number of loads from slow memory.
//!
//! A [`DenseTrace`] renumbers a trace's addresses once into dense ids; every
//! simulation from it then indexes flat arrays and hashes nothing. LRU keeps
//! an O(1) doubly linked recency list, and Belady a lazily pruned heap of
//! next uses. Simulating several cache sizes or both policies from one
//! `DenseTrace` pays the renumbering once; [`simulate_lru`] and
//! [`simulate_optimal`] are the one-shot forms.
//!
//! ```
//! use iolb_cachesim::{simulate_lru, simulate_optimal, DenseTrace};
//! // Cycling over 3 words through a 2-word fast memory: LRU always evicts
//! // the word needed next, Belady keeps one of them.
//! let cycle: Vec<u64> = (0..4).flat_map(|_| [10, 20, 30]).collect();
//! assert_eq!(simulate_lru(&cycle, 2).misses, 12);
//! assert_eq!(simulate_optimal(&cycle, 2).misses, 7);
//! let prepared = DenseTrace::new(&cycle);
//! assert_eq!(prepared.lru(2), simulate_lru(&cycle, 2));
//! assert_eq!(prepared.optimal(3).misses, prepared.distinct());
//! ```

#![warn(missing_docs)]

use std::cell::OnceCell;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Statistics of one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total number of accesses in the trace.
    pub accesses: u64,
    /// Number of misses, i.e. loads from slow memory.
    pub misses: u64,
    /// Number of hits served from fast memory.
    pub hits: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Achieved operational intensity given a number of arithmetic
    /// operations: `ops / misses` (flops per word moved).
    pub fn operational_intensity(&self, ops: f64) -> f64 {
        if self.misses == 0 {
            f64::INFINITY
        } else {
            ops / self.misses as f64
        }
    }
}

/// A multiply-rotate hasher (the `FxHash` construction) with a final
/// avalanche, for the renumbering map: its keys are word addresses, and
/// SipHash there would cost more than the simulation it feeds.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Spread the high product bits into the low ones the table indexes
        // by, so strided addresses do not share buckets.
        let x = self.0 ^ (self.0 >> 33);
        let x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^ (x >> 33)
    }
}

type BuildFx = BuildHasherDefault<FxHasher>;

/// The longest trace a [`DenseTrace`] accepts: positions and ids are `u32`,
/// and `u32::MAX` is reserved as the "never used again" next-use mark.
pub const MAX_TRACE_LEN: usize = u32::MAX as usize - 1;

/// No link: the end of the recency list.
const NIL: u32 = u32::MAX;

/// A trace prepared once for any number of simulations.
///
/// Addresses are renumbered in first-touch order into dense `u32` ids, so the
/// simulators index flat arrays and never hash. The Belady next-use array is
/// built on the first [`DenseTrace::optimal`] call and reused after it.
///
/// # Examples
///
/// ```
/// use iolb_cachesim::DenseTrace;
/// // Fast memory of 2 words: the access to 3 evicts 2, so 2 misses again.
/// let trace = DenseTrace::new(&[1, 2, 1, 3, 2]);
/// assert_eq!(trace.distinct(), 3);
/// assert_eq!(trace.lru(2).misses, 4);
/// assert_eq!(trace.lru(2).hits, 1);
/// // Belady evicts 1 instead (never used again): one miss fewer.
/// assert_eq!(trace.optimal(2).misses, 3);
/// ```
#[derive(Debug)]
pub struct DenseTrace {
    ids: Vec<u32>,
    distinct: u32,
    next_use: OnceCell<Vec<u32>>,
}

impl DenseTrace {
    /// Renumbers `trace` into dense ids.
    ///
    /// # Panics
    ///
    /// Panics if the trace is longer than [`MAX_TRACE_LEN`].
    pub fn new(trace: &[u64]) -> Self {
        assert!(
            trace.len() <= MAX_TRACE_LEN,
            "trace of {} accesses exceeds the simulator limit of {MAX_TRACE_LEN}",
            trace.len()
        );
        let mut id_of: HashMap<u64, u32, BuildFx> = HashMap::default();
        let ids = trace
            .iter()
            .map(|&a| {
                let fresh = id_of.len() as u32;
                *id_of.entry(a).or_insert(fresh)
            })
            .collect();
        DenseTrace {
            ids,
            distinct: id_of.len() as u32,
            next_use: OnceCell::new(),
        }
    }

    /// The number of distinct addresses — the compulsory (cold) miss count
    /// of any replacement policy at any capacity.
    pub fn distinct(&self) -> u64 {
        self.distinct as u64
    }

    /// Simulates LRU replacement with `capacity` words of fast memory.
    ///
    /// Residents form a doubly linked recency list over ids, most recent at
    /// the head, so every access is O(1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn lru(&self, capacity: usize) -> CacheStats {
        assert!(capacity > 0, "cache capacity must be positive");
        let n = self.distinct as usize;
        let (mut prev, mut next) = (vec![NIL; n], vec![NIL; n]);
        let mut resident = vec![false; n];
        let (mut head, mut tail) = (NIL, NIL);
        let (mut len, mut misses) = (0usize, 0u64);
        for &id in &self.ids {
            let i = id as usize;
            if resident[i] {
                if head == id {
                    continue;
                }
                // Unlink; `id` is not the head, so it has a predecessor.
                let (p, q) = (prev[i], next[i]);
                next[p as usize] = q;
                if q == NIL {
                    tail = p;
                } else {
                    prev[q as usize] = p;
                }
            } else {
                misses += 1;
                if len == capacity {
                    // Evict the least recently used word, the tail.
                    let victim = tail as usize;
                    resident[victim] = false;
                    tail = prev[victim];
                    if tail == NIL {
                        head = NIL;
                    } else {
                        next[tail as usize] = NIL;
                    }
                } else {
                    len += 1;
                }
                resident[i] = true;
            }
            // Push `id` at the head.
            prev[i] = NIL;
            next[i] = head;
            if head == NIL {
                tail = id;
            } else {
                prev[head as usize] = id;
            }
            head = id;
        }
        CacheStats {
            accesses: self.ids.len() as u64,
            misses,
            hits: self.ids.len() as u64 - misses,
        }
    }

    /// For each position, the position of the next access to the same id
    /// (`u32::MAX` when there is none), built on first use.
    fn next_use(&self) -> &[u32] {
        self.next_use.get_or_init(|| {
            let mut last = vec![u32::MAX; self.distinct as usize];
            let mut next_use = vec![u32::MAX; self.ids.len()];
            for (pos, &id) in self.ids.iter().enumerate().rev() {
                next_use[pos] = std::mem::replace(&mut last[id as usize], pos as u32);
            }
            next_use
        })
    }

    /// Simulates Belady's optimal (furthest-next-use) replacement — the
    /// idealised explicitly-controlled cache assumed for `OI_manual` — with
    /// `capacity` words of fast memory.
    ///
    /// Residents sit in a max-heap of packed `(next_use << 32) | id` keys.
    /// A hit pushes the word's new key and leaves the old one behind, whose
    /// next use is the current position: such stale keys always sort below
    /// every live key (live next uses lie ahead), so the heap top is live
    /// and stale keys are only dropped when the heap is rebuilt. Finite next
    /// uses are unique; among never-used-again words (`u32::MAX`) the victim
    /// choice cannot affect any future access, so the miss count is that of
    /// any furthest-next-use tie-break.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn optimal(&self, capacity: usize) -> CacheStats {
        assert!(capacity > 0, "cache capacity must be positive");
        let next_use = self.next_use();
        let n = self.distinct as usize;
        let mut resident = vec![false; n];
        let mut heap: BinaryHeap<u64> = BinaryHeap::with_capacity(2 * capacity.min(n) + 64);
        let (mut len, mut misses) = (0usize, 0u64);
        for (pos, &id) in self.ids.iter().enumerate() {
            let i = id as usize;
            if !resident[i] {
                misses += 1;
                if len == capacity {
                    let victim = heap.pop().expect("a full cache has a live heap top");
                    debug_assert!(victim >> 32 > pos as u64, "stale heap top");
                    resident[(victim & u64::from(u32::MAX)) as usize] = false;
                } else {
                    len += 1;
                }
                resident[i] = true;
            } else if heap.len() > 2 * len + 64 {
                // Rebuild from the live keys: those whose next use is ahead.
                heap.retain(|&key| key >> 32 > pos as u64);
            }
            heap.push(u64::from(next_use[pos]) << 32 | u64::from(id));
        }
        CacheStats {
            accesses: self.ids.len() as u64,
            misses,
            hits: self.ids.len() as u64 - misses,
        }
    }
}

/// Simulates a trace under LRU replacement with `capacity` words of fast
/// memory.
///
/// # Panics
///
/// Panics if `capacity` is zero or the trace is longer than
/// [`MAX_TRACE_LEN`].
pub fn simulate_lru(trace: &[u64], capacity: usize) -> CacheStats {
    DenseTrace::new(trace).lru(capacity)
}

/// Simulates a trace under Belady's optimal (furthest-next-use) replacement —
/// the idealised explicitly-controlled cache assumed for `OI_manual`.
///
/// # Panics
///
/// Panics if `capacity` is zero or the trace is longer than
/// [`MAX_TRACE_LEN`].
pub fn simulate_optimal(trace: &[u64], capacity: usize) -> CacheStats {
    DenseTrace::new(trace).optimal(capacity)
}

/// The number of distinct addresses in a trace — the compulsory (cold) miss
/// count of any replacement policy at any capacity.
///
/// # Panics
///
/// Panics if the trace is longer than [`MAX_TRACE_LEN`].
pub fn distinct_addresses(trace: &[u64]) -> u64 {
    DenseTrace::new(trace).distinct()
}

/// A tiny helper for building word-granular address traces for multi-array
/// programs: each array gets a disjoint base address.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Vec<u64>,
    next_base: u64,
    bases: HashMap<String, (u64, Vec<u64>)>,
}

impl TraceBuilder {
    /// Creates an empty trace.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Declares an array with the given dimension sizes, returning its handle.
    pub fn array(&mut self, name: &str, dims: &[u64]) -> ArrayHandle {
        let size: u64 = dims.iter().product::<u64>().max(1);
        let base = self.next_base;
        self.next_base += size;
        self.bases.insert(name.to_string(), (base, dims.to_vec()));
        ArrayHandle {
            name: name.to_string(),
        }
    }

    /// Records an access to `array[indices]`.
    pub fn touch(&mut self, array: &ArrayHandle, indices: &[u64]) {
        let (base, dims) = self
            .bases
            .get(&array.name)
            .unwrap_or_else(|| panic!("unknown array {}", array.name));
        assert_eq!(indices.len(), dims.len(), "index arity mismatch");
        let mut offset = 0u64;
        for (k, &i) in indices.iter().enumerate() {
            debug_assert!(i < dims[k], "index out of bounds");
            offset = offset * dims[k] + i;
        }
        self.trace.push(base + offset);
    }

    /// The accumulated trace.
    pub fn trace(&self) -> &[u64] {
        &self.trace
    }

    /// Consumes the builder, returning the trace.
    pub fn into_trace(self) -> Vec<u64> {
        self.trace
    }

    /// Number of accesses recorded so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Returns true if no access has been recorded.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

/// Handle to an array declared in a [`TraceBuilder`].
#[derive(Clone, Debug)]
pub struct ArrayHandle {
    name: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_streaming_misses_everything() {
        let trace: Vec<u64> = (0..1000).collect();
        let stats = simulate_lru(&trace, 64);
        assert_eq!(stats.misses, 1000);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.miss_ratio(), 1.0);
    }

    #[test]
    fn lru_reuse_within_capacity_hits() {
        let mut trace: Vec<u64> = (0..32).collect();
        trace.extend(0..32);
        let stats = simulate_lru(&trace, 64);
        assert_eq!(stats.misses, 32);
        assert_eq!(stats.hits, 32);
    }

    #[test]
    fn lru_cyclic_thrashing() {
        // Classic LRU pathology: cycling over capacity+1 addresses misses
        // every time.
        let mut trace = Vec::new();
        for _ in 0..10 {
            for a in 0..65u64 {
                trace.push(a);
            }
        }
        let stats = simulate_lru(&trace, 64);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn optimal_beats_lru_on_thrashing() {
        let mut trace = Vec::new();
        for _ in 0..10 {
            for a in 0..65u64 {
                trace.push(a);
            }
        }
        let lru = simulate_lru(&trace, 64);
        let opt = simulate_optimal(&trace, 64);
        assert!(opt.misses < lru.misses);
        assert_eq!(opt.accesses, lru.accesses);
    }

    #[test]
    fn optimal_never_worse_than_lru_random() {
        // Pseudo-random trace (deterministic LCG).
        let mut x: u64 = 12345;
        let trace: Vec<u64> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) % 256
            })
            .collect();
        let lru = simulate_lru(&trace, 64);
        let opt = simulate_optimal(&trace, 64);
        assert!(opt.misses <= lru.misses);
    }

    #[test]
    fn operational_intensity_computation() {
        let stats = CacheStats {
            accesses: 100,
            misses: 25,
            hits: 75,
        };
        assert_eq!(stats.operational_intensity(100.0), 4.0);
    }

    #[test]
    fn trace_builder_addresses_are_disjoint() {
        let mut tb = TraceBuilder::new();
        let a = tb.array("A", &[4, 4]);
        let b = tb.array("B", &[4]);
        tb.touch(&a, &[0, 0]);
        tb.touch(&a, &[3, 3]);
        tb.touch(&b, &[0]);
        let t = tb.trace();
        assert_eq!(t[0], 0);
        assert_eq!(t[1], 15);
        assert_eq!(t[2], 16);
        assert_eq!(tb.len(), 3);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_is_rejected() {
        let _ = simulate_lru(&[1], 0);
    }
}
