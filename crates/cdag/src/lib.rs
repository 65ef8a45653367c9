//! # iolb-cdag
//!
//! Explicit CDAG instantiation and the red-white pebble game (Sec. 3.1) used
//! to *validate* the derived lower bounds: for small concrete parameter
//! values, the I/O cost of any schedule simulated under the game must be at
//! least the value of the symbolic bound. The crate provides:
//!
//! * [`Cdag`] — an explicit computational DAG built by instantiating a DFG at
//!   concrete parameter values;
//! * [`PebbleGame`] — the S-red-white pebble game of Definition 3.2, whose
//!   cost counts rule-(R1) loads;
//! * schedule executors (topological order and a reuse-aware greedy order)
//!   that drive the game and report achieved I/O.

#![warn(missing_docs)]

use iolb_dfg::Dfg;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// One vertex of the explicit CDAG: a statement (or input) instance.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Vertex {
    /// Statement or array name.
    pub statement: String,
    /// Concrete iteration-vector / index-vector.
    pub point: Vec<i128>,
}

/// An explicit computational DAG at concrete parameter values.
#[derive(Debug, Default)]
pub struct Cdag {
    vertices: Vec<Vertex>,
    index: HashMap<Vertex, usize>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    inputs: HashSet<usize>,
}

impl Cdag {
    /// Instantiates a DFG at concrete parameter values.
    ///
    /// Vertices come from `BasicSet::enumerate` (the `iolb_poly::scan`
    /// scanner); `bound` boxes every dimension into `[-bound, bound]` (a
    /// safety net for accidentally huge instances). The edge pass tests
    /// every (source, destination) pair, so keep parameters small (≤ ~20).
    pub fn instantiate(dfg: &Dfg, params: &[(&str, i128)], bound: i128) -> Cdag {
        let mut cdag = Cdag::default();
        // Vertices.
        for node in dfg.nodes() {
            for point in node.domain.enumerate(params, bound) {
                let v = Vertex {
                    statement: node.name.clone(),
                    point,
                };
                let idx = cdag.vertices.len();
                cdag.index.insert(v.clone(), idx);
                cdag.vertices.push(v);
                cdag.preds.push(Vec::new());
                cdag.succs.push(Vec::new());
                if node.is_input {
                    cdag.inputs.insert(idx);
                }
            }
        }
        // Edges.
        for edge in dfg.edges() {
            let src_node = dfg.node(&edge.src).expect("validated by builder");
            let dst_node = dfg.node(&edge.dst).expect("validated by builder");
            let dst_points = dst_node.domain.enumerate(params, bound);
            for src_point in src_node.domain.enumerate(params, bound) {
                let src_idx = cdag.index[&Vertex {
                    statement: edge.src.clone(),
                    point: src_point.clone(),
                }];
                // Enumerate images of this source point.
                for dst_point in &dst_points {
                    if edge.relation.contains(&src_point, dst_point, params) {
                        let dst_idx = cdag.index[&Vertex {
                            statement: edge.dst.clone(),
                            point: dst_point.clone(),
                        }];
                        cdag.preds[dst_idx].push(src_idx);
                        cdag.succs[src_idx].push(dst_idx);
                    }
                }
            }
        }
        cdag
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns true if the CDAG has no vertex.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Number of non-input (compute) vertices.
    pub fn num_compute(&self) -> usize {
        self.len() - self.inputs.len()
    }

    /// The vertices.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// Predecessor indices of a vertex.
    pub fn predecessors(&self, v: usize) -> &[usize] {
        &self.preds[v]
    }

    /// Returns true if the vertex is an input.
    pub fn is_input(&self, v: usize) -> bool {
        self.inputs.contains(&v)
    }

    /// A topological order of the compute vertices (inputs excluded).
    pub fn topological_order(&self) -> Vec<usize> {
        let mut indegree: Vec<usize> = self
            .preds
            .iter()
            .enumerate()
            .map(|(i, p)| if self.is_input(i) { 0 } else { p.len() })
            .collect();
        let mut queue: VecDeque<usize> = (0..self.len())
            .filter(|&i| indegree[i] == 0 && !self.is_input(i))
            .collect();
        // Inputs are "already computed": relax their successors first.
        let mut relaxed_inputs: VecDeque<usize> =
            (0..self.len()).filter(|&i| self.is_input(i)).collect();
        let mut order = Vec::new();
        while let Some(v) = relaxed_inputs.pop_front().or_else(|| queue.pop_front()) {
            if !self.is_input(v) {
                order.push(v);
            }
            for &s in &self.succs[v] {
                if self.is_input(s) {
                    continue;
                }
                indegree[s] = indegree[s].saturating_sub(1);
                if indegree[s] == 0 && !order.contains(&s) && !queue.contains(&s) {
                    queue.push_back(s);
                }
            }
        }
        order
    }
}

/// The S-red-white pebble game of Definition 3.2, driven by an execution
/// order. Red pebbles model fast-memory residency (LRU-evicted when full);
/// the cost is the number of (R1) loads.
#[derive(Debug)]
pub struct PebbleGame<'a> {
    cdag: &'a Cdag,
    capacity: usize,
    /// Vertices currently holding a red pebble, with a last-use timestamp.
    red: BTreeMap<usize, u64>,
    /// Vertices holding a white pebble (computed values).
    white: HashSet<usize>,
    clock: u64,
    loads: u64,
}

impl<'a> PebbleGame<'a> {
    /// Starts a game with `capacity` red pebbles. Input vertices start with
    /// white pebbles, as in the paper's initial state.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(cdag: &'a Cdag, capacity: usize) -> Self {
        assert!(capacity > 0, "at least one red pebble is required");
        let mut white = HashSet::new();
        for v in 0..cdag.len() {
            if cdag.is_input(v) {
                white.insert(v);
            }
        }
        PebbleGame {
            cdag,
            capacity,
            red: BTreeMap::new(),
            white,
            clock: 0,
            loads: 0,
        }
    }

    fn touch(&mut self, v: usize) {
        self.clock += 1;
        self.red.insert(v, self.clock);
    }

    fn ensure_red(&mut self, v: usize) {
        if self.red.contains_key(&v) {
            self.touch(v);
            return;
        }
        assert!(
            self.white.contains(&v),
            "rule (R1) requires a white pebble on the vertex"
        );
        self.evict_if_full();
        self.loads += 1; // rule (R1)
        self.touch(v);
    }

    fn evict_if_full(&mut self) {
        while self.red.len() >= self.capacity {
            // Rule (R3): remove the least recently used red pebble.
            if let Some((&victim, _)) = self.red.iter().min_by_key(|(_, &ts)| ts) {
                self.red.remove(&victim);
            }
        }
    }

    /// Executes (computes) one vertex: loads all its predecessors into fast
    /// memory (rule R1 as needed), then applies rule (R2).
    ///
    /// # Panics
    ///
    /// Panics if the vertex was already computed or a predecessor has not
    /// been computed yet (an invalid schedule).
    pub fn execute(&mut self, v: usize) {
        assert!(!self.white.contains(&v), "vertex computed twice");
        let preds: Vec<usize> = self.cdag.predecessors(v).to_vec();
        for p in &preds {
            assert!(
                self.white.contains(p),
                "executing a vertex before its predecessor"
            );
        }
        for p in preds {
            self.ensure_red(p);
        }
        // Rule (R2): place a red (and white) pebble on v.
        self.evict_if_full();
        self.touch(v);
        self.white.insert(v);
    }

    /// Runs a whole schedule (a sequence of compute-vertex indices).
    pub fn run(&mut self, schedule: &[usize]) -> u64 {
        for &v in schedule {
            self.execute(v);
        }
        self.loads
    }

    /// The number of (R1) loads so far.
    pub fn loads(&self) -> u64 {
        self.loads
    }
}

/// Runs the pebble game under the CDAG's topological order and returns the
/// achieved number of loads — an *upper* bound on the optimal I/O, hence a
/// sound reference point for validating lower bounds.
pub fn simulate_topological(cdag: &Cdag, capacity: usize) -> u64 {
    let order = cdag.topological_order();
    let mut game = PebbleGame::new(cdag, capacity);
    game.run(&order)
}

/// Validates a symbolic lower bound against the simulated schedule: returns
/// `Ok(measured_loads)` when `bound ≤ measured`, or `Err((bound, measured))`.
pub fn validate_lower_bound(
    cdag: &Cdag,
    capacity: usize,
    bound_value: f64,
) -> Result<u64, (f64, u64)> {
    let measured = simulate_topological(cdag, capacity);
    if bound_value <= measured as f64 + 1e-9 {
        Ok(measured)
    } else {
        Err((bound_value, measured))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_dfg::Dfg;
    use iolb_poly::EngineCtx;

    fn example1(m: i128, n: i128) -> (Dfg, Vec<(&'static str, i128)>) {
        let dfg = Dfg::builder()
            .input("A", "[N] -> { A[i] : 0 <= i < N }")
            .input("C", "[M] -> { C[t] : 0 <= t < M }")
            .statement("St", "[M, N] -> { St[t, i] : 0 <= t < M and 0 <= i < N }")
            .edge(
                "A",
                "St",
                "[N] -> { A[i] -> St[t, i2] : t = 0 and i2 = i and 0 <= i < N }",
            )
            .edge(
                "C",
                "St",
                "[M, N] -> { C[t] -> St[t, i] : 0 <= t < M and 0 <= i < N }",
            )
            .edge(
                "St",
                "St",
                "[M, N] -> { St[t, i] -> St[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }",
            )
            .build()
            .unwrap();
        (dfg, vec![("M", m), ("N", n)])
    }

    #[test]
    fn instantiation_counts_vertices() {
        let _session = EngineCtx::new().enter();
        let (dfg, params) = example1(4, 5);
        let cdag = Cdag::instantiate(&dfg, &params, 16);
        // 5 A-inputs + 4 C-inputs + 20 compute vertices.
        assert_eq!(cdag.len(), 29);
        assert_eq!(cdag.num_compute(), 20);
        assert!(!cdag.is_empty());
    }

    #[test]
    fn topological_order_is_complete_and_valid() {
        let _session = EngineCtx::new().enter();
        let (dfg, params) = example1(4, 5);
        let cdag = Cdag::instantiate(&dfg, &params, 16);
        let order = cdag.topological_order();
        assert_eq!(order.len(), cdag.num_compute());
        // Every predecessor appears before its consumer.
        let pos: HashMap<usize, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for &v in &order {
            for &p in cdag.predecessors(v) {
                if !cdag.is_input(p) {
                    assert!(pos[&p] < pos[&v]);
                }
            }
        }
    }

    #[test]
    fn pebble_game_counts_compulsory_loads() {
        let _session = EngineCtx::new().enter();
        let (dfg, params) = example1(3, 4);
        let cdag = Cdag::instantiate(&dfg, &params, 16);
        // With a huge cache, each input is loaded exactly once.
        let loads = simulate_topological(&cdag, 1024);
        assert_eq!(loads, 4 + 3);
    }

    #[test]
    fn small_cache_forces_more_loads() {
        let _session = EngineCtx::new().enter();
        let (dfg, params) = example1(6, 7);
        let cdag = Cdag::instantiate(&dfg, &params, 20);
        let big = simulate_topological(&cdag, 1024);
        let small = simulate_topological(&cdag, 3);
        assert!(small > big, "smaller cache must not reduce loads");
    }

    #[test]
    #[should_panic(expected = "executing a vertex before its predecessor")]
    fn executing_before_predecessor_panics() {
        let _session = EngineCtx::new().enter();
        let (dfg, params) = example1(3, 3);
        let cdag = Cdag::instantiate(&dfg, &params, 16);
        // Find a vertex with a compute predecessor and execute it first.
        let order = cdag.topological_order();
        let last = *order.last().unwrap();
        let mut game = PebbleGame::new(&cdag, 8);
        game.execute(last);
    }

    #[test]
    fn validation_accepts_sound_bounds_and_rejects_unsound_ones() {
        let _session = EngineCtx::new().enter();
        let (dfg, params) = example1(4, 6);
        let cdag = Cdag::instantiate(&dfg, &params, 16);
        let measured = simulate_topological(&cdag, 4);
        assert!(validate_lower_bound(&cdag, 4, measured as f64).is_ok());
        assert!(validate_lower_bound(&cdag, 4, 0.0).is_ok());
        assert!(validate_lower_bound(&cdag, 4, measured as f64 + 10.0).is_err());
    }
}
