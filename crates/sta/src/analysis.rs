//! Timing analysis results, path extraction, and incremental re-timing.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use fbb_netlist::GateId;

use crate::{TimingGraph, TimingPath};

/// Identifier of one bias row/cluster inside a [`RowMap`].
///
/// Mirrors `fbb_placement::RowId::index()`: callers build a [`RowMap`] from
/// whatever physical grouping they use (standard-cell rows, blocks, single
/// gates) and address it by plain index.
pub type RowId = usize;

/// Gate→row grouping used by [`IncrementalSta::invalidate_rows`].
///
/// The STA crate is placement-agnostic; a `RowMap` is just the inverse index
/// of any per-gate grouping (one entry per gate, row ids densely numbered
/// from 0).
#[derive(Debug, Clone)]
pub struct RowMap {
    gates_of: Vec<Vec<GateId>>,
}

impl RowMap {
    /// Builds the map from a per-gate row assignment (`row_of[gate_index]`).
    ///
    /// # Panics
    ///
    /// Panics if `row_of` is empty references no rows; rows are sized by the
    /// maximum id present.
    pub fn new(row_of: &[usize]) -> Self {
        let n_rows = row_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut gates_of = vec![Vec::new(); n_rows];
        for (gate, &row) in row_of.iter().enumerate() {
            gates_of[row].push(GateId::from_index(gate));
        }
        RowMap { gates_of }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.gates_of.len()
    }

    /// The gates grouped under `row`.
    pub fn gates(&self, row: RowId) -> &[GateId] {
        &self.gates_of[row]
    }
}

/// The result of one arrival/tail propagation over a [`TimingGraph`].
#[derive(Debug, Clone)]
pub struct TimingAnalysis<'g, 'nl> {
    pub(crate) graph: &'g TimingGraph<'nl>,
    pub(crate) delays: Vec<f64>,
    /// Arrival time at each gate's output.
    pub(crate) arrival: Vec<f64>,
    /// Critical fanin gate realizing the arrival.
    pub(crate) pred: Vec<Option<GateId>>,
    /// Longest downstream delay including the gate's own delay.
    pub(crate) tail: Vec<f64>,
    /// Critical fanout gate realizing the tail.
    pub(crate) succ: Vec<Option<GateId>>,
    pub(crate) dcrit: f64,
}

impl TimingAnalysis<'_, '_> {
    /// The critical (longest endpoint arrival) delay `Dcrit` in picoseconds.
    pub fn dcrit_ps(&self) -> f64 {
        self.dcrit
    }

    /// Arrival time at the output of `gate`.
    pub fn arrival_ps(&self, gate: GateId) -> f64 {
        self.arrival[gate.index()]
    }

    /// Tail of `gate`: its own delay plus the longest downstream delay (for
    /// a flip-flop, the clk→Q launch into its worst combinational sink).
    pub fn tail_ps(&self, gate: GateId) -> f64 {
        self.tail[gate.index()]
    }

    /// Delay of the longest path passing *through* `gate`.
    pub fn longest_through_ps(&self, gate: GateId) -> f64 {
        // arrival includes the gate delay; tail includes it too.
        self.arrival[gate.index()] - self.delays[gate.index()] + self.tail[gate.index()]
    }

    /// Slack of the worst path through `gate` against `Dcrit`.
    pub fn slack_through_ps(&self, gate: GateId) -> f64 {
        self.dcrit - self.longest_through_ps(gate)
    }

    /// Materializes the longest path through `gate`.
    pub fn longest_path_through(&self, gate: GateId) -> TimingPath {
        let mut prefix = Vec::new();
        let mut cursor = Some(gate);
        while let Some(g) = cursor {
            prefix.push(g);
            cursor = self.pred[g.index()];
        }
        prefix.reverse();
        let mut cursor = self.succ[gate.index()];
        while let Some(g) = cursor {
            prefix.push(g);
            cursor = self.succ[g.index()];
        }
        TimingPath { gates: prefix, delay_ps: self.longest_through_ps(gate) }
    }

    /// The paper's pruned critical path set Π: the longest path through each
    /// cell, deduplicated (many cells share their worst path).
    ///
    /// Sequential cells contribute through the launch paths of their Q pins,
    /// which already include them as startpoints, so only combinational
    /// cells seed extraction.
    pub fn critical_path_set(&self) -> Vec<TimingPath> {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut paths = Vec::new();
        for &id in &self.graph.topo {
            let path = self.longest_path_through(id);
            let mut hasher = DefaultHasher::new();
            path.gates.hash(&mut hasher);
            if seen.insert(hasher.finish()) {
                paths.push(path);
            }
        }
        paths
    }

    /// Like [`TimingAnalysis::critical_path_set`], but keeps only the paths
    /// that [`TimingPath::violates`] `Dcrit` at slowdown `beta`: exactly
    /// the constraint set (`No.Constr`) of the paper.
    pub fn constrained_path_set(&self, beta: f64) -> Vec<TimingPath> {
        self.critical_path_set().into_iter().filter(|p| p.violates(beta, self.dcrit)).collect()
    }

    /// The delay assignment this analysis was computed for.
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }
}

/// Incremental static timing engine over one [`TimingGraph`].
///
/// A full [`TimingGraph::analyze`] visits every gate twice. During bias
/// allocation only a handful of rows change between candidate evaluations,
/// so the affected fan-out/fan-in cones are tiny compared to the design.
/// `IncrementalSta` keeps the arrival/required ("tail") caches of the last
/// evaluation and, on [`retime`](IncrementalSta::retime), re-propagates only
/// from the invalidated gates outward, stopping as soon as cached values are
/// reproduced bit-for-bit.
///
/// # Exact equivalence
///
/// The per-node recompute step is the same code as the full pass, nodes are
/// processed in the same topological order (a rank-range sweep over dirty
/// marks), and propagation stops only when a recomputed value is **bit-identical**
/// (`f64::to_bits`) to the cache. By induction over the topological order the
/// engine therefore yields exactly the arrival/tail/`Dcrit` values a
/// from-scratch [`TimingGraph::analyze`] would produce — not merely close
/// ones. A proptest in `crates/sta/tests/` asserts this across randomized
/// bias-flip sequences.
///
/// # Generations
///
/// Every successful [`retime`](IncrementalSta::retime) bumps a generation
/// counter; [`gate_generation`](IncrementalSta::gate_generation) tells which
/// generation last recomputed a gate, letting callers observe how small the
/// recomputed cone was (also see
/// [`last_retimed_nodes`](IncrementalSta::last_retimed_nodes)).
///
/// # Example
///
/// ```
/// use fbb_netlist::generators;
/// use fbb_sta::{IncrementalSta, TimingGraph};
///
/// let nl = generators::ripple_adder("add8", 8, false).expect("valid generator");
/// let graph = TimingGraph::new(&nl).expect("acyclic");
/// let mut delays: Vec<f64> = vec![10.0; nl.gate_count()];
/// let mut inc = IncrementalSta::new(&graph, &delays);
///
/// // Speed up one gate, retime incrementally …
/// inc.set_gate_delay(fbb_netlist::GateId::from_index(0), 7.5);
/// let dcrit = inc.retime();
///
/// // … and get bit-identical results to a from-scratch analyze.
/// delays[0] = 7.5;
/// assert_eq!(dcrit.to_bits(), graph.analyze(&delays).dcrit_ps().to_bits());
/// assert!(inc.last_retimed_nodes() <= nl.gate_count());
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSta<'g, 'nl> {
    graph: &'g TimingGraph<'nl>,
    rows: Option<RowMap>,
    delays: Vec<f64>,
    arrival: Vec<f64>,
    pred: Vec<Option<GateId>>,
    tail: Vec<f64>,
    succ: Vec<Option<GateId>>,
    dcrit: f64,
    /// Rank of each gate in `graph.topo` (`usize::MAX` for flip-flops, which
    /// the topological order excludes).
    topo_rank: Vec<usize>,
    /// Endpoint gate indices in topological order — the same iteration order
    /// the full pass uses for its `Dcrit` fold, preserving bit-identity.
    endpoints: Vec<usize>,
    generation: u64,
    node_generation: Vec<u64>,
    pending: Vec<usize>,
    pending_flag: Vec<bool>,
    // Heap-dedup markers, valid when equal to the current generation.
    fwd_seen: Vec<u64>,
    bwd_seen: Vec<u64>,
    dff_seen: Vec<u64>,
    last_retimed: usize,
}

impl<'g, 'nl> IncrementalSta<'g, 'nl> {
    /// Builds the engine, paying one full [`TimingGraph::analyze`] to seed
    /// the caches.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len() != graph.gate_count()`.
    pub fn new(graph: &'g TimingGraph<'nl>, delays: &[f64]) -> Self {
        let analysis = graph.analyze(delays);
        let n = graph.gate_count();
        let mut topo_rank = vec![usize::MAX; n];
        for (rank, &id) in graph.topo.iter().enumerate() {
            topo_rank[id.index()] = rank;
        }
        let endpoints = graph
            .topo
            .iter()
            .map(|id| id.index())
            .filter(|&i| graph.is_endpoint[i])
            .collect();
        IncrementalSta {
            graph,
            rows: None,
            delays: analysis.delays,
            arrival: analysis.arrival,
            pred: analysis.pred,
            tail: analysis.tail,
            succ: analysis.succ,
            dcrit: analysis.dcrit,
            topo_rank,
            endpoints,
            generation: 0,
            node_generation: vec![0; n],
            pending: Vec::new(),
            pending_flag: vec![false; n],
            fwd_seen: vec![0; n],
            bwd_seen: vec![0; n],
            dff_seen: vec![0; n],
            last_retimed: 0,
        }
    }

    /// Like [`IncrementalSta::new`], but registers a gate→row grouping so
    /// whole rows can be invalidated by id via
    /// [`invalidate_rows`](IncrementalSta::invalidate_rows).
    pub fn with_rows(graph: &'g TimingGraph<'nl>, delays: &[f64], rows: RowMap) -> Self {
        let mut engine = Self::new(graph, delays);
        engine.rows = Some(rows);
        engine
    }

    /// The timing graph this engine analyzes.
    pub fn graph(&self) -> &'g TimingGraph<'nl> {
        self.graph
    }

    /// The row grouping registered via [`IncrementalSta::with_rows`], if any.
    pub fn rows(&self) -> Option<&RowMap> {
        self.rows.as_ref()
    }

    /// Critical delay of the last [`retime`](IncrementalSta::retime) (or the
    /// seeding full analysis), in picoseconds.
    ///
    /// Stale if invalidations are pending — call `retime` first.
    pub fn dcrit_ps(&self) -> f64 {
        self.dcrit
    }

    /// Cached arrival time at the output of `gate`.
    pub fn arrival_ps(&self, gate: GateId) -> f64 {
        self.arrival[gate.index()]
    }

    /// Cached tail (own delay + worst downstream delay) of `gate`.
    pub fn tail_ps(&self, gate: GateId) -> f64 {
        self.tail[gate.index()]
    }

    /// The current per-gate delay assignment.
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// Current cache generation. Bumped once per effective
    /// [`retime`](IncrementalSta::retime).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Generation that last recomputed `gate` (0 = untouched since seeding).
    pub fn gate_generation(&self, gate: GateId) -> u64 {
        self.node_generation[gate.index()]
    }

    /// Number of node recomputations (forward + backward + DFF-tail) the
    /// last [`retime`](IncrementalSta::retime) performed. A full pass costs
    /// roughly `2 × gate_count`; this is the incremental engine's speedup
    /// denominator.
    pub fn last_retimed_nodes(&self) -> usize {
        self.last_retimed
    }

    /// True if invalidations are queued and the caches are stale.
    pub fn is_dirty(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Sets the delay of one gate (picoseconds; clk→Q for flip-flops) and
    /// queues its cone for re-timing. Bit-equal writes are ignored.
    pub fn set_gate_delay(&mut self, gate: GateId, delay_ps: f64) {
        let i = gate.index();
        if self.delays[i].to_bits() == delay_ps.to_bits() {
            return;
        }
        self.delays[i] = delay_ps;
        self.mark_pending(i);
    }

    /// Direct mutable access to the delay vector for bulk updates.
    ///
    /// The engine cannot observe writes made through this slice: follow up
    /// with [`invalidate_gates`](IncrementalSta::invalidate_gates) or
    /// [`invalidate_rows`](IncrementalSta::invalidate_rows) covering every
    /// touched gate, or the next [`retime`](IncrementalSta::retime) will
    /// return stale results.
    pub fn delays_mut(&mut self) -> &mut [f64] {
        &mut self.delays
    }

    /// Queues the cones of the given gates for re-timing.
    pub fn invalidate_gates(&mut self, gates: &[GateId]) {
        for &g in gates {
            self.mark_pending(g.index());
        }
    }

    /// Queues the cones of every gate in the given rows for re-timing.
    ///
    /// This is the natural API for bias allocation: changing a row's bias
    /// voltage changes the delay of exactly its member gates.
    ///
    /// # Panics
    ///
    /// Panics if the engine was built without a [`RowMap`]
    /// (use [`IncrementalSta::with_rows`]).
    pub fn invalidate_rows(&mut self, rows: &[RowId]) {
        let map = self
            .rows
            .take()
            .expect("invalidate_rows requires a RowMap; construct with IncrementalSta::with_rows");
        for &row in rows {
            for &g in map.gates(row) {
                self.mark_pending(g.index());
            }
        }
        self.rows = Some(map);
    }

    fn mark_pending(&mut self, i: usize) {
        if !self.pending_flag[i] {
            self.pending_flag[i] = true;
            self.pending.push(i);
        }
    }

    /// Re-propagates arrival and tail times from the invalidated gates
    /// outward and returns the updated `Dcrit` (picoseconds).
    ///
    /// No-op (returns the cached `Dcrit`) when nothing is invalidated.
    pub fn retime(&mut self) -> f64 {
        if self.pending.is_empty() {
            return self.dcrit;
        }
        self.generation += 1;
        let gen = self.generation;
        let graph = self.graph;
        let nl = graph.netlist;
        // Dirty nodes are marked by generation and visited by scanning the
        // affected rank range of the topological order — forward pushes only
        // ever mark higher ranks and backward only lower, so a single sweep
        // per direction settles every node after all its re-timed inputs,
        // with O(1) overhead per scanned rank and no worklist allocations.
        let mut dirty_dffs: Vec<usize> = Vec::new();
        let mut retimed = 0usize;
        let (mut fwd_lo, mut fwd_hi) = (usize::MAX, 0usize);
        let (mut bwd_lo, mut bwd_hi) = (usize::MAX, 0usize);

        for k in 0..self.pending.len() {
            let i = self.pending[k];
            let id = GateId::from_index(i);
            if nl.gate(id).cell.kind.is_sequential() {
                // A flip-flop's clk→Q delay launches into its combinational
                // sinks (their arrival reads `delays[ff]`), and its own tail
                // includes the delay directly.
                let q = nl.gate(id).output;
                for &s in &nl.net(q).sinks {
                    let si = s.index();
                    if !nl.gate(s).cell.kind.is_sequential() && self.fwd_seen[si] != gen {
                        self.fwd_seen[si] = gen;
                        fwd_lo = fwd_lo.min(self.topo_rank[si]);
                        fwd_hi = fwd_hi.max(self.topo_rank[si]);
                    }
                }
                if self.dff_seen[i] != gen {
                    self.dff_seen[i] = gen;
                    dirty_dffs.push(i);
                }
            } else {
                let rank = self.topo_rank[i];
                if self.fwd_seen[i] != gen {
                    self.fwd_seen[i] = gen;
                    fwd_lo = fwd_lo.min(rank);
                    fwd_hi = fwd_hi.max(rank);
                }
                if self.bwd_seen[i] != gen {
                    self.bwd_seen[i] = gen;
                    bwd_lo = bwd_lo.min(rank);
                    bwd_hi = bwd_hi.max(rank);
                }
            }
        }

        // Forward cone: recompute arrivals; propagate only past gates whose
        // arrival actually changed (bitwise). `fwd_hi` grows as the cone
        // extends downstream.
        let mut ranks_scanned = 0usize;
        let mut rank = fwd_lo;
        while rank <= fwd_hi {
            let i = graph.topo[rank].index();
            rank += 1;
            ranks_scanned += 1;
            if self.fwd_seen[i] != gen {
                continue;
            }
            let mut best = 0.0f64;
            let mut best_pred = None;
            for &p in &graph.comb_fanin[i] {
                if self.arrival[p.index()] > best {
                    best = self.arrival[p.index()];
                    best_pred = Some(p);
                }
            }
            for &ff in &graph.seq_fanin[i] {
                if self.delays[ff.index()] > best {
                    best = self.delays[ff.index()];
                    best_pred = Some(ff);
                }
            }
            let new_arrival = best + self.delays[i];
            let arrival_changed = new_arrival.to_bits() != self.arrival[i].to_bits();
            self.arrival[i] = new_arrival;
            self.pred[i] = best_pred;
            self.node_generation[i] = gen;
            retimed += 1;
            if arrival_changed {
                for &s in &graph.comb_fanout[i] {
                    let si = s.index();
                    if self.fwd_seen[si] != gen {
                        self.fwd_seen[si] = gen;
                        fwd_hi = fwd_hi.max(self.topo_rank[si]);
                    }
                }
            }
        }

        // Backward cone, symmetric over tails; `bwd_lo` shrinks upstream.
        if bwd_lo != usize::MAX {
            let mut rank = bwd_hi as isize;
            while rank >= bwd_lo as isize {
                let i = graph.topo[rank as usize].index();
                rank -= 1;
                ranks_scanned += 1;
                if self.bwd_seen[i] != gen {
                    continue;
                }
                let mut best = 0.0f64;
                let mut best_succ = None;
                for &s in &graph.comb_fanout[i] {
                    if self.tail[s.index()] > best {
                        best = self.tail[s.index()];
                        best_succ = Some(s);
                    }
                }
                let new_tail = best + self.delays[i];
                let tail_changed = new_tail.to_bits() != self.tail[i].to_bits();
                self.tail[i] = new_tail;
                self.succ[i] = best_succ;
                self.node_generation[i] = gen;
                retimed += 1;
                if tail_changed {
                    for &p in &graph.comb_fanin[i] {
                        let pi = p.index();
                        if self.bwd_seen[pi] != gen {
                            self.bwd_seen[pi] = gen;
                            bwd_lo = bwd_lo.min(self.topo_rank[pi]);
                        }
                    }
                    // A flip-flop's tail reads its combinational sinks' tails.
                    for &ff in &graph.seq_fanin[i] {
                        let fi = ff.index();
                        if self.dff_seen[fi] != gen {
                            self.dff_seen[fi] = gen;
                            dirty_dffs.push(fi);
                        }
                    }
                }
            }
        }

        // Flip-flop tails: clk→Q launches into the flop's comb sinks.
        for &fi in &dirty_dffs {
            let q = nl.gate(GateId::from_index(fi)).output;
            let mut best = 0.0f64;
            let mut best_succ = None;
            for &s in &nl.net(q).sinks {
                if !nl.gate(s).cell.kind.is_sequential() && self.tail[s.index()] > best {
                    best = self.tail[s.index()];
                    best_succ = Some(s);
                }
            }
            self.tail[fi] = best + self.delays[fi];
            self.succ[fi] = best_succ;
            self.node_generation[fi] = gen;
            retimed += 1;
        }

        // Same fold, same order, as the full pass.
        self.dcrit = self
            .endpoints
            .iter()
            .map(|&i| self.arrival[i])
            .fold(0.0f64, f64::max);

        for i in self.pending.drain(..) {
            self.pending_flag[i] = false;
        }
        self.last_retimed = retimed;
        if fbb_telemetry::is_enabled() {
            // retime() runs on the coordinating thread, so float cone-size
            // observations land in a deterministic order.
            fbb_telemetry::counter("sta_incremental_retimes", 1);
            fbb_telemetry::counter("sta_retimed_nodes_total", retimed as u64);
            fbb_telemetry::counter("sta_retime_ranks_scanned", ranks_scanned as u64);
            fbb_telemetry::record("sta_retime_cone_nodes", retimed as f64);
        }
        self.dcrit
    }

    /// Snapshots the caches into a [`TimingAnalysis`] (e.g. for path
    /// extraction). Retimes first if invalidations are pending.
    pub fn as_analysis(&mut self) -> TimingAnalysis<'g, 'nl> {
        self.retime();
        TimingAnalysis {
            graph: self.graph,
            delays: self.delays.clone(),
            arrival: self.arrival.clone(),
            pred: self.pred.clone(),
            tail: self.tail.clone(),
            succ: self.succ.clone(),
            dcrit: self.dcrit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_device::{CellKind, DriveStrength};
    use fbb_netlist::{generators, Netlist, NetlistBuilder};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Brute-force longest path through each gate by DFS enumeration.
    fn brute_force_through(nl: &Netlist, delays: &[f64]) -> Vec<f64> {
        let graph = TimingGraph::new(nl).unwrap();
        let n = nl.gate_count();
        // Longest arrival ending at gate (inclusive).
        let mut arr = vec![0.0f64; n];
        for &id in &graph.topo {
            let i = id.index();
            let mut best = 0.0f64;
            for &p in &graph.comb_fanin[i] {
                best = best.max(arr[p.index()]);
            }
            for &ff in &graph.seq_fanin[i] {
                best = best.max(delays[ff.index()]);
            }
            arr[i] = best + delays[i];
        }
        let mut tail = vec![0.0f64; n];
        for &id in graph.topo.iter().rev() {
            let i = id.index();
            let mut best = 0.0f64;
            for &s in &graph.comb_fanout[i] {
                best = best.max(tail[s.index()]);
            }
            tail[i] = best + delays[i];
        }
        (0..n).map(|i| arr[i] - delays[i] + tail[i]).collect()
    }

    #[test]
    fn diamond_takes_slower_branch() {
        let mut b = NetlistBuilder::new("diamond");
        let a = b.input("a");
        let top = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        let bot1 = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        let bot2 = b.gate(CellKind::Inv, DriveStrength::X1, &[bot1]).unwrap();
        let join = b.gate(CellKind::And2, DriveStrength::X1, &[top, bot2]).unwrap();
        b.output(join, "y");
        let nl = b.finish().unwrap();
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&[10.0, 10.0, 10.0, 10.0]);
        assert!((a.dcrit_ps() - 30.0).abs() < 1e-9);
        // The path through the top gate is 10 + 10 = 20: slack 10.
        assert!((a.slack_through_ps(GateId::from_index(0)) - 10.0).abs() < 1e-9);
        // Bottom branch is critical: slack 0.
        assert!(a.slack_through_ps(GateId::from_index(1)).abs() < 1e-9);
        let p = a.longest_path_through(GateId::from_index(1));
        assert_eq!(p.gates.len(), 3);
        assert!((p.delay_ps - 30.0).abs() < 1e-9);
    }

    #[test]
    fn longest_through_matches_brute_force_on_random_logic() {
        let nl = generators::random_logic(
            "r",
            &generators::RandomLogicOptions {
                target_gates: 250,
                n_inputs: 12,
                seed: 99,
                registered: true,
                locality_window: 24,
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let delays: Vec<f64> = (0..nl.gate_count()).map(|_| rng.gen_range(5.0..30.0)).collect();
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&delays);
        let brute = brute_force_through(&nl, &delays);
        for (i, &expect) in brute.iter().enumerate() {
            if nl.gates()[i].cell.kind.is_sequential() {
                continue; // launch handling differs for flops themselves
            }
            let got = a.longest_through_ps(GateId::from_index(i));
            assert!((got - expect).abs() < 1e-6, "gate {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn materialized_path_delay_is_consistent() {
        let nl = generators::alu("alu8", 8).unwrap();
        let delays: Vec<f64> = nl.gates().iter().map(|g| 5.0 + g.cell.kind.index() as f64).collect();
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&delays);
        for path in a.critical_path_set() {
            let sum: f64 = path.gates.iter().map(|&g| delays[g.index()]).sum();
            assert!(
                (sum - path.delay_ps).abs() < 1e-6,
                "path delay {} != gate sum {sum}",
                path.delay_ps
            );
        }
    }

    #[test]
    fn path_set_is_deduplicated_and_covers_critical_path() {
        let nl = generators::ripple_adder("a16", 16, false).unwrap();
        let delays: Vec<f64> = vec![10.0; nl.gate_count()];
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&delays);
        let paths = a.critical_path_set();
        // Far fewer unique paths than gates.
        assert!(paths.len() < nl.gate_count());
        // The global critical path is in the set.
        let max = paths.iter().map(|p| p.delay_ps).fold(0.0f64, f64::max);
        assert!((max - a.dcrit_ps()).abs() < 1e-9);
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            assert!(seen.insert(p.gates.clone()), "duplicate path in Π");
        }
    }

    #[test]
    fn constrained_set_grows_with_beta() {
        let nl = generators::alu("alu16", 16).unwrap();
        let delays: Vec<f64> = nl.gates().iter().map(|g| 5.0 + g.cell.kind.index() as f64).collect();
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&delays);
        let m5 = a.constrained_path_set(0.05).len();
        let m10 = a.constrained_path_set(0.10).len();
        assert!(m10 >= m5, "{m10} < {m5}");
        assert!(m5 >= 1, "critical path itself always violates under slowdown");
        // Every constrained path indeed violates when degraded.
        for p in a.constrained_path_set(0.05) {
            assert!(p.delay_ps * 1.05 > a.dcrit_ps());
        }
    }

    #[test]
    fn zero_beta_has_no_constraints() {
        let nl = generators::ripple_adder("a8", 8, false).unwrap();
        let delays: Vec<f64> = vec![10.0; nl.gate_count()];
        let g = TimingGraph::new(&nl).unwrap();
        let a = g.analyze(&delays);
        assert!(a.constrained_path_set(0.0).is_empty());
    }

    fn assert_bit_identical(inc: &mut IncrementalSta, graph: &TimingGraph, delays: &[f64]) {
        let dcrit = inc.retime();
        let full = graph.analyze(delays);
        assert_eq!(dcrit.to_bits(), full.dcrit_ps().to_bits(), "dcrit differs");
        for i in 0..delays.len() {
            let id = GateId::from_index(i);
            assert_eq!(
                inc.arrival_ps(id).to_bits(),
                full.arrival[i].to_bits(),
                "arrival differs at gate {i}"
            );
            assert_eq!(
                inc.tail_ps(id).to_bits(),
                full.tail[i].to_bits(),
                "tail differs at gate {i}"
            );
        }
    }

    #[test]
    fn incremental_matches_full_on_random_logic() {
        let nl = generators::random_logic(
            "inc",
            &generators::RandomLogicOptions {
                target_gates: 300,
                n_inputs: 10,
                seed: 5,
                registered: true,
                locality_window: 20,
            },
        )
        .unwrap();
        let graph = TimingGraph::new(&nl).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut delays: Vec<f64> =
            (0..nl.gate_count()).map(|_| rng.gen_range(5.0..30.0)).collect();
        let mut inc = IncrementalSta::new(&graph, &delays);
        for _ in 0..40 {
            let g = rng.gen_range(0..nl.gate_count());
            let d = rng.gen_range(5.0..30.0);
            delays[g] = d;
            inc.set_gate_delay(GateId::from_index(g), d);
            assert_bit_identical(&mut inc, &graph, &delays);
        }
    }

    #[test]
    fn invalidate_rows_retimes_member_gates() {
        let nl = generators::alu("alu8", 8).unwrap();
        let n = nl.gate_count();
        let row_of: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let delays: Vec<f64> = vec![10.0; n];
        let graph = TimingGraph::new(&nl).unwrap();
        let mut inc = IncrementalSta::with_rows(&graph, &delays, RowMap::new(&row_of));
        assert_eq!(inc.rows().unwrap().row_count(), 4);

        // Speed every gate of row 2 up by 20% through the bulk interface.
        let mut tuned = delays.clone();
        for (i, d) in inc.delays_mut().iter_mut().enumerate() {
            if row_of[i] == 2 {
                *d *= 0.8;
                tuned[i] *= 0.8;
            }
        }
        inc.invalidate_rows(&[2]);
        assert!(inc.is_dirty());
        assert_bit_identical(&mut inc, &graph, &tuned);
        assert!(!inc.is_dirty());
        assert_eq!(inc.generation(), 1);
        // Row-2 gates were recomputed this generation.
        assert!(inc.gate_generation(GateId::from_index(2)) == 1);
    }

    #[test]
    fn retime_without_changes_is_a_noop() {
        let nl = generators::ripple_adder("a8", 8, false).unwrap();
        let delays = vec![10.0; nl.gate_count()];
        let graph = TimingGraph::new(&nl).unwrap();
        let mut inc = IncrementalSta::new(&graph, &delays);
        let d0 = inc.dcrit_ps();
        assert_eq!(inc.retime().to_bits(), d0.to_bits());
        assert_eq!(inc.generation(), 0);
        // Writing a bit-equal delay queues nothing.
        inc.set_gate_delay(GateId::from_index(0), 10.0);
        assert!(!inc.is_dirty());
    }

    #[test]
    fn incremental_cone_is_smaller_than_full_pass() {
        let nl = generators::random_logic(
            "cone",
            &generators::RandomLogicOptions {
                target_gates: 400,
                n_inputs: 16,
                seed: 3,
                registered: false,
                locality_window: 16,
            },
        )
        .unwrap();
        let delays: Vec<f64> = vec![10.0; nl.gate_count()];
        let graph = TimingGraph::new(&nl).unwrap();
        let mut inc = IncrementalSta::new(&graph, &delays);
        // Touch one gate near the outputs: its cone must be far smaller than
        // the 2×n node visits of a full pass.
        let last = *graph.topo.last().unwrap();
        inc.set_gate_delay(last, 9.0);
        inc.retime();
        assert!(
            inc.last_retimed_nodes() < nl.gate_count(),
            "retimed {} of {} gates",
            inc.last_retimed_nodes(),
            nl.gate_count()
        );
    }

    #[test]
    fn dff_delay_change_propagates_incrementally() {
        // in -> inv(10) -> DFF(clk->q 30) -> inv(10) -> out
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a");
        let w1 = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        let q = b.dff(DriveStrength::X1, w1).unwrap();
        let w2 = b.gate(CellKind::Inv, DriveStrength::X1, &[q]).unwrap();
        b.output(w2, "y");
        let nl = b.finish().unwrap();
        let graph = TimingGraph::new(&nl).unwrap();
        let mut delays = vec![10.0, 30.0, 10.0];
        let mut inc = IncrementalSta::new(&graph, &delays);
        assert!((inc.dcrit_ps() - 40.0).abs() < 1e-9);
        delays[1] = 50.0;
        inc.set_gate_delay(GateId::from_index(1), 50.0);
        assert_bit_identical(&mut inc, &graph, &delays);
        assert!((inc.dcrit_ps() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn as_analysis_supports_path_extraction() {
        let nl = generators::alu("alu8", 8).unwrap();
        let mut delays: Vec<f64> = vec![10.0; nl.gate_count()];
        let graph = TimingGraph::new(&nl).unwrap();
        let mut inc = IncrementalSta::new(&graph, &delays);
        delays[3] = 18.0;
        inc.set_gate_delay(GateId::from_index(3), 18.0);
        let snap = inc.as_analysis();
        let full = graph.analyze(&delays);
        assert_eq!(snap.dcrit_ps().to_bits(), full.dcrit_ps().to_bits());
        assert_eq!(snap.critical_path_set().len(), full.critical_path_set().len());
    }

    #[test]
    fn launch_path_includes_the_flop() {
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a");
        let q = b.dff(DriveStrength::X1, a).unwrap();
        let w = b.gate(CellKind::Inv, DriveStrength::X1, &[q]).unwrap();
        b.output(w, "y");
        let nl = b.finish().unwrap();
        let g = TimingGraph::new(&nl).unwrap();
        let an = g.analyze(&[30.0, 10.0]);
        let p = an.longest_path_through(GateId::from_index(1));
        assert_eq!(p.gates, vec![GateId::from_index(0), GateId::from_index(1)]);
        assert!((p.delay_ps - 40.0).abs() < 1e-9);
    }
}
