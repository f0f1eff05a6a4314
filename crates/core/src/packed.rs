//! The packed-lane view: up to 64 faulty circuits overlaid on the good
//! circuit as one [`PackedState`], the bit-parallel sibling of
//! [`FaultyView`](crate::FaultyView).
//!
//! Lane `i` of the view is circuit `circs[i]`: its value at a node is
//! the fault's forced value if any, else its divergence record, else
//! the good circuit's state — exactly the scalar overlay order. Reads
//! gather lazily into a dense two-plane cache (one gather per node per
//! chunk, however often the solver revisits it); writes land in the
//! cache and mark the node dirty, and [`PackedViewScratch::scatter`]
//! folds the dirty lanes back into the record lists after the settle —
//! writing the good circuit's value removes the record (convergence),
//! anything else installs or updates it. Records are never mutated
//! while a settle is in flight, which is what lets the view hold them
//! by shared reference.

use crate::overlay::Overrides;
use crate::records::StateLists;
use fmossim_netlist::{Conduction, Logic, Network, NodeId, TransistorId};
use fmossim_switch::{PackedConduction, PackedLogic, PackedState};
use std::cell::Cell;

/// The lane mask for a chunk of `count` circuits (1..=64).
pub(crate) fn lane_mask(count: usize) -> u64 {
    debug_assert!((1..=64).contains(&count));
    if count == 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Reusable storage behind [`PackedBucketView`], owned by the simulator
/// so that per-chunk setup allocates nothing in the steady state.
#[derive(Debug)]
pub(crate) struct PackedViewScratch {
    /// Lazily gathered node values for the current chunk. Cells
    /// because gathering happens on the trait's `&self` read path.
    values: Vec<Cell<PackedLogic>>,
    /// Per node: the epoch of the chunk that gathered `values`, so
    /// starting the next chunk invalidates them in O(1).
    loaded: Vec<Cell<u32>>,
    /// The current chunk's epoch: stamps gathered nodes and this
    /// chunk's fault overrides.
    epoch: u32,
    /// Per node: the epoch of the last chunk that forces it. Lets a
    /// lookup skip the `forced_nodes` search for every other node.
    node_forced: Vec<u32>,
    /// Per transistor: the epoch of the last chunk that forces it.
    trans_forced: Vec<u32>,
    /// Per node: lanes written during the current settle.
    dirty_mask: Vec<u64>,
    /// Nodes with a nonzero dirty mask, in first-write order.
    dirty: Vec<NodeId>,
    /// This chunk's stuck-node lanes: `(node, lanes, values)`, sorted
    /// by node with one merged entry per node.
    forced_nodes: Vec<(NodeId, u64, PackedLogic)>,
    /// This chunk's forced-conduction lanes, sorted by transistor
    /// (several entries per transistor when lanes force different
    /// classes).
    forced_trans: Vec<(TransistorId, u64, Conduction)>,
}

impl PackedViewScratch {
    pub(crate) fn new(num_nodes: usize, num_transistors: usize) -> Self {
        PackedViewScratch {
            values: vec![Cell::new(PackedLogic::default()); num_nodes],
            loaded: vec![Cell::new(0); num_nodes],
            epoch: 0,
            node_forced: vec![0; num_nodes],
            trans_forced: vec![0; num_transistors],
            dirty_mask: vec![0; num_nodes],
            dirty: Vec::new(),
            forced_nodes: Vec::new(),
            forced_trans: Vec::new(),
        }
    }

    /// Rebuilds the per-lane fault override tables for a new chunk and
    /// invalidates the gather cache.
    fn begin_chunk(&mut self, circs: &[u32], overrides: &[Overrides]) {
        debug_assert!(self.dirty.is_empty(), "previous chunk not scattered");
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale stamps could collide, so clear them.
            self.loaded.fill(Cell::new(0));
            self.node_forced.fill(0);
            self.trans_forced.fill(0);
            self.epoch = 1;
        }
        self.forced_nodes.clear();
        self.forced_trans.clear();
        for (lane, &circ) in circs.iter().enumerate() {
            let bit = 1u64 << lane;
            let ov = &overrides[circ as usize];
            for &(n, v) in &ov.forced_nodes {
                let mut pv = PackedLogic::default();
                pv.set(u32::try_from(lane).expect("lane fits"), v);
                self.forced_nodes.push((n, bit, pv));
                self.node_forced[n.index()] = self.epoch;
            }
            for &(t, c) in &ov.forced_transistors {
                self.forced_trans.push((t, bit, c));
                self.trans_forced[t.index()] = self.epoch;
            }
        }
        self.forced_nodes.sort_unstable_by_key(|&(n, _, _)| n);
        // Merge same-node entries so lookups are a single binary search.
        let mut w = 0;
        for r in 0..self.forced_nodes.len() {
            if w > 0 && self.forced_nodes[w - 1].0 == self.forced_nodes[r].0 {
                let (_, mask, pv) = self.forced_nodes[r];
                self.forced_nodes[w - 1].1 |= mask;
                let merged = &mut self.forced_nodes[w - 1].2;
                merged.overlay(pv, mask);
            } else {
                self.forced_nodes[w] = self.forced_nodes[r];
                w += 1;
            }
        }
        self.forced_nodes.truncate(w);
        self.forced_trans.sort_unstable_by_key(|&(t, m, _)| (t, m));
    }

    /// This chunk's stuck-node entry for `n`: `(lanes, values)`.
    #[inline]
    fn forced_node(&self, n: NodeId) -> Option<(u64, PackedLogic)> {
        if self.node_forced[n.index()] != self.epoch {
            return None;
        }
        self.forced_nodes
            .binary_search_by_key(&n, |&(fn_, _, _)| fn_)
            .ok()
            .map(|i| (self.forced_nodes[i].1, self.forced_nodes[i].2))
    }

    /// Folds every dirty lane back into the record lists: a value equal
    /// to the good circuit's removes the record (the lane converged),
    /// anything else installs or updates it. Leaves the scratch clean
    /// for the next chunk.
    pub(crate) fn scatter(&mut self, good: &[Logic], records: &mut StateLists, circs: &[u32]) {
        for &n in &self.dirty {
            let i = n.index();
            let mut m = self.dirty_mask[i];
            self.dirty_mask[i] = 0;
            let v = self.values[i].get();
            while m != 0 {
                let lane = m.trailing_zeros();
                m &= m - 1;
                let circ = circs[lane as usize];
                let val = v.get(lane).expect("written lane holds a value");
                if val == good[i] {
                    records.remove(n, circ);
                } else {
                    records.set(n, circ, val);
                }
            }
        }
        self.dirty.clear();
    }
}

/// Up to 64 faulty circuits as one [`PackedState`]. Construction wires
/// the chunk's fault overrides into the scratch tables; the settle then
/// runs entirely against the gather cache, and the caller scatters the
/// dirty lanes back into the records afterwards.
pub(crate) struct PackedBucketView<'a, 'n> {
    net: &'n Network,
    good: &'a [Logic],
    records: &'a StateLists,
    /// Lane `i` is circuit `circs[i]`; ascending, like each node's
    /// record list, so the gather walks the two together.
    circs: &'a [u32],
    lanes: u64,
    scratch: &'a mut PackedViewScratch,
}

impl<'a, 'n> PackedBucketView<'a, 'n> {
    pub(crate) fn new(
        net: &'n Network,
        good: &'a [Logic],
        records: &'a StateLists,
        circs: &'a [u32],
        overrides: &[Overrides],
        scratch: &'a mut PackedViewScratch,
    ) -> Self {
        debug_assert!(circs.windows(2).all(|w| w[0] < w[1]), "lanes ascend");
        scratch.begin_chunk(circs, overrides);
        PackedBucketView {
            net,
            good,
            records,
            circs,
            lanes: lane_mask(circs.len()),
            scratch,
        }
    }

    /// First read of `n` in this chunk: gathers its lanes into the
    /// cache. Kept out of line so the cache hit in
    /// [`PackedState::node_state`] inlines into the solver.
    #[inline(never)]
    fn gather(&self, n: NodeId) -> PackedLogic {
        let i = n.index();
        // Overlay order bottom-up: good, then records, then forced —
        // the scalar FaultyView's forced → record → good priority.
        let mut v = PackedLogic::splat(self.good[i], self.lanes);
        match self.records.sorted_records_at(n) {
            Some(recs) => gather_records(recs, self.circs, &mut v),
            None => self.records.for_records_at(n, |c, rv| {
                if let Ok(lane) = self.circs.binary_search(&c) {
                    v.set(u32::try_from(lane).expect("lane fits"), rv);
                }
            }),
        }
        if let Some((mask, fv)) = self.scratch.forced_node(n) {
            v.overlay(fv, mask);
        }
        self.scratch.loaded[i].set(self.scratch.epoch);
        self.scratch.values[i].set(v);
        v
    }

    /// Applies this chunk's forced-conduction lanes of `t` to `pc`.
    #[inline(never)]
    fn force_conduction(&self, t: TransistorId, mut pc: PackedConduction) -> PackedConduction {
        let ft = &self.scratch.forced_trans;
        let start = ft.partition_point(|&(ftt, _, _)| ftt < t);
        for &(ftt, mask, c) in &ft[start..] {
            if ftt != t {
                break;
            }
            pc.closed &= !mask;
            pc.maybe &= !mask;
            match c {
                Conduction::Closed => pc.closed |= mask,
                Conduction::Maybe => pc.maybe |= mask,
                Conduction::Open => {}
            }
        }
        pc
    }
}

/// Overlays the records of the chunk's circuits onto `v`, walking the
/// node's circuit-sorted record list and the ascending lane → circuit
/// map together; `partition_point` skips the runs either side has that
/// the other lacks.
fn gather_records(recs: &[(u32, Logic)], circs: &[u32], v: &mut PackedLogic) {
    let (mut i, mut j) = (0, 0);
    while i < recs.len() && j < circs.len() {
        let (c, rv) = recs[i];
        let lane_circ = circs[j];
        if c == lane_circ {
            v.set(u32::try_from(j).expect("lane fits"), rv);
            i += 1;
            j += 1;
        } else if c < lane_circ {
            i += recs[i..].partition_point(|&(c, _)| c < lane_circ);
        } else {
            j += circs[j..].partition_point(|&lc| lc < c);
        }
    }
}

impl PackedState for PackedBucketView<'_, '_> {
    fn network(&self) -> &Network {
        self.net
    }

    fn lanes(&self) -> u64 {
        self.lanes
    }

    #[inline]
    fn node_state(&self, n: NodeId) -> PackedLogic {
        let i = n.index();
        if self.scratch.loaded[i].get() == self.scratch.epoch {
            self.scratch.values[i].get()
        } else {
            self.gather(n)
        }
    }

    fn set_node_state(&mut self, n: NodeId, lanes: u64, v: PackedLogic) {
        // Load before overlaying, or a later first read would gather
        // from the records and clobber this write.
        let _ = self.node_state(n);
        let i = n.index();
        self.scratch.values[i].get_mut().overlay(v, lanes);
        let dm = &mut self.scratch.dirty_mask[i];
        if *dm == 0 {
            self.scratch.dirty.push(n);
        }
        *dm |= lanes;
    }

    #[inline]
    fn is_input_lanes(&self, n: NodeId) -> u64 {
        let base = if self.net.node(n).is_input() {
            self.lanes
        } else {
            0
        };
        base | self.scratch.forced_node(n).map_or(0, |(lanes, _)| lanes)
    }

    #[inline]
    fn conduction(&self, t: TransistorId) -> PackedConduction {
        let tr = self.net.transistor(t);
        let pc = PackedConduction::from_gate(tr.ttype, self.node_state(tr.gate), self.lanes);
        if self.scratch.trans_forced[t.index()] == self.scratch.epoch {
            self.force_conduction(t, pc)
        } else {
            pc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::StateListStore;
    use fmossim_faults::FaultEffect;
    use fmossim_netlist::{Drive, Size, TransistorType};

    fn tiny() -> (Network, NodeId, NodeId, TransistorId) {
        let mut net = Network::new();
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::H);
        let s = net.add_storage("S", Size::S1);
        let t = net.add_transistor(TransistorType::N, Drive::D2, a, s, gnd);
        let _ = gnd;
        (net, a, s, t)
    }

    #[test]
    fn gather_layers_good_records_and_forces() {
        let (net, a, s, _) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::X];
        let mut recs = StateLists::new(3, 8, StateListStore::SortedVec);
        recs.set(s, 3, Logic::L); // lane 1 diverges at S
        recs.set(s, 7, Logic::H); // not in this chunk: invisible
        let overrides = vec![
            Overrides::default(),
            Overrides::default(),
            Overrides::default(),
            Overrides::default(),
            Overrides::from_effect(FaultEffect::ForceNode {
                node: s,
                value: Logic::H,
            }),
        ];
        let circs = [2u32, 3, 4];
        let mut scratch = PackedViewScratch::new(3, 1);
        let view = PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
        let vs = view.node_state(s);
        assert_eq!(vs.get(0), Some(Logic::X), "circuit 2: good value");
        assert_eq!(vs.get(1), Some(Logic::L), "circuit 3: its record");
        assert_eq!(vs.get(2), Some(Logic::H), "circuit 4: forced value");
        assert_eq!(view.is_input_lanes(s), 0b100, "forced lane is an input");
        assert_eq!(view.is_input_lanes(a), 0b111, "netlist inputs everywhere");
    }

    #[test]
    fn writes_scatter_back_as_records_or_convergence() {
        let (net, _, s, _) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::X];
        let mut recs = StateLists::new(3, 4, StateListStore::SortedVec);
        recs.set(s, 1, Logic::L);
        let overrides = vec![Overrides::default(); 4];
        let circs = [1u32, 2];
        let mut scratch = PackedViewScratch::new(3, 1);
        {
            let mut view =
                PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
            // Lane 0 (circuit 1) converges to good X; lane 1 (circuit 2)
            // diverges to H.
            let mut v = PackedLogic::default();
            v.set(0, Logic::X);
            v.set(1, Logic::H);
            view.set_node_state(s, 0b11, v);
            // The write is visible through the view immediately.
            assert_eq!(view.node_state(s).get(0), Some(Logic::X));
        }
        scratch.scatter(&good, &mut recs, &circs);
        assert_eq!(recs.get(s, 1), None, "converged record removed");
        assert_eq!(recs.get(s, 2), Some(Logic::H), "divergence recorded");
    }

    #[test]
    fn forced_transistor_lanes_override_gate() {
        let (net, _, _, t) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::X];
        let recs = StateLists::new(3, 4, StateListStore::SortedVec);
        let overrides = vec![
            Overrides::default(),
            Overrides::from_effect(FaultEffect::ForceTransistor {
                t,
                cond: Conduction::Open,
            }),
            Overrides::default(),
            Overrides::from_effect(FaultEffect::ForceTransistor {
                t,
                cond: Conduction::Maybe,
            }),
        ];
        let circs = [1u32, 2, 3];
        let mut scratch = PackedViewScratch::new(3, 1);
        let view = PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
        let pc = view.conduction(t);
        // Gate A is H: the N device conducts except where forced.
        assert_eq!(pc.closed, 0b010, "lane 0 forced open, lane 2 forced maybe");
        assert_eq!(pc.maybe, 0b100);
    }

    #[test]
    fn second_chunk_invalidates_gather_cache() {
        let (net, _, s, _) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::X];
        let mut recs = StateLists::new(3, 4, StateListStore::SortedVec);
        let overrides = vec![Overrides::default(); 4];
        let mut scratch = PackedViewScratch::new(3, 1);
        let circs = [1u32];
        {
            let view = PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
            assert_eq!(view.node_state(s).get(0), Some(Logic::X));
        }
        scratch.scatter(&good, &mut recs, &circs);
        recs.set(s, 1, Logic::H);
        let view = PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
        assert_eq!(
            view.node_state(s).get(0),
            Some(Logic::H),
            "new chunk re-gathers from the updated records"
        );
    }

    /// Overrides for circuits `0..=4`: circuit 2 forces `s` high,
    /// circuit 3 forces `t` open, the rest are fault-free.
    fn forcing_overrides(s: NodeId, t: TransistorId) -> Vec<Overrides> {
        let mut ov = vec![Overrides::default(); 5];
        ov[2] = Overrides::from_effect(FaultEffect::ForceNode {
            node: s,
            value: Logic::H,
        });
        ov[3] = Overrides::from_effect(FaultEffect::ForceTransistor {
            t,
            cond: Conduction::Open,
        });
        ov
    }

    /// A chunk sees its own circuits' forced nodes and transistors, and
    /// the next chunk — without those circuits — sees none of them.
    fn assert_overrides_follow_the_chunk(scratch: &mut PackedViewScratch) {
        let (net, _, s, t) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::L];
        let recs = StateLists::new(3, 4, StateListStore::SortedVec);
        let overrides = forcing_overrides(s, t);
        {
            let forcing = [1u32, 2, 3];
            let view = PackedBucketView::new(&net, &good, &recs, &forcing, &overrides, scratch);
            assert_eq!(view.is_input_lanes(s), 0b010, "circuit 2 forces S");
            assert_eq!(view.node_state(s).get(1), Some(Logic::H));
            let pc = view.conduction(t);
            assert_eq!(pc.closed, 0b011, "circuit 3 forces T open");
            assert_eq!(pc.maybe, 0);
        }
        let clean = [1u32, 4];
        let view = PackedBucketView::new(&net, &good, &recs, &clean, &overrides, scratch);
        assert_eq!(
            view.is_input_lanes(s),
            0,
            "no forcing circuit in this chunk"
        );
        assert_eq!(view.node_state(s), PackedLogic::splat(Logic::L, 0b11));
        let pc = view.conduction(t);
        assert_eq!((pc.closed, pc.maybe), (0b11, 0), "the gate alone decides");
    }

    #[test]
    fn overrides_are_seen_only_in_the_chunk_that_forces_them() {
        let mut scratch = PackedViewScratch::new(3, 1);
        assert_overrides_follow_the_chunk(&mut scratch);
    }

    #[test]
    fn overrides_follow_the_chunk_across_an_epoch_wrap() {
        let mut scratch = PackedViewScratch::new(3, 1);
        // Leave stamps from an earlier chunk, then jump to the last
        // epoch before the wrap: the forcing chunk is stamped u32::MAX
        // and the next chunk wraps, which must clear every stamp.
        assert_overrides_follow_the_chunk(&mut scratch);
        scratch.epoch = u32::MAX - 1;
        assert_overrides_follow_the_chunk(&mut scratch);
        assert_eq!(scratch.epoch, 1, "the second chunk wrapped");
        assert_overrides_follow_the_chunk(&mut scratch);
    }

    /// Tiny deterministic generator for the gather comparison.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    #[test]
    fn merge_walk_gather_equals_per_record_gather() {
        let (net, _, s, _) = tiny();
        let good = vec![Logic::L, Logic::H, Logic::X];
        let num_circuits = 200;
        let overrides = vec![Overrides::default(); num_circuits + 1];
        let mut rng = 0x5eed_u64;
        // (records at S, chunk size): chunks both sparser and denser
        // than the node's record list.
        for (n_records, chunk) in [(40, 3), (10, 64), (64, 64), (1, 1), (0, 8), (25, 25)] {
            for _ in 0..20 {
                let pick = |rng: &mut u64, k: usize| {
                    let mut ids: Vec<u32> = Vec::new();
                    while ids.len() < k {
                        let c = 1 + u32::try_from(lcg(rng) % num_circuits as u64).unwrap();
                        if !ids.contains(&c) {
                            ids.push(c);
                        }
                    }
                    ids.sort_unstable();
                    ids
                };
                let record_circs = pick(&mut rng, n_records);
                let circs = pick(&mut rng, chunk);
                let values: Vec<Logic> = record_circs
                    .iter()
                    .map(|_| [Logic::L, Logic::H, Logic::X][(lcg(&mut rng) % 3) as usize])
                    .collect();
                let expect = {
                    let mut v = PackedLogic::splat(good[s.index()], lane_mask(chunk));
                    for (lane, c) in circs.iter().enumerate() {
                        if let Some(k) = record_circs.iter().position(|rc| rc == c) {
                            v.set(u32::try_from(lane).unwrap(), values[k]);
                        }
                    }
                    v
                };
                for store in [StateListStore::SortedVec, StateListStore::Hash] {
                    let mut recs = StateLists::new(3, num_circuits, store);
                    for (&c, &v) in record_circs.iter().zip(&values) {
                        recs.set(s, c, v);
                    }
                    let mut scratch = PackedViewScratch::new(3, 1);
                    let view =
                        PackedBucketView::new(&net, &good, &recs, &circs, &overrides, &mut scratch);
                    assert_eq!(
                        view.node_state(s),
                        expect,
                        "{store:?}: records {record_circs:?} chunk {circs:?}"
                    );
                }
            }
        }
    }
}
