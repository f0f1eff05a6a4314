//! Divergence-record storage: the paper's per-node state lists.
//!
//! FMOSSIM keeps, for every node, a list of records `<i, s_i>` meaning
//! "in circuit `i` this node has state `s_i`", maintained only for
//! circuits whose state differs from the good circuit (§4). We keep the
//! lists sorted by circuit id — the modern equivalent of the paper's
//! sorted lists with shadow pointers — and additionally index, per
//! circuit, the set of nodes it has records on, so that dropping a
//! detected circuit reclaims its records in time proportional to its
//! own divergence, not the network size.
//!
//! An alternative hash-map backend ([`StateListStore::Hash`]) exists
//! solely for the `ablation_statelist` benchmark, which quantifies the
//! paper's claim that sorted lists keep search time negligible.

use fmossim_netlist::{Logic, NodeId};
use std::collections::HashMap;

/// Storage back-end selection for [`StateLists`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StateListStore {
    /// Per-node circuit-id-sorted vectors (the paper's design).
    #[default]
    SortedVec,
    /// A flat `HashMap<(node, circuit), state>` (ablation baseline).
    Hash,
}

/// Divergence records for all faulty circuits, overlaid on the good
/// circuit's dense state.
#[derive(Clone, Debug)]
pub struct StateLists {
    store: StateListStore,
    /// SortedVec backend: per node, `(circuit, state)` sorted by circuit.
    per_node: Vec<Vec<(u32, Logic)>>,
    /// Hash backend.
    map: HashMap<(u32, u32), Logic>,
    /// Per circuit: nodes this circuit has (or once had) records on.
    /// May contain stale and repeated entries (validated on drop);
    /// amortises circuit teardown. Compacted whenever it outgrows
    /// [`StateLists::compact_limit`] of the circuit's live records, so
    /// a circuit that keeps re-diverging at the same nodes stays
    /// bounded.
    touched: Vec<Vec<NodeId>>,
    /// Per circuit: number of live records.
    live: Vec<u32>,
    /// Number of live records.
    len: usize,
}

impl StateLists {
    /// Creates empty record storage for `num_nodes` nodes and
    /// `num_circuits` faulty circuits (circuit ids `1..=num_circuits`).
    #[must_use]
    pub fn new(num_nodes: usize, num_circuits: usize, store: StateListStore) -> Self {
        StateLists {
            store,
            per_node: vec![Vec::new(); num_nodes],
            map: HashMap::new(),
            touched: vec![Vec::new(); num_circuits + 1],
            live: vec![0; num_circuits + 1],
            len: 0,
        }
    }

    /// Re-initialises the storage for a new simulator over `num_nodes`
    /// nodes and `num_circuits` circuits, keeping every allocation the
    /// new shape can reuse — the arena-reuse path of
    /// [`SimArena`](crate::SimArena). Behaviour afterwards is
    /// indistinguishable from [`StateLists::new`].
    pub fn recycle(&mut self, num_nodes: usize, num_circuits: usize, store: StateListStore) {
        self.store = store;
        for list in &mut self.per_node {
            list.clear();
        }
        self.per_node.resize(num_nodes, Vec::new());
        self.map.clear();
        for nodes in &mut self.touched {
            nodes.clear();
        }
        self.touched.resize(num_circuits + 1, Vec::new());
        self.live.clear();
        self.live.resize(num_circuits + 1, 0);
        self.len = 0;
    }

    /// Number of live records across all circuits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no circuit diverges anywhere.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The state of node `n` in circuit `circuit`, if it diverges.
    #[must_use]
    pub fn get(&self, n: NodeId, circuit: u32) -> Option<Logic> {
        match self.store {
            StateListStore::SortedVec => {
                let list = &self.per_node[n.index()];
                list.binary_search_by_key(&circuit, |&(c, _)| c)
                    .ok()
                    .map(|i| list[i].1)
            }
            StateListStore::Hash => self
                .map
                .get(&(u32::try_from(n.index()).expect("node fits u32"), circuit))
                .copied(),
        }
    }

    /// Installs or updates the record for `(n, circuit)`.
    pub fn set(&mut self, n: NodeId, circuit: u32, v: Logic) {
        match self.store {
            StateListStore::SortedVec => {
                let list = &mut self.per_node[n.index()];
                match list.binary_search_by_key(&circuit, |&(c, _)| c) {
                    Ok(i) => {
                        list[i].1 = v;
                        return; // already touched
                    }
                    Err(i) => list.insert(i, (circuit, v)),
                }
            }
            StateListStore::Hash => {
                let key = (u32::try_from(n.index()).expect("node fits u32"), circuit);
                if self.map.insert(key, v).is_some() {
                    return;
                }
            }
        }
        self.len += 1;
        let c = circuit as usize;
        self.live[c] += 1;
        self.touched[c].push(n);
        if self.touched[c].len() > Self::compact_limit(self.live[c]) {
            self.compact_touched(circuit);
        }
    }

    /// The `touched` length beyond which a circuit with `live` records
    /// is compacted: about twice its live count, so compaction stays
    /// amortised O(log) per insertion.
    fn compact_limit(live: u32) -> usize {
        2 * live as usize + 16
    }

    /// Shrinks `touched[circuit]` to the nodes that still hold one of
    /// its records, each once.
    fn compact_touched(&mut self, circuit: u32) {
        let mut nodes = std::mem::take(&mut self.touched[circuit as usize]);
        nodes.sort_unstable();
        nodes.dedup();
        nodes.retain(|&n| self.get(n, circuit).is_some());
        self.touched[circuit as usize] = nodes;
    }

    /// Removes the record for `(n, circuit)` if present (the circuit's
    /// state converged back to the good circuit's).
    pub fn remove(&mut self, n: NodeId, circuit: u32) {
        let removed = match self.store {
            StateListStore::SortedVec => {
                let list = &mut self.per_node[n.index()];
                match list.binary_search_by_key(&circuit, |&(c, _)| c) {
                    Ok(i) => {
                        list.remove(i);
                        true
                    }
                    Err(_) => false,
                }
            }
            StateListStore::Hash => self
                .map
                .remove(&(u32::try_from(n.index()).expect("node fits u32"), circuit))
                .is_some(),
        };
        if removed {
            self.len -= 1;
            self.live[circuit as usize] -= 1;
        }
    }

    /// The circuits diverging at node `n`, as `(circuit, state)` pairs
    /// in ascending circuit order. (Hash backend: collected and sorted —
    /// that cost is what the ablation measures.)
    pub fn circuits_at(&self, n: NodeId) -> Vec<(u32, Logic)> {
        match self.store {
            StateListStore::SortedVec => self.per_node[n.index()].clone(),
            StateListStore::Hash => {
                let node = u32::try_from(n.index()).expect("node fits u32");
                let mut v: Vec<(u32, Logic)> = self
                    .map
                    .iter()
                    .filter(|((nn, _), _)| *nn == node)
                    .map(|(&(_, c), &s)| (c, s))
                    .collect();
                v.sort_unstable_by_key(|&(c, _)| c);
                v
            }
        }
    }

    /// Visits the circuits diverging at `n` without allocating
    /// (SortedVec backend only; used on the hot trigger path).
    pub fn for_circuits_at(&self, n: NodeId, mut f: impl FnMut(u32)) {
        match self.store {
            StateListStore::SortedVec => {
                for &(c, _) in &self.per_node[n.index()] {
                    f(c);
                }
            }
            StateListStore::Hash => {
                for (c, _) in self.circuits_at(n) {
                    f(c);
                }
            }
        }
    }

    /// Visits the records at `n` as `(circuit, state)` pairs without
    /// allocating (used by the strobe and, on the Hash backend, the
    /// packed-lane gather).
    pub fn for_records_at(&self, n: NodeId, mut f: impl FnMut(u32, Logic)) {
        match self.store {
            StateListStore::SortedVec => {
                for &(c, v) in &self.per_node[n.index()] {
                    f(c, v);
                }
            }
            StateListStore::Hash => {
                for (c, v) in self.circuits_at(n) {
                    f(c, v);
                }
            }
        }
    }

    /// The records at `n` as `(circuit, state)` pairs in ascending
    /// circuit order, borrowed from the SortedVec backend; `None` for
    /// the Hash backend, which keeps no per-node list.
    pub(crate) fn sorted_records_at(&self, n: NodeId) -> Option<&[(u32, Logic)]> {
        match self.store {
            StateListStore::SortedVec => Some(&self.per_node[n.index()]),
            StateListStore::Hash => None,
        }
    }

    /// Removes every record of `circuit` (fault dropped after
    /// detection). Returns the number of records reclaimed.
    pub fn drop_circuit(&mut self, circuit: u32) -> usize {
        let mut nodes = std::mem::take(&mut self.touched[circuit as usize]);
        let before = self.len;
        for &n in &nodes {
            self.remove(n, circuit);
        }
        debug_assert_eq!(
            self.live[circuit as usize], 0,
            "touched covers every record"
        );
        // Keep the allocation for the circuit's (unlikely) next life.
        nodes.clear();
        self.touched[circuit as usize] = nodes;
        before - self.len
    }

    /// The nodes circuit `circuit` currently diverges on (allocates;
    /// test/diagnostic use).
    #[must_use]
    pub fn nodes_of(&self, circuit: u32) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.touched[circuit as usize]
            .iter()
            .copied()
            .filter(|&n| self.get(n, circuit).is_some())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn both() -> [StateLists; 2] {
        [
            StateLists::new(8, 4, StateListStore::SortedVec),
            StateLists::new(8, 4, StateListStore::Hash),
        ]
    }

    #[test]
    fn set_get_remove_roundtrip() {
        for mut s in both() {
            assert!(s.is_empty());
            s.set(n(3), 2, Logic::H);
            s.set(n(3), 1, Logic::L);
            s.set(n(5), 2, Logic::X);
            assert_eq!(s.len(), 3);
            assert_eq!(s.get(n(3), 2), Some(Logic::H));
            assert_eq!(s.get(n(3), 1), Some(Logic::L));
            assert_eq!(s.get(n(3), 3), None);
            // Update in place does not grow.
            s.set(n(3), 2, Logic::L);
            assert_eq!(s.len(), 3);
            assert_eq!(s.get(n(3), 2), Some(Logic::L));
            s.remove(n(3), 2);
            assert_eq!(s.get(n(3), 2), None);
            assert_eq!(s.len(), 2);
            // Removing twice is harmless.
            s.remove(n(3), 2);
            assert_eq!(s.len(), 2);
        }
    }

    #[test]
    fn circuits_at_is_sorted() {
        for mut s in both() {
            s.set(n(0), 3, Logic::H);
            s.set(n(0), 1, Logic::L);
            s.set(n(0), 2, Logic::X);
            let got = s.circuits_at(n(0));
            assert_eq!(
                got,
                vec![(1, Logic::L), (2, Logic::X), (3, Logic::H)],
                "sorted by circuit id"
            );
            let mut seen = Vec::new();
            s.for_circuits_at(n(0), |c| seen.push(c));
            assert_eq!(seen, vec![1, 2, 3]);
        }
    }

    #[test]
    fn drop_circuit_reclaims_only_its_records() {
        for mut s in both() {
            s.set(n(0), 1, Logic::H);
            s.set(n(1), 1, Logic::H);
            s.set(n(1), 2, Logic::L);
            let reclaimed = s.drop_circuit(1);
            assert_eq!(reclaimed, 2);
            assert_eq!(s.len(), 1);
            assert_eq!(s.get(n(1), 2), Some(Logic::L));
            assert_eq!(s.get(n(0), 1), None);
        }
    }

    #[test]
    fn drop_circuit_tolerates_stale_touched_entries() {
        for mut s in both() {
            s.set(n(0), 1, Logic::H);
            s.remove(n(0), 1); // converged: touched entry goes stale
            s.set(n(2), 1, Logic::L);
            assert_eq!(s.drop_circuit(1), 1);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn touched_stays_bounded_under_diverge_converge_cycles() {
        for mut s in both() {
            s.set(n(7), 3, Logic::H); // one long-lived record
            for round in 0..1000 {
                let node = n(round % 6);
                s.set(node, 3, Logic::L);
                s.remove(node, 3);
                s.set(n(round % 3), 2, Logic::X); // a neighbour circuit
                                                  // Circuit 3 never holds more than two records at once.
                assert!(
                    s.touched[3].len() <= StateLists::compact_limit(2),
                    "touched grew to {} entries",
                    s.touched[3].len()
                );
            }
            assert_eq!(s.live[3], 1);
            assert_eq!(s.nodes_of(3), vec![n(7)]);
            assert_eq!(s.nodes_of(2), vec![n(0), n(1), n(2)]);
            assert_eq!(s.drop_circuit(3), 1, "the live record survives compaction");
            assert_eq!(s.drop_circuit(2), 3);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn nodes_of_reports_live_records() {
        for mut s in both() {
            s.set(n(4), 2, Logic::H);
            s.set(n(1), 2, Logic::H);
            s.set(n(1), 2, Logic::L); // update, not duplicate
            s.remove(n(4), 2);
            assert_eq!(s.nodes_of(2), vec![n(1)]);
        }
    }
}
