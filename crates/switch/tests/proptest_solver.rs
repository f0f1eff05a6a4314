//! Property tests for the steady-state solver and settle loop.
//!
//! The central invariants:
//!
//! 1. **Fixed point**: after a settle, re-perturbing every storage node
//!    and settling again changes nothing.
//! 2. **Determinism**: two simulators fed the same inputs agree on
//!    every node state.
//! 3. **Ternary monotonicity**: refining an `X` input to a definite
//!    value can only refine node states — any node that was definite
//!    with the `X` input keeps exactly that value.
//! 4. **Locality ablation equivalence**: static (DC-component) and
//!    dynamic (conduction-bounded) vicinity extraction produce the same
//!    states.
//! 5. **Scalar/packed solver agreement**: on arbitrary storage states,
//!    per-machine forced conductions and forced inputs, the scalar
//!    group solver gives every machine exactly the members and values
//!    the independently written packed solver gives its lane.

use fmossim_netlist::{
    Conduction, Drive, Logic, Network, NodeId, Size, TransistorId, TransistorType,
};
use fmossim_switch::{
    EngineConfig, LocalityMode, LogicSim, PackedDenseState, PackedOutcome, PackedScratch,
    PackedState, Scratch, SwitchState,
};
use proptest::prelude::*;

/// A compact recipe for a random network that proptest can shrink.
#[derive(Clone, Debug)]
struct NetRecipe {
    storage: usize,
    inputs: Vec<Logic>,
    /// (type, strength, gate, source, drain) — indices mod node count.
    transistors: Vec<(u8, u8, u16, u16, u16)>,
}

fn arb_recipe() -> impl Strategy<Value = NetRecipe> {
    (
        1usize..10,
        prop::collection::vec(
            prop_oneof![Just(Logic::L), Just(Logic::H), Just(Logic::X)],
            1..6,
        ),
        prop::collection::vec(
            (0u8..3, 1u8..3, any::<u16>(), any::<u16>(), any::<u16>()),
            1..25,
        ),
    )
        .prop_map(|(storage, inputs, transistors)| NetRecipe {
            storage,
            inputs,
            transistors,
        })
}

fn build(recipe: &NetRecipe) -> (Network, Vec<NodeId>) {
    let mut net = Network::new();
    net.add_input("Vdd", Logic::H);
    net.add_input("Gnd", Logic::L);
    let mut input_ids = Vec::new();
    for (i, v) in recipe.inputs.iter().enumerate() {
        input_ids.push(net.add_input(format!("I{i}"), *v));
    }
    for i in 0..recipe.storage {
        net.add_storage(
            format!("S{i}"),
            if i % 3 == 0 { Size::S2 } else { Size::S1 },
        );
    }
    let n = net.num_nodes();
    let ids: Vec<NodeId> = net.node_ids().collect();
    for &(ty, g, a, b, c) in &recipe.transistors {
        let ttype = [TransistorType::N, TransistorType::P, TransistorType::D][ty as usize];
        let strength = Drive::new(g).expect("in range");
        net.add_transistor(
            ttype,
            strength,
            ids[a as usize % n],
            ids[b as usize % n],
            ids[c as usize % n],
        );
    }
    (net, input_ids)
}

fn arb_logic() -> impl Strategy<Value = Logic> {
    prop_oneof![Just(Logic::L), Just(Logic::H), Just(Logic::X)]
}

/// One lane of a [`PackedDenseState`] as a scalar [`SwitchState`].
struct Lane<'a, 'n> {
    st: &'a PackedDenseState<'n>,
    lane: u32,
}

impl SwitchState for Lane<'_, '_> {
    fn network(&self) -> &Network {
        self.st.network()
    }

    fn node_state(&self, n: NodeId) -> Logic {
        self.st.lane_value(n, self.lane)
    }

    fn set_node_state(&mut self, _n: NodeId, _v: Logic) {
        unreachable!("the solvers only read");
    }

    fn is_input(&self, n: NodeId) -> bool {
        self.st.is_input_lanes(n) >> self.lane & 1 == 1
    }

    fn conduction(&self, t: TransistorId) -> Conduction {
        let pc = self.st.conduction(t);
        if pc.closed >> self.lane & 1 == 1 {
            Conduction::Closed
        } else if pc.maybe >> self.lane & 1 == 1 {
            Conduction::Maybe
        } else {
            Conduction::Open
        }
    }
}

/// Solves every storage seed with the packed solver — evicted lanes
/// re-solve from the same seed until none remain — and checks that the
/// scalar solver gives each solved lane the same members and values.
/// Returns the first packed pass of each seed, for tests that pin the
/// shape of a solve.
fn solvers_agree(
    st: &PackedDenseState<'_>,
    storage: &[NodeId],
) -> Result<Vec<PackedOutcome>, TestCaseError> {
    let net = st.network();
    let mut scalar = Scratch::new(net.num_nodes(), net.num_transistors());
    let mut packed = PackedScratch::new(net.num_nodes(), net.num_transistors());
    let mut first_passes = Vec::new();
    for &seed in storage {
        let mut pending = st.lanes() & !st.is_input_lanes(seed);
        while pending != 0 {
            let out = packed.solve_group_packed(st, seed, pending);
            prop_assert!(out.lanes != 0 && out.lanes & out.evicted == 0);
            prop_assert_eq!(out.lanes | out.evicted, pending);
            let mut kept = out.lanes;
            while kept != 0 {
                let lane = kept.trailing_zeros();
                kept &= kept - 1;
                let got = scalar.solve_group(&Lane { st, lane }, seed, false);
                prop_assert_eq!(&got.members, &out.members, "lane {} seed {:?}", lane, seed);
                let want: Vec<Logic> = out
                    .values
                    .iter()
                    .map(|v| v.get(lane).expect("solved lane"))
                    .collect();
                prop_assert_eq!(&got.values, &want, "lane {} seed {:?}", lane, seed);
            }
            if pending == st.lanes() & !st.is_input_lanes(seed) {
                first_passes.push(out.clone());
            }
            pending = out.evicted;
        }
    }
    Ok(first_passes)
}

/// A one-member group fed by a definite source D and a stronger
/// possible source M, each with per-lane H, L and X values, plus
/// per-lane charge: the packed closed form against
/// the scalar one. Where M's value opposes D's, only M's
/// non-definiteness keeps the result at X.
#[test]
fn packed_oracle_pins_one_member_group_with_mixed_sources() {
    let mut net = Network::new();
    let on = net.add_input("ON", Logic::H);
    let unsure = net.add_input("UNSURE", Logic::X);
    let off = net.add_input("OFF", Logic::L);
    let out = net.add_storage("OUT", Size::S2);
    // D and M are storage nodes stuck as inputs in every lane, with
    // per-lane values; NB sits behind an open transistor.
    let d = net.add_storage("D", Size::S1);
    let m = net.add_storage("M", Size::S1);
    let nb = net.add_storage("NB", Size::S1);
    net.add_transistor(TransistorType::N, Drive::D1, on, d, out);
    net.add_transistor(TransistorType::N, Drive::D2, unsure, out, m);
    net.add_transistor(TransistorType::N, Drive::D2, off, out, nb);
    let lanes = 9u32;
    let mut st = PackedDenseState::broadcast(&fmossim_switch::DenseState::new(&net), lanes);
    let vals = [Logic::H, Logic::L, Logic::X];
    for lane in 0..lanes {
        let (i, j) = (lane as usize % 3, lane as usize / 3);
        st.force_input_lane(d, lane, vals[i]);
        st.force_input_lane(m, lane, vals[j]);
        st.force_lane(out, lane, vals[(i + j) % 3]);
    }
    let firsts = solvers_agree(&st, &[out]).unwrap();
    let first = &firsts[0];
    assert_eq!(first.members, vec![out], "OUT settles alone");
    assert_eq!(first.lanes, st.lanes(), "one pass, no eviction");
    let outcomes: Vec<Logic> = (0..lanes)
        .map(|lane| first.values[0].get(lane).unwrap())
        .collect();
    // Lane i + 3j has D = vals[i], M = vals[j].
    assert_eq!(outcomes[0], Logic::H, "D and M agree on H");
    assert_eq!(outcomes[4], Logic::L, "D and M agree on L");
    assert_eq!(outcomes[1], Logic::X, "a possible H opposes a definite L");
}

/// Lanes evicted in the middle of the walk, after the survivors'
/// member–member edges are already built: A–B conducts in every lane,
/// then B–C conducts in only some, and C is stuck as an input in
/// another.
#[test]
fn packed_oracle_pins_mid_walk_eviction_after_edges() {
    let mut net = Network::new();
    let vdd = net.add_input("Vdd", Logic::H);
    let gnd = net.add_input("Gnd", Logic::L);
    let on = net.add_input("ON", Logic::H);
    let a = net.add_storage("A", Size::S2);
    let b = net.add_storage("B", Size::S1);
    let c = net.add_storage("C", Size::S1);
    net.add_transistor(TransistorType::N, Drive::D1, on, vdd, a);
    net.add_transistor(TransistorType::N, Drive::D2, on, a, b);
    let bc = net.add_transistor(TransistorType::N, Drive::D2, on, b, c);
    net.add_transistor(TransistorType::N, Drive::D1, on, c, gnd);
    let lanes = 5u32;
    let mut st = PackedDenseState::broadcast(&fmossim_switch::DenseState::new(&net), lanes);
    let vals = [Logic::H, Logic::L, Logic::X];
    for lane in 0..lanes {
        st.force_lane(a, lane, vals[lane as usize % 3]);
        st.force_lane(b, lane, vals[(lane as usize + 1) % 3]);
        st.force_lane(c, lane, vals[(lane as usize + 2) % 3]);
    }
    st.force_conduction_lane(bc, 1, Conduction::Open);
    st.force_conduction_lane(bc, 3, Conduction::Maybe);
    st.force_input_lane(c, 2, Logic::H);
    let firsts = solvers_agree(&st, &[a, b]).unwrap();
    let first = &firsts[0];
    assert_eq!(first.members, vec![a, b, c], "survivors span the chain");
    assert_eq!(first.lanes, 0b10001, "lanes 1–3 evicted at B–C");
    assert_eq!(first.evicted, 0b01110);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scalar_solver_matches_packed_oracle(
        recipe in arb_recipe(),
        lanes in 1u32..6,
        states in prop::collection::vec(arb_logic(), 1..60),
        faults in prop::collection::vec((any::<u16>(), 0u8..4, arb_logic()), 0..5),
    ) {
        let (net, _) = build(&recipe);
        let storage: Vec<NodeId> = net.node_ids().filter(|&n| !net.node(n).is_input()).collect();
        let mut st = PackedDenseState::broadcast(&fmossim_switch::DenseState::new(&net), lanes);
        // Arbitrary per-lane storage states (X included), so lanes
        // disagree on gates and therefore on group structure.
        for lane in 0..lanes {
            for (i, &n) in storage.iter().enumerate() {
                st.force_lane(n, lane, states[(lane as usize * storage.len() + i) % states.len()]);
            }
        }
        // Per-lane faults: forced conductions and stuck storage nodes.
        for &(pick, kind, v) in &faults {
            let lane = u32::from(pick) % lanes;
            if kind == 3 {
                st.force_input_lane(storage[pick as usize % storage.len()], lane, v);
            } else {
                let t = TransistorId::from_index(pick as usize % net.num_transistors());
                let c = [Conduction::Open, Conduction::Closed, Conduction::Maybe][kind as usize];
                st.force_conduction_lane(t, lane, c);
            }
        }
        solvers_agree(&st, &storage)?;
    }

    #[test]
    fn settle_reaches_fixed_point(recipe in arb_recipe()) {
        let (net, _) = build(&recipe);
        let mut sim = LogicSim::new(&net);
        let rep1 = sim.settle();
        prop_assume!(!rep1.oscillation_damped);
        let before: Vec<Logic> = sim.states().to_vec();
        // Re-evaluating every vicinity from a stable state must be a
        // no-op: settled states are fixed points of the steady-state
        // response.
        let rep2 = sim.resettle_all();
        prop_assert_eq!(rep2.nodes_changed, 0);
        prop_assert_eq!(before, sim.states().to_vec());
    }

    #[test]
    fn settle_is_deterministic(recipe in arb_recipe()) {
        let (net, _) = build(&recipe);
        let mut a = LogicSim::new(&net);
        let mut b = LogicSim::new(&net);
        a.settle();
        b.settle();
        prop_assert_eq!(a.states(), b.states());
    }

    #[test]
    fn refining_x_inputs_is_monotone(recipe in arb_recipe(), pick in any::<u16>(), to_one in any::<bool>()) {
        let (net, input_ids) = build(&recipe);
        // Choose one X-defaulted input (if any) and refine it.
        let x_inputs: Vec<NodeId> = input_ids
            .iter()
            .copied()
            .filter(|&n| matches!(net.node(n).class, fmossim_netlist::NodeClass::Input(Logic::X)))
            .collect();
        prop_assume!(!x_inputs.is_empty());
        let target = x_inputs[pick as usize % x_inputs.len()];

        let mut base = LogicSim::new(&net);
        let rep = base.settle();
        prop_assume!(!rep.oscillation_damped);

        let mut refined = LogicSim::new(&net);
        refined.set_input(target, Logic::from_bool(to_one));
        let rep = refined.settle();
        prop_assume!(!rep.oscillation_damped);

        for id in net.node_ids() {
            let vx = base.get(id);
            let vr = refined.get(id);
            if id != target && vx.is_definite() {
                prop_assert_eq!(
                    vx, vr,
                    "node {} was definite {} with X input but {} when refined",
                    net.node(id).name, vx, vr
                );
            }
        }
    }

    #[test]
    fn static_locality_matches_dynamic(recipe in arb_recipe()) {
        let (net, input_ids) = build(&recipe);
        let mut dynamic = LogicSim::with_config(
            &net,
            EngineConfig { locality: LocalityMode::Dynamic, ..EngineConfig::default() },
        );
        let mut static_ = LogicSim::with_config(
            &net,
            EngineConfig { locality: LocalityMode::Static, ..EngineConfig::default() },
        );
        let r1 = dynamic.settle();
        let r2 = static_.settle();
        prop_assume!(!r1.oscillation_damped && !r2.oscillation_damped);
        prop_assert_eq!(dynamic.states(), static_.states());

        // Drive a few input changes through both and re-compare.
        for (i, &inp) in input_ids.iter().enumerate() {
            let v = if i % 2 == 0 { Logic::H } else { Logic::L };
            dynamic.set_input(inp, v);
            static_.set_input(inp, v);
            let r1 = dynamic.settle();
            let r2 = static_.settle();
            prop_assume!(!r1.oscillation_damped && !r2.oscillation_damped);
            prop_assert_eq!(dynamic.states(), static_.states());
        }
    }
}
