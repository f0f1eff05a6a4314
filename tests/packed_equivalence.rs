//! Lane equivalence: the bit-parallel packed evaluation path
//! (`ConcurrentConfig::packing`) must be **bit-identical** to the
//! scalar concurrent path — same detection sequence, same live set,
//! same divergence-record population, same per-fault node states after
//! every run. The packed engine promises each lane settles exactly as
//! its scalar schedule would (per-lane pending/solved/damping masks,
//! structure-divergence eviction), so the comparison is exact even on
//! pathological circuits — no race or oscillation filtering needed,
//! both sides run the *same* per-lane algorithm.
//!
//! A property test over random small netlists (offline proptest shim)
//! covers charge-sharing, ratioed-fight and oscillating topologies the
//! zoo fixtures do not; `tests/zoo_equivalence.rs` carries the packed
//! backends through the cross-backend campaign matrix.

use fmossim::concurrent::{
    ConcurrentConfig, ConcurrentSim, DetectionPolicy, Pattern, PatternStats, Phase, RunReport,
};
use fmossim::faults::{Fault, FaultId, FaultUniverse};
use fmossim::netlist::{Drive, Logic, Network, NodeId, Size, TransistorId, TransistorType};
use fmossim::testgen::zoo::build_zoo;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the same workload scalar and packed and asserts every
/// observable of the simulation — detections, drops, live counts,
/// record lists, and the full per-fault state overlay — is identical.
/// Work counters (`faulty_groups`, `circuit_settles`) are excluded:
/// the packed path legitimately counts solves differently.
fn assert_lane_equivalence(
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
) -> (RunReport, RunReport) {
    assert_lane_equivalence_with(net, universe, patterns, outputs, ConcurrentConfig::paper())
}

/// [`assert_lane_equivalence`] from a given scalar configuration.
fn assert_lane_equivalence_with(
    net: &Network,
    universe: &FaultUniverse,
    patterns: &[Pattern],
    outputs: &[NodeId],
    scalar_cfg: ConcurrentConfig,
) -> (RunReport, RunReport) {
    let packed_cfg = ConcurrentConfig {
        packing: true,
        ..scalar_cfg
    };
    let mut scalar = ConcurrentSim::new(net, universe.faults(), scalar_cfg);
    let s_rep = scalar.run(patterns, outputs);
    let mut packed = ConcurrentSim::new(net, universe.faults(), packed_cfg);
    let p_rep = packed.run(patterns, outputs);

    assert_eq!(p_rep.detections, s_rep.detections, "detections diverged");
    assert_eq!(packed.live(), scalar.live(), "live sets diverged");
    assert_eq!(
        packed.record_count(),
        scalar.record_count(),
        "record population diverged"
    );
    for k in 0..u32::try_from(universe.len()).expect("universe fits") {
        let f = FaultId(k);
        for n in net.node_ids() {
            assert_eq!(
                packed.fault_state(f, n),
                scalar.fault_state(f, n),
                "fault {k} diverged at node {n:?}"
            );
        }
    }
    for (p, s) in p_rep.patterns.iter().zip(&s_rep.patterns) {
        assert_eq!(
            (p.detected, p.live_before, p.good_groups, p.damped),
            (s.detected, s.live_before, s.good_groups, s.damped),
            "pattern counters diverged"
        );
    }
    (s_rep, p_rep)
}

/// The paper's configuration under `DefiniteOnly` detection.
fn definite_only() -> ConcurrentConfig {
    ConcurrentConfig {
        policy: DetectionPolicy::DefiniteOnly,
        ..ConcurrentConfig::paper()
    }
}

// ---------------------------------------------------------------------
// Deterministic fixtures: the shapes packing targets.
// ---------------------------------------------------------------------

#[test]
fn ram_lanes_match_scalar_bit_for_bit() {
    use fmossim::circuits::Ram;
    use fmossim::testgen::TestSequence;
    let ram = Ram::new(4, 4);
    let universe = FaultUniverse::stuck_nodes(ram.network());
    let seq = TestSequence::march_only(&ram);
    let (s_rep, _) = assert_lane_equivalence(
        ram.network(),
        &universe,
        seq.patterns(),
        ram.observed_outputs(),
    );
    assert!(
        s_rep.detections.len() > universe.len() / 2,
        "workload must exercise the fault machinery"
    );
}

#[test]
fn transistor_fault_lanes_match_scalar() {
    use fmossim::circuits::RippleAdder;
    let adder = RippleAdder::new(2);
    let universe =
        FaultUniverse::stuck_transistors(adder.network()).without_redundant(adder.network());
    let patterns: Vec<Pattern> = (0..4u64)
        .map(|a| {
            Pattern::new(vec![Phase::strobe(adder.operand_assignments(
                a,
                3 - a,
                false,
            ))])
        })
        .collect();
    assert_lane_equivalence(
        adder.network(),
        &universe,
        &patterns,
        &adder.observed_outputs(),
    );
}

// ---------------------------------------------------------------------
// Property test: random small netlists and fault universes.
// ---------------------------------------------------------------------

struct RandomCase {
    net: Network,
    outputs: Vec<NodeId>,
    patterns: Vec<Pattern>,
}

/// Random switch network + stimulus in the style of the replay
/// equivalence suite: nMOS-biased transistors over a handful of
/// storage nodes, occasional depletion loads and X stimulus — dense
/// enough that faulty circuits overlap, which is the packed lanes'
/// interesting regime.
fn random_case(seed: u64) -> RandomCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new();
    net.add_input("Vdd", Logic::H);
    net.add_input("Gnd", Logic::L);
    let num_inputs = rng.gen_range(1..=3);
    let inputs: Vec<NodeId> = (0..num_inputs)
        .map(|i| net.add_input(format!("I{i}"), Logic::L))
        .collect();
    let num_storage = rng.gen_range(2..=6);
    let storage: Vec<NodeId> = (0..num_storage)
        .map(|i| {
            let size = if rng.gen_bool(0.25) {
                Size::S2
            } else {
                Size::S1
            };
            net.add_storage(format!("S{i}"), size)
        })
        .collect();
    let all: Vec<NodeId> = net.node_ids().collect();
    for _ in 0..rng.gen_range(3..=12) {
        let ttype = match rng.gen_range(0..6) {
            0 => TransistorType::P,
            1 => TransistorType::D,
            _ => TransistorType::N,
        };
        let strength = if ttype == TransistorType::D {
            Drive::D1
        } else {
            Drive::D2
        };
        let gate = all[rng.gen_range(0..all.len())];
        let source = all[rng.gen_range(0..all.len())];
        let drain = storage[rng.gen_range(0..storage.len())];
        if source == drain {
            continue;
        }
        net.add_transistor(ttype, strength, gate, source, drain);
    }
    let outputs = vec![storage[rng.gen_range(0..storage.len())]];
    let num_patterns = rng.gen_range(2..=5);
    let mut patterns = Vec::with_capacity(num_patterns);
    for _ in 0..num_patterns {
        let mut assignments: Vec<(NodeId, Logic)> = Vec::new();
        for &n in &inputs {
            if !rng.gen_bool(0.8) {
                continue;
            }
            let v = match rng.gen_range(0..8) {
                0 => Logic::X,
                k if k % 2 == 0 => Logic::L,
                _ => Logic::H,
            };
            assignments.push((n, v));
        }
        patterns.push(Pattern::new(vec![Phase::strobe(assignments)]));
    }
    RandomCase {
        net,
        outputs,
        patterns,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The property: on a random netlist with a random mixed
    /// stuck-node + stuck-transistor universe, the packed and scalar
    /// concurrent simulators agree on every detection, every record,
    /// and every per-fault node state.
    #[test]
    fn random_netlists_settle_bit_identically(seed in 0u64..10_000) {
        let case = random_case(seed);
        let universe = FaultUniverse::stuck_nodes(&case.net)
            .union(FaultUniverse::stuck_transistors(&case.net))
            .sample(12, seed);
        prop_assume!(!universe.faults().is_empty());
        assert_lane_equivalence(&case.net, &universe, &case.patterns, &case.outputs);
    }
}

// ---------------------------------------------------------------------
// Zoo regressions: each lane keeps its scalar position in the round.
// ---------------------------------------------------------------------

/// `counter6` under the full universe and `DefiniteOnly`. Packed lanes
/// once met their groups in a different order within a round than the
/// scalar engine (a shared node-ordered round queue, and evicted lanes
/// re-queued at the round's end), which moved three stuck-open faults:
/// 332 detected at pattern 16 instead of 8, 394 and 518 lost.
#[test]
fn counter6_all_universe_packed_matches_scalar() {
    let w = build_zoo("counter6").expect("zoo member");
    let universe =
        FaultUniverse::stuck_nodes(&w.net).union(FaultUniverse::stuck_transistors(&w.net));
    assert_lane_equivalence_with(&w.net, &universe, &w.patterns, &w.outputs, definite_only());
}

/// The smallest `counter6` fault set the round-order bug showed on: the
/// stuck-open pull-up's circuit ended pattern 15 with `CB4.nb` at X
/// packed but L scalar. Its lanes re-converge by the end of the run, so
/// states are compared at every phase boundary.
#[test]
fn counter6_lane_order_matches_scalar_every_phase() {
    let w = build_zoo("counter6").expect("zoo member");
    let universe = FaultUniverse::from_faults(vec![
        Fault::TransistorStuckClosed(TransistorId::from_index(129)),
        Fault::TransistorStuckClosed(TransistorId::from_index(130)),
        Fault::TransistorStuckOpen(TransistorId::from_index(135)),
        Fault::TransistorStuckClosed(TransistorId::from_index(146)),
        Fault::TransistorStuckClosed(TransistorId::from_index(148)),
    ]);
    let mut scalar = ConcurrentSim::new(&w.net, universe.faults(), definite_only());
    let packed_cfg = ConcurrentConfig {
        packing: true,
        ..definite_only()
    };
    let mut packed = ConcurrentSim::new(&w.net, universe.faults(), packed_cfg);
    let (mut s_stats, mut p_stats) = (PatternStats::default(), PatternStats::default());
    for (pi, pattern) in w.patterns.iter().enumerate() {
        for (phi, phase) in pattern.phases.iter().enumerate() {
            scalar.step_phase(phase, &w.outputs, pi, phi, &mut s_stats);
            packed.step_phase(phase, &w.outputs, pi, phi, &mut p_stats);
            for (f, _) in universe.iter() {
                for n in w.net.node_ids() {
                    assert_eq!(
                        packed.fault_state(f, n),
                        scalar.fault_state(f, n),
                        "pattern {pi} phase {phi}: fault {f:?} diverged at {}",
                        w.net.node(n).name
                    );
                }
            }
        }
    }
}
