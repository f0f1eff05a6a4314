//! Workload inputs. The benchmark builds every circuit and stimulus
//! itself, from the public builders, and hands the program only the
//! results. Everything seeded derives from the run's `--seed`; the
//! RAMs and the fixed zoo members are seed-free.

use fmossim_campaign::json::{obj, Value};
use fmossim_circuits::{AluDatapath, Pla, PlaSpec, Ram, RippleAdder, ShiftRegister};
use fmossim_core::{ConcurrentConfig, DetectionPolicy, Pattern};
use fmossim_netlist::{write_netlist, Network, NodeId};
use fmossim_serve::proto::patterns_to_json;
use fmossim_testgen::zoo::{adder_sequence, alu_sequence, build_zoo, pla_sequence, shift_sequence};
use fmossim_testgen::{RandomNetSpec, RandomNetlist, TestSequence};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Every campaign grades the full universe: stuck nodes plus stuck
/// transistors.
pub const UNIVERSE: &str = "all";

/// The paper's engine under `DefiniteOnly`, the policy under which
/// every backend must report the same detections.
#[must_use]
pub fn definite() -> ConcurrentConfig {
    ConcurrentConfig {
        policy: DetectionPolicy::DefiniteOnly,
        ..ConcurrentConfig::paper()
    }
}

/// One circuit with its stimulus and observed outputs.
pub struct Item {
    pub name: &'static str,
    pub net: Network,
    pub outputs: Vec<NodeId>,
    pub patterns: Vec<Pattern>,
    /// Submitted to the server by zoo name (seed-free members) rather
    /// than inline as netlist text and patterns.
    pub by_name: bool,
}

/// A `rows` x `cols` 3T RAM with the march-only test sequence.
#[must_use]
pub fn ram(name: &'static str, rows: usize, cols: usize) -> Item {
    let ram = Ram::new(rows, cols);
    let seq = TestSequence::march_only(&ram);
    Item {
        name,
        net: ram.network().clone(),
        outputs: ram.observed_outputs().to_vec(),
        patterns: seq.patterns().to_vec(),
        by_name: false,
    }
}

/// Every input node the stimulus assigns, sorted and deduplicated: the
/// nodes `CollapseClasses::analyze` treats as externally driven, the
/// same set `Campaign::run` hands it.
#[must_use]
pub fn assigned_inputs(patterns: &[Pattern]) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = patterns
        .iter()
        .flat_map(|p| &p.phases)
        .flat_map(|ph| ph.inputs.iter().map(|&(n, _)| n))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// The `serve-mix` items, in submission-index order.
pub const MIX: [&str; 9] = [
    "ram4x4",
    "regfile4x4",
    "adder8",
    "shift16",
    "counter6",
    "pla6",
    "alu4",
    "rand-wide",
    "rand-net",
];

/// Builds one `serve-mix` item. Seed-free zoo members come from the
/// zoo registry; the others follow the zoo's recipes with `seed` in
/// place of the zoo's fixed seed.
#[must_use]
pub fn mix_item(name: &'static str, seed: u64) -> Item {
    let item = |net: &Network, outputs: Vec<NodeId>, patterns| Item {
        name,
        net: net.clone(),
        outputs,
        patterns,
        by_name: false,
    };
    let random = |spec_seed: u64, vectors: usize, vector_seed: u64| {
        let rn = RandomNetlist::generate(RandomNetSpec::wide(spec_seed));
        item(
            rn.network(),
            rn.observed_outputs().to_vec(),
            rn.patterns(vectors, vector_seed),
        )
    };
    match name {
        "ram4x4" | "regfile4x4" | "counter6" => {
            let w = build_zoo(name).expect("seed-free zoo member");
            Item {
                name,
                net: w.net,
                outputs: w.outputs,
                patterns: w.patterns,
                by_name: true,
            }
        }
        "adder8" => {
            let adder = RippleAdder::new(8);
            let patterns = adder_sequence(&adder, 24, seed);
            item(adder.network(), adder.observed_outputs(), patterns)
        }
        "shift16" => {
            let sr = ShiftRegister::new(16);
            let patterns = shift_sequence(&sr, 2 * sr.stages() + 8, seed);
            item(sr.network(), sr.observed_outputs().to_vec(), patterns)
        }
        "pla6" => {
            let pla = Pla::new(PlaSpec::random(6, 10, 4, seed));
            let patterns = pla_sequence(&pla);
            item(pla.network(), pla.observed_outputs().to_vec(), patterns)
        }
        "alu4" => {
            let alu = AluDatapath::new(4);
            let patterns = alu_sequence(&alu, 12, seed);
            item(alu.network(), alu.observed_outputs(), patterns)
        }
        "rand-wide" => random(seed, 32, seed ^ 2),
        "rand-net" => random(seed.wrapping_add(1), 48, seed ^ 3),
        other => unreachable!("unknown mix item {other}"),
    }
}

/// The `POST /campaigns` body submitting `item`.
#[must_use]
pub fn body(item: &Item, collapse: bool) -> String {
    let common = [
        ("universe", Value::Str(UNIVERSE.into())),
        ("collapse", Value::Bool(collapse)),
    ];
    let doc = if item.by_name {
        obj(common
            .into_iter()
            .chain([("circuit", Value::Str(item.name.into()))]))
    } else {
        let outputs = item
            .outputs
            .iter()
            .map(|&o| Value::Str(item.net.node(o).name.clone()))
            .collect();
        obj(common.into_iter().chain([
            ("name", Value::Str(item.name.into())),
            ("netlist", Value::Str(write_netlist(&item.net))),
            ("outputs", Value::Arr(outputs)),
            ("patterns", patterns_to_json(&item.net, &item.patterns)),
        ]))
    };
    doc.to_string()
}

/// The seeded submission order: `(item index into MIX, collapse)`.
/// It is dealt in rounds, each a seeded shuffle of every item with and
/// without collapse, so every item is submitted equally often and half
/// of all submissions collapse; only the order follows the seed.
#[must_use]
pub fn mix_order(seed: u64, len: usize) -> Vec<(usize, bool)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x006f_7264_6572);
    let mut round: Vec<(usize, bool)> = (0..MIX.len())
        .flat_map(|i| [(i, false), (i, true)])
        .collect();
    let mut order = Vec::with_capacity(len + round.len());
    while order.len() < len {
        round.shuffle(&mut rng);
        order.extend_from_slice(&round);
    }
    order.truncate(len);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_serve::parse_submission;

    #[test]
    fn the_seed_changes_seeded_items_only() {
        for name in MIX {
            let (a, b, c) = (mix_item(name, 1), mix_item(name, 1), mix_item(name, 2));
            assert_eq!(body(&a, false), body(&b, false), "{name} is reproducible");
            if !a.by_name {
                assert_ne!(body(&a, false), body(&c, false), "{name} follows the seed");
            }
        }
        assert_eq!(mix_order(5, 64), mix_order(5, 64));
        assert_ne!(mix_order(5, 64), mix_order(6, 64));
        // Every round submits each item once with and once without
        // collapse.
        let mut round = mix_order(5, 2 * MIX.len() * 3)[2 * MIX.len()..4 * MIX.len()].to_vec();
        round.sort_unstable();
        let all: Vec<(usize, bool)> = (0..MIX.len())
            .flat_map(|i| [(i, false), (i, true)])
            .collect();
        assert_eq!(round, all);
    }

    #[test]
    fn every_body_parses_to_the_item() {
        for name in MIX {
            let item = mix_item(name, 9);
            let spec = parse_submission(&body(&item, true), 4).expect("valid submission");
            assert_eq!(spec.net.num_nodes(), item.net.num_nodes());
            assert_eq!(spec.patterns.len(), item.patterns.len());
            assert_eq!(spec.outputs.len(), item.outputs.len());
            assert!(spec.collapse);
        }
    }
}
