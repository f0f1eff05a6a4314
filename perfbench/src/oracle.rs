//! The correctness oracle: detection fingerprints, the checked-in
//! references, and the failure accounting behind `failed_frac`.

use crate::inputs::{definite, Item};
use fmossim_campaign::json::{self, obj, Value};
use fmossim_campaign::{Backend, Campaign, CampaignReport, SerialConfig, StopReason};
use fmossim_faults::FaultUniverse;
use std::collections::BTreeMap;

/// FNV-1a over the canonical detection keys, the same fingerprint
/// `evalsuite` archives: two runs share it iff their detection sets
/// are bit-identical.
#[must_use]
pub fn fingerprint(r: &CampaignReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for d in r.detections() {
        eat(d.canonical_key().as_bytes());
        eat(b";");
    }
    h
}

/// What a correct campaign over one workload item must report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    pub faults: usize,
    pub detected: usize,
    pub fnv: u64,
}

impl Reference {
    #[must_use]
    pub fn of(r: &CampaignReport) -> Reference {
        Reference {
            faults: r.run.num_faults,
            detected: r.detected(),
            fnv: fingerprint(r),
        }
    }
}

/// Checks one finished campaign or served job against its reference.
/// `status` is the job's terminal status (`"done"` for an offline
/// campaign that returned).
///
/// # Errors
///
/// Describes the first way the result differs from a complete,
/// correct grade: a non-`done` status, a cancelled or early-stopped
/// run, a missing report, missing faults, or different detections.
pub fn check(
    status: &str,
    report: Option<&CampaignReport>,
    want: &Reference,
) -> Result<(), String> {
    if status != "done" {
        return Err(format!("ended `{status}`"));
    }
    let r = report.ok_or("done without a report")?;
    if r.cancelled || r.stop != StopReason::Completed {
        return Err(format!("stopped early ({:?})", r.stop));
    }
    let got = Reference::of(r);
    if got.faults != want.faults {
        return Err(format!(
            "graded {} faults, the universe has {}",
            got.faults, want.faults
        ));
    }
    if got != *want {
        return Err(format!(
            "detections differ: {} faults, fingerprint {:016x}; expected {}, {:016x}",
            got.detected, got.fnv, want.detected, want.fnv
        ));
    }
    Ok(())
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// The first few failure messages, for the run's notes.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// Failed over attempted operations.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The checked-in references of the seed-free items, keyed by item.
pub const REFERENCES_JSON: &str = include_str!("../references.json");

/// Parses a references document.
///
/// # Errors
///
/// Reports malformed JSON or a malformed entry.
pub fn parse_references(text: &str) -> Result<BTreeMap<String, Reference>, String> {
    let doc = json::parse(text)?;
    let Some(Value::Obj(items)) = doc.get("items") else {
        return Err("references: no \"items\" object".into());
    };
    items
        .iter()
        .map(|(name, v)| {
            let field = |k: &str| v.get(k).ok_or(format!("references: {name} lacks {k}"));
            let fnv = field("detections_fnv1a")?
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or(format!("references: {name} has a bad fingerprint"))?;
            let count = |k: &str| {
                field(k)?
                    .as_usize()
                    .ok_or(format!("references: {name}.{k} is not a count"))
            };
            Ok((
                name.clone(),
                Reference {
                    faults: count("faults")?,
                    detected: count("detected")?,
                    fnv,
                },
            ))
        })
        .collect()
}

/// The checked-in reference of `item`, if it has one.
///
/// # Panics
///
/// Panics if the compiled-in document is malformed, which is a bug in
/// this benchmark.
#[must_use]
pub fn checked_in(item: &str) -> Option<Reference> {
    parse_references(REFERENCES_JSON)
        .expect("compiled-in references parse")
        .get(item)
        .copied()
}

/// One checked-in reference and the backends it was compared with.
pub struct Pinned {
    pub name: String,
    pub reference: Reference,
    /// Backends that reported exactly the reference.
    pub agrees: Vec<&'static str>,
    /// Backends that did not (a known oracle discrepancy, kept on
    /// record rather than hidden).
    pub differs: Vec<&'static str>,
}

/// Grades `item` on the plain concurrent backend (the paper's
/// algorithm: one thread, no packing, no collapse) and pins that as
/// its reference. Each of `others`, a backend with its collapse
/// setting, is compared with it and its verdict recorded either way.
#[must_use]
pub fn pin(
    item: &Item,
    universe: &FaultUniverse,
    others: &[(&'static str, Backend, bool)],
) -> Pinned {
    let grade = |backend: Backend, collapse: bool| {
        Reference::of(
            &Campaign::new(&item.net)
                .faults(universe.clone())
                .patterns(&item.patterns)
                .outputs(&item.outputs)
                .backend(backend)
                .collapse(collapse)
                .run(),
        )
    };
    let reference = grade(Backend::Concurrent(definite()), false);
    let (mut agrees, mut differs) = (vec!["concurrent"], Vec::new());
    for &(name, backend, collapse) in others {
        if grade(backend, collapse) == reference {
            agrees.push(name);
        } else {
            differs.push(name);
        }
    }
    Pinned {
        name: item.name.to_string(),
        reference,
        agrees,
        differs,
    }
}

/// The serial backend under the reference's detection policy, as a
/// cross-check for [`pin`].
#[must_use]
pub fn serial() -> (&'static str, Backend, bool) {
    let backend = Backend::Serial(SerialConfig {
        policy: definite().policy,
        ..SerialConfig::paper()
    });
    ("serial", backend, false)
}

/// Renders a references document.
#[must_use]
pub fn render_references(items: &[Pinned]) -> String {
    let names = |v: &[&str]| Value::Arr(v.iter().map(|b| Value::Str((*b).into())).collect());
    let items: BTreeMap<String, Value> = items
        .iter()
        .map(|p| {
            let r = &p.reference;
            let entry = obj([
                ("faults", Value::Num(r.faults as f64)),
                ("detected", Value::Num(r.detected as f64)),
                ("detections_fnv1a", Value::Str(format!("{:016x}", r.fnv))),
                ("agrees", names(&p.agrees)),
                ("differs", names(&p.differs)),
            ]);
            (p.name.clone(), entry)
        })
        .collect();
    let doc = obj([
        ("format", Value::Str("fmossim-perfbench-references".into())),
        ("version", Value::Num(1.0)),
        ("policy", Value::Str("definite-only".into())),
        ("universe", Value::Str("all".into())),
        ("reference_backend", Value::Str("concurrent".into())),
        ("items", Value::Obj(items)),
    ]);
    format!("{doc}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_campaign::{Backend, Campaign, ParallelConfig};
    use fmossim_circuits::Ram;
    use fmossim_faults::FaultUniverse;
    use fmossim_serve::served_config;
    use fmossim_testgen::TestSequence;

    fn ram_report() -> CampaignReport {
        let ram = Ram::new(4, 4);
        let seq = TestSequence::full(&ram);
        Campaign::new(ram.network())
            .faults(FaultUniverse::stuck_nodes(ram.network()))
            .patterns(seq.patterns())
            .outputs(ram.observed_outputs())
            .backend(Backend::Parallel(ParallelConfig {
                sim: served_config(),
                shards: Some(2),
                ..ParallelConfig::paper(2)
            }))
            .run()
    }

    #[test]
    fn a_correct_run_passes() {
        let r = ram_report();
        let want = Reference::of(&r);
        assert_eq!(check("done", Some(&r), &want), Ok(()));
    }

    #[test]
    fn a_done_report_missing_a_shards_faults_fails() {
        let full = ram_report();
        let want = Reference::of(&full);
        // What a served job looks like when one shard's result is lost
        // and the job still ends `done`: the merged report lacks every
        // detection of that shard. Here: the odd faults (round-robin
        // shard 1 of 2).
        let mut partial = full.clone();
        partial.run.detections.retain(|d| d.fault.index() % 2 == 0);
        assert!(partial.detected() < full.detected());
        let mut tally = Tally::default();
        tally.record("job-1", check("done", Some(&partial), &want));
        tally.record("job-2", check("done", Some(&full), &want));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failed_frac(), 0.5);
        assert!(tally.errors[0].contains("detections differ"));
        // Faults missing from the universe count as failed too.
        partial.run.num_faults -= 3;
        assert!(check("done", Some(&partial), &want)
            .unwrap_err()
            .contains("faults"));
    }

    #[test]
    fn non_done_ends_fail() {
        let r = ram_report();
        let want = Reference::of(&r);
        assert!(check("failed", None, &want).is_err());
        assert!(check("done", None, &want).is_err());
        let mut cancelled = r.clone();
        cancelled.cancelled = true;
        cancelled.stop = StopReason::Cancelled;
        assert!(check("done", Some(&cancelled), &want).is_err());
        let mut cut = r;
        cut.stop = StopReason::CoverageReached;
        assert!(check("done", Some(&cut), &want).is_err());
    }

    #[test]
    fn references_round_trip() {
        let r = Reference {
            faults: 10,
            detected: 7,
            fnv: 0xdead_beef_0000_0001,
        };
        let text = render_references(&[Pinned {
            name: "x".into(),
            reference: r,
            agrees: vec!["parallel"],
            differs: vec!["serial"],
        }]);
        assert_eq!(parse_references(&text).unwrap()["x"], r);
        assert!(parse_references(REFERENCES_JSON).is_ok());
    }
}
