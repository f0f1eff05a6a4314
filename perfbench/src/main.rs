//! The fmossim benchmark: fault-grading workloads measured end to end
//! through the public `Campaign` API and an in-process campaign server,
//! with a separate traced run that breaks the time down by layer.
//!
//! ```text
//! perfbench --workload <ram64-seq2|ram256-k2|serve-mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --write-references <path>
//! ```
//!
//! Every line but the last is for people: provenance, one line per
//! metric with its unit, and notes. The last line is one JSON object,
//! `{"correct", "attempted", "failed", "metrics"}`, holding the
//! end-to-end metrics untraced and the per-layer metrics traced. A
//! traced run also writes its spans as Chrome trace-event JSON under
//! `perfbench/out/`. The process exits non-zero when any campaign or
//! job graded differently from its reference. See `NOTES.md` for the
//! workloads and the metric map.

mod host;
mod inputs;
mod offline;
mod oracle;
mod serve_mix;
mod stats;
mod trace;

use fmossim_campaign::json::{obj, Value};
use fmossim_campaign::{Backend, ConcurrentConfig, Jobs, ParallelConfig};
use host::Host;
use oracle::Tally;
use stats::Percentile;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Where traced runs write their trace artifacts.
const OUT_DIR: &str = "perfbench/out";

/// The workloads, with the one-line reason each exists.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "ram64-seq2",
        "the paper's RAM64 on the concurrent backend: dense, long-lived fault lists",
    ),
    (
        "ram256-k2",
        "RAM256 on parallel K=2 with packing, collapse and replay: the largest working set",
    ),
    (
        "serve-mix",
        "two closed-loop HTTP clients on an in-process server: small repeated circuits",
    ),
];

/// End-to-end metrics, printed untraced: `(name, unit)`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("grade_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics, printed traced: `(name, unit)`.
const PER_LAYER: [(&str, &str); 40] = [
    ("netlist.build_s", "s"),
    ("netlist.parse_s", "s"),
    ("faults.universe_s", "s"),
    ("faults.universe_size", "count"),
    ("faults.collapse_s", "s"),
    ("faults.simulated_ratio", "ratio"),
    ("switch.good_record_s", "s"),
    ("switch.good_record_share", "ratio"),
    ("switch.vicinity_solves", "count"),
    ("switch.packed_solves", "count"),
    ("switch.scalar_fallbacks", "count"),
    ("switch.lane_occupancy_mean", "lanes"),
    ("switch.packed_share", "ratio"),
    ("core.faulty_s", "s"),
    ("core.pattern_p50_s", "s"),
    ("core.pattern_p90_s", "s"),
    ("core.live_mean", "count"),
    ("core.records_mean", "count"),
    ("core.events_scheduled", "count"),
    ("core.circuit_settles", "count"),
    ("core.faulty_groups", "count"),
    ("core.gated_skips", "count"),
    ("core.concurrent_to_good", "ratio"),
    ("par.plan_s", "s"),
    ("par.shard_busy_s", "s"),
    ("par.imbalance", "ratio"),
    ("par.overhead_s", "s"),
    ("par.queue_wait_s", "s"),
    ("par.merge_s", "s"),
    ("campaign.run_s", "s"),
    ("campaign.self_s", "s"),
    ("campaign.report_json_s", "s"),
    ("serve.parse_submission_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.queue_s", "s"),
    ("serve.run_s", "s"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.repeat_share", "ratio"),
    ("serve.pool_depth_max", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Command-line arguments of a measuring run.
pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.iter().any(|w| w.0 == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        ));
    }
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or(format!("{flag} takes a positive number"))
    };
    Ok(Args {
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number".to_string())?,
        seconds: number("--seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

/// What one workload run measured.
pub struct Outcome {
    tally: Tally,
    values: BTreeMap<&'static str, f64>,
    samples: Vec<(&'static str, Percentile)>,
    notes: Vec<String>,
    config: Value,
    patterns: usize,
    universe_size: usize,
    spans: Vec<trace::Span>,
}

impl Outcome {
    fn new(config: Value, patterns: usize, universe_size: usize) -> Outcome {
        Outcome {
            tally: Tally::default(),
            values: BTreeMap::new(),
            samples: Vec::new(),
            notes: Vec::new(),
            config,
            patterns,
            universe_size,
            spans: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// Records the sample count behind a percentile.
    fn sample(&mut self, what: &'static str, p: Percentile) {
        self.samples.push((what, p));
    }

    fn note(&mut self, note: &str) {
        self.notes.push(note.to_string());
    }
}

/// The provenance of a result row.
fn provenance(host: &Host, args: &Args, out: &Outcome) -> Value {
    obj([
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("traced", Value::Bool(args.trace)),
        ("nproc", Value::Num(host.nproc as f64)),
        ("cpu_model", Value::Str(host.cpu_model.clone())),
        ("commit", Value::Str(host.commit.clone())),
        ("config", out.config.clone()),
        ("universe", Value::Str(inputs::UNIVERSE.into())),
        ("universe_size", Value::Num(out.universe_size as f64)),
        ("patterns", Value::Num(out.patterns as f64)),
    ])
}

fn measure(args: &Args) -> ExitCode {
    let host = Host::probe();
    let out = match args.workload.as_str() {
        "ram64-seq2" => offline::run(&offline::RAM64_SEQ2, args),
        "ram256-k2" => offline::run(&offline::RAM256_K2, args),
        _ => serve_mix::run(args),
    };
    let why = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .map_or("", |w| w.1);
    let prov = provenance(&host, args, &out);
    println!("# {}: {why}", args.workload);
    println!("# provenance {prov}");
    let mut row = BTreeMap::new();
    let mut line = |name: &str, unit: &str, value: f64| {
        println!("{name:<28} {value:>14.6} {unit}");
        row.insert(
            name.to_string(),
            obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.into())),
            ]),
        );
    };
    for (name, unit) in END_TO_END {
        line(name, unit, out.get(name));
    }
    line("failed_frac", "ratio", out.get("failed_frac"));
    if args.trace {
        for (name, unit) in PER_LAYER {
            line(name, unit, out.get(name));
        }
    }
    for (what, p) in &out.samples {
        println!(
            "# {what}: {} samples; job_p90_s reports p{:.0}, with {} beyond it{}",
            p.samples,
            p.q * 100.0,
            p.beyond,
            if p.q < 0.9 {
                " (p90 needs 100 samples for ten beyond it)"
            } else {
                ""
            }
        );
    }
    println!(
        "# attempted {}, failed {}",
        out.tally.attempted, out.tally.failed
    );
    for e in &out.tally.errors {
        println!("# FAILED {e}");
    }
    for n in &out.notes {
        println!("# note: {n}");
    }
    if args.trace {
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&out.spans, prov.clone())));
        match written {
            Ok(()) => println!("# trace: {path} ({} spans)", out.spans.len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let metrics: BTreeMap<String, Value> = names
        .iter()
        .map(|&n| (n.to_string(), row[n].clone()))
        .collect();
    let correct = out.tally.failed == 0;
    let doc = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(out.tally.attempted as f64)),
        ("failed", Value::Num(out.tally.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{doc}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Recomputes the checked-in references of the seed-free items.
fn write_references(path: &str) -> ExitCode {
    let parallel = |packing| {
        let sim = ConcurrentConfig {
            packing,
            ..inputs::definite()
        };
        let jobs = Jobs::Fixed(2);
        Backend::Parallel(ParallelConfig {
            jobs,
            sim,
            ..ParallelConfig::default()
        })
    };
    // Serial RAM256 takes minutes; every other item is cross-checked.
    let mut items = vec![offline::RAM64_SEQ2.pin(true), offline::RAM256_K2.pin(false)];
    for name in ["ram4x4", "regfile4x4", "counter6"] {
        let item = inputs::mix_item(name, 0);
        let universe = fmossim_campaign::universe_from_spec(&item.net, inputs::UNIVERSE)
            .expect("known universe spec");
        let others = [
            ("parallel-collapse", parallel(false), true),
            ("parallel-packed-collapse", parallel(true), true),
            oracle::serial(),
        ];
        items.push(oracle::pin(&item, &universe, &others));
    }
    match std::fs::write(path, oracle::render_references(&items)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let Some(at) = argv.iter().position(|a| a == "--write-references") {
        return match argv.get(at + 1) {
            Some(path) => write_references(path),
            None => {
                eprintln!("--write-references needs a path");
                ExitCode::FAILURE
            }
        };
    }
    match parse_args(&argv) {
        Ok(args) => measure(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        std::iter::once("perfbench")
            .chain(s.split(' '))
            .map(String::from)
            .collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload serve-mix --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve-mix --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve-mix --seed 7 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-mix --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
