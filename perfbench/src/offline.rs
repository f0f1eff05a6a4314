//! The offline workloads: one circuit graded again and again through
//! the public `Campaign` API by one client, back to back.

use crate::host::{self, measure, Cost};
use crate::inputs::{self, definite, Item, UNIVERSE};
use crate::oracle::{self, check, Pinned, Tally};
use crate::stats::{median, percentile, resolved};
use crate::trace::{self, span, Ctx, SpanId, Tracer};
use crate::{Args, Outcome};
use fmossim_bench::stats::{fraction, imbalance, mean};
use fmossim_campaign::json::{obj, Value};
use fmossim_campaign::{
    universe_from_spec, Backend, Campaign, CampaignReport, ConcurrentConfig, Jobs, ParallelConfig,
    Registry, ShardStrategy, SimEvent,
};
use fmossim_core::{ConcurrentSim, GoodTape};
use fmossim_faults::{CollapseClasses, FaultUniverse};
use fmossim_par::ShardPlan;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 21;
/// Untraced campaigns per run, at least; a traced run needs this many
/// less one of each kind.
const MIN_CAMPAIGNS: usize = 3;
/// Repetitions of each direct single-layer call in a traced run.
const LAYER_REPS: usize = 3;

/// One offline workload: a RAM and the configuration grading it.
pub struct Spec {
    pub name: &'static str,
    rows: usize,
    cols: usize,
    /// Worker threads; 1 selects the concurrent backend.
    jobs: usize,
    packing: bool,
    collapse: bool,
}

/// The paper's RAM64 with sequence 2 on the concurrent backend, with
/// today's defaults.
pub const RAM64_SEQ2: Spec = Spec {
    name: "ram64-seq2",
    rows: 8,
    cols: 8,
    jobs: 1,
    packing: false,
    collapse: false,
};

/// RAM256 on the best composed configuration: parallel, K=2, packing,
/// collapse and good-tape replay.
pub const RAM256_K2: Spec = Spec {
    name: "ram256-k2",
    rows: 16,
    cols: 16,
    jobs: 2,
    packing: true,
    collapse: true,
};

impl Spec {
    fn sim(&self) -> ConcurrentConfig {
        ConcurrentConfig {
            packing: self.packing,
            gating: self.collapse,
            ..definite()
        }
    }

    fn backend(&self) -> Backend {
        let sim = ConcurrentConfig {
            gating: false,
            ..self.sim()
        };
        if self.jobs == 1 {
            Backend::Concurrent(sim)
        } else {
            Backend::Parallel(ParallelConfig {
                jobs: Jobs::Fixed(self.jobs),
                sim,
                ..ParallelConfig::default()
            })
        }
    }

    /// The configuration vector recorded with every row.
    fn config(&self) -> Value {
        let backend = if self.jobs == 1 {
            "concurrent"
        } else {
            "parallel"
        };
        obj([
            ("backend", Value::Str(backend.into())),
            ("jobs", Value::Num(self.jobs as f64)),
            ("packing", Value::Bool(self.packing)),
            ("collapse", Value::Bool(self.collapse)),
            // Good-tape replay is on (the default); with one worker the
            // concurrent backend runs the live good machine instead.
            ("replay", Value::Bool(self.jobs > 1)),
            ("shards", Value::Num(self.jobs as f64)),
        ])
    }

    fn campaign<'a>(&self, item: &'a Item, universe: &FaultUniverse) -> Campaign<'a, 'a> {
        Campaign::new(&item.net)
            .faults(universe.clone())
            .patterns(&item.patterns)
            .outputs(&item.outputs)
            .backend(self.backend())
            .collapse(self.collapse)
    }

    /// Pins this workload's reference, comparing its own
    /// configuration and, with `serial`, the serial backend.
    pub fn pin(&self, serial: bool) -> Pinned {
        let item = inputs::ram(self.name, self.rows, self.cols);
        let universe = universe_from_spec(&item.net, UNIVERSE).expect("known universe spec");
        let mut others = vec![(self.name, self.backend(), self.collapse)];
        others.extend(serial.then(oracle::serial));
        oracle::pin(&item, &universe, &others)
    }
}

/// A traced campaign's report and what its spans recorded.
struct Traced {
    report: CampaignReport,
    run: SpanId,
    wall: f64,
    /// `(end, seconds)` of every shard, in tracer time.
    shards: Vec<(f64, f64)>,
}

fn traced_campaign(
    spec: &Spec,
    item: &Item,
    universe: &FaultUniverse,
    t: &Tracer,
    id: u64,
) -> Traced {
    let registry = Registry::new();
    let mut shards = Vec::new();
    let run = Cell::new(0);
    let ctx = Ctx {
        campaign: id,
        ..Ctx::default()
    };
    let t0 = Instant::now();
    let report = span(Some(t), "campaign.run", ctx, |inner| {
        run.set(inner.parent.expect("traced span"));
        spec.campaign(item, universe)
            .with_telemetry(&registry)
            .on_event(|e| {
                let end = t.at(Instant::now());
                match e {
                    SimEvent::PatternDone { seconds, .. } => {
                        t.record("core.pattern", end - seconds, end, inner);
                    }
                    SimEvent::ShardDone { shard, seconds, .. } => {
                        let lane = u32::try_from(shard + 1).expect("shard count fits u32");
                        t.record("par.shard", end - seconds, end, Ctx { lane, ..inner });
                        shards.push((end, seconds));
                    }
                    _ => {}
                }
            })
            .run()
    });
    let wall = t0.elapsed().as_secs_f64();
    let run = run.get();
    // The tape is recorded before any shard starts; place its span
    // just ahead of the earliest shard.
    if let Some(rec) = report.tape_record_seconds.filter(|&r| r > 0.0) {
        let first = shards
            .iter()
            .map(|&(end, s)| end - s)
            .fold(f64::MAX, f64::min);
        let ctx = Ctx {
            parent: Some(run),
            ..ctx
        };
        t.record("switch.good_record", first - rec, first, ctx);
    }
    let _ = span(Some(t), "campaign.report_json", ctx, |_| report.to_json());
    Traced {
        report,
        run,
        wall,
        shards,
    }
}

/// Runs one offline workload for `args.seconds`.
pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let tracer = args.trace.then(Tracer::default);
    let t = tracer.as_ref();
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let item = span(t, "netlist.build", Ctx::default(), |_| {
            inputs::ram(spec.name, spec.rows, spec.cols)
        });
        let universe = span(t, "faults.universe", Ctx::default(), |_| {
            universe_from_spec(&item.net, UNIVERSE).expect("known universe spec")
        });
        setup.push(t0.elapsed().as_secs_f64());
        built = Some((item, universe));
    }
    let (item, universe) = built.expect("at least one set-up");
    let want =
        oracle::checked_in(spec.name).expect("seed-free workloads have checked-in references");
    let mut tally = Tally::default();

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut plain: Vec<Cost> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    for k in 0.. {
        let enough = match t {
            None => plain.len() >= MIN_CAMPAIGNS,
            Some(_) => plain.len().min(traced.len()) + 1 >= MIN_CAMPAIGNS,
        };
        if enough && Instant::now() >= deadline {
            break;
        }
        // Traced runs alternate with untraced ones, so drift in the
        // host's speed lands on both sides of the overhead ratio.
        match t.filter(|_| k % 2 == 1) {
            Some(t) => {
                let tc = traced_campaign(spec, &item, &universe, t, k + 1);
                tally.record("traced campaign", check("done", Some(&tc.report), &want));
                traced.push(tc);
            }
            None => {
                let (report, cost) = measure(|| spec.campaign(&item, &universe).run());
                tally.record("campaign", check("done", Some(&report), &want));
                plain.push(cost);
            }
        }
    }

    let walls: Vec<f64> = plain.iter().map(|c| c.wall).collect();
    let tail = resolved(&walls, 0.9, 10);
    let mut out = Outcome::new(spec.config(), item.patterns.len(), universe.len());
    out.put("setup_s", median(&setup));
    out.put("grade_s", median(&walls));
    out.put(
        "cpu_s",
        median(&plain.iter().map(|c| c.cpu).collect::<Vec<_>>()),
    );
    out.put("peak_rss_mb", host::peak_rss_mb());
    out.put("failed_frac", tally.failed_frac());
    out.put("job_p50_s", median(&walls));
    out.put("job_p90_s", tail.value);
    out.put("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
    out.sample("campaigns", tail);
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    out.note(&format!("campaign wall seconds: {}", list.join(" ")));
    out.note("a job is one campaign; one client runs them back to back, so jobs_per_s is campaigns over their summed wall seconds");
    if let Some(t) = t {
        layers(spec, &item, &universe, t, &traced, &mut out);
    }
    out.tally = tally;
    out
}

/// Per-layer metrics from the traced campaigns plus direct calls into
/// the layers the campaign hides.
fn layers(
    spec: &Spec,
    item: &Item,
    universe: &FaultUniverse,
    t: &Tracer,
    traced: &[Traced],
    out: &mut Outcome,
) {
    let ctx = Ctx::default();
    let direct = |name: &'static str, f: &dyn Fn()| -> f64 {
        for _ in 0..LAYER_REPS {
            span(Some(t), name, ctx, |_| f());
        }
        median(&trace::durations(&t.spans(), name))
    };
    let classes = spec.collapse.then(|| {
        let assigned = inputs::assigned_inputs(&item.patterns);
        let analyze = || CollapseClasses::analyze(&item.net, universe, &item.outputs, &assigned);
        let seconds = direct("faults.collapse", &|| drop(analyze()));
        (analyze(), seconds)
    });
    let simulated = classes
        .as_ref()
        .map_or_else(|| universe.clone(), |(c, _)| c.collapsed_universe(universe));
    let record_s = direct("switch.good_record", &|| {
        drop(GoodTape::record(
            &item.net,
            &item.patterns,
            spec.sim().engine,
        ));
    });
    let plan = ShardPlan::build(&item.net, &simulated, spec.jobs, ShardStrategy::default());
    let plan_s = if spec.jobs > 1 {
        direct("par.plan", &|| {
            drop(ShardPlan::build(
                &item.net,
                &simulated,
                spec.jobs,
                ShardStrategy::default(),
            ));
        })
    } else {
        out.note("par.plan_s, par.* gauges: bypassed, one worker runs the concurrent backend");
        0.0
    };

    // Divergence-record counts are visible only on a simulator driven
    // directly: one shard's faults, as one worker sees them.
    let shard_faults = simulated.subset(plan.shard(0));
    let records = span(Some(t), "core.direct", ctx, |_| {
        let mut sim = ConcurrentSim::new(&item.net, shard_faults.faults(), spec.sim());
        item.patterns
            .iter()
            .enumerate()
            .map(|(i, p)| {
                sim.step_pattern(p, &item.outputs, i);
                sim.record_count() as f64
            })
            .collect::<Vec<_>>()
    });

    let spans = t.spans();
    let reports: Vec<&CampaignReport> = traced.iter().map(|c| &c.report).collect();
    let per = |f: &dyn Fn(&CampaignReport) -> f64| {
        median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let counter = |name: &str| per(&|r| r.metrics.counters.get(name).copied().unwrap_or(0) as f64);
    let gauge = |name: &str| per(&|r| r.metrics.gauges.get(name).copied().unwrap_or(0.0));
    let traced_wall = median(&traced.iter().map(|c| c.wall).collect::<Vec<_>>());
    let pattern_secs: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.run.patterns.iter().map(|p| p.seconds))
        .collect();
    let step_s = per(&|r| r.run.patterns.iter().map(|p| p.seconds).sum());

    out.put(
        "netlist.build_s",
        median(&trace::durations(&spans, "netlist.build")),
    );
    out.put("netlist.parse_s", 0.0);
    out.note("netlist.parse_s, serve.*: not applicable, nothing is parsed or served offline");
    out.put(
        "faults.universe_s",
        median(&trace::durations(&spans, "faults.universe")),
    );
    out.put("faults.universe_size", universe.len() as f64);
    out.put("faults.collapse_s", classes.as_ref().map_or(0.0, |c| c.1));
    out.put(
        "faults.simulated_ratio",
        per(&|r| {
            r.collapse.map_or(1.0, |c| {
                fraction(c.simulated_faults as f64, c.total_faults as f64)
            })
        }),
    );
    if classes.is_none() {
        out.note("faults.collapse_s, core.gated_skips: bypassed, collapse is off");
    }
    out.put("switch.good_record_s", record_s);
    out.put("switch.good_record_share", fraction(record_s, traced_wall));
    out.put("switch.vicinity_solves", counter("switch.vicinity.solves"));
    let packed = counter("switch.packed_solves");
    let scalar = counter("switch.scalar_fallbacks");
    out.put("switch.packed_solves", packed);
    out.put("switch.scalar_fallbacks", scalar);
    out.put(
        "switch.lane_occupancy_mean",
        per(&|r| {
            r.metrics
                .histograms
                .get("switch.lane.occupancy")
                .map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64)
        }),
    );
    out.put("switch.packed_share", fraction(packed, packed + scalar));
    if !spec.packing {
        out.note("switch.packed_*, lane occupancy: zero by prediction, packing is off");
    }
    // Replayed shards do only faulty-circuit work; the live concurrent
    // backend also settles the good machine, so subtract a good pass.
    let faulty_s = if spec.jobs > 1 {
        gauge("par.shard.seconds")
    } else {
        (step_s - record_s).max(0.0)
    };
    out.put("core.faulty_s", faulty_s);
    out.put("core.pattern_p50_s", median(&pattern_secs));
    out.put("core.pattern_p90_s", percentile(&pattern_secs, 0.9).value);
    out.put(
        "core.live_mean",
        per(&|r| mean(r.run.patterns.iter().map(|p| p.live_before as f64))),
    );
    out.put("core.records_mean", mean(records.iter().copied()));
    out.put("core.events_scheduled", counter("core.events_scheduled"));
    out.put("core.circuit_settles", counter("core.circuit.settles"));
    out.put("core.faulty_groups", counter("core.faulty.groups"));
    out.put("core.gated_skips", counter("core.gated_skips"));
    out.put(
        "core.concurrent_to_good",
        step_s / record_s.max(f64::MIN_POSITIVE),
    );
    out.put("par.plan_s", plan_s);
    out.put("par.shard_busy_s", gauge("par.shard.seconds"));
    let shard_stats =
        |f: fn(&Shards) -> f64| median(&traced.iter().map(|c| f(&c.shards)).collect::<Vec<_>>());
    out.put("par.imbalance", shard_stats(shard_imbalance));
    out.put("par.overhead_s", shard_stats(shard_overhead));
    out.put("par.queue_wait_s", gauge("par.queue.wait_seconds"));
    out.put("par.merge_s", gauge("par.merge.seconds"));
    out.put("campaign.run_s", traced_wall);
    out.put(
        "campaign.self_s",
        median(
            &traced
                .iter()
                .map(|c| trace::self_time(&spans, c.run))
                .collect::<Vec<_>>(),
        ),
    );
    out.put(
        "campaign.report_json_s",
        median(&trace::durations(&spans, "campaign.report_json")),
    );
    for name in [
        "serve.parse_submission_s",
        "serve.submit_s",
        "serve.queue_s",
        "serve.run_s",
        "serve.cache_hit_rate",
        "serve.repeat_share",
        "serve.pool_depth_max",
    ] {
        out.put(name, 0.0);
    }
    let untraced = out.get("grade_s");
    out.put("trace.overhead_frac", (traced_wall - untraced) / untraced);
    out.note("core.records_mean: a direct concurrent pass over shard 0's faults");
    if spec.collapse {
        out.note("campaign.self_s includes the collapse analysis (faults.collapse_s alone)");
    }
    out.spans = spans;
}

/// `(end, seconds)` of each shard of one campaign.
pub type Shards = [(f64, f64)];

/// `max / mean` shard seconds of one campaign (1 with one shard).
pub fn shard_imbalance(shards: &Shards) -> f64 {
    let secs = shards.iter().map(|s| s.1);
    imbalance(secs.clone().fold(0.0, f64::max), mean(secs))
}

/// Batch wall time minus the slowest shard: the first shard's start
/// to the last shard's end, less the longest shard. Zero without
/// shards.
pub fn shard_overhead(shards: &Shards) -> f64 {
    if shards.is_empty() {
        return 0.0;
    }
    let first = shards
        .iter()
        .map(|&(end, s)| end - s)
        .fold(f64::MAX, f64::min);
    let last = shards.iter().map(|s| s.0).fold(f64::MIN, f64::max);
    let slowest = shards.iter().map(|s| s.1).fold(0.0, f64::max);
    (last - first - slowest).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_arithmetic() {
        // Shards of 2 s and 4 s both starting at t = 1; the second
        // ends at 5.5, half a second of stagger after its own work.
        let shards = [(3.0, 2.0), (5.5, 4.0)];
        assert!((shard_imbalance(&shards) - 4.0 / 3.0).abs() < 1e-12);
        assert!((shard_overhead(&shards) - 0.5).abs() < 1e-12);
        assert_eq!(shard_imbalance(&[]), 1.0);
        assert_eq!(shard_overhead(&[]), 0.0);
    }
}
