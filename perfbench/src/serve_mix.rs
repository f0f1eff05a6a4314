//! The `serve-mix` workload: an in-process campaign server with two
//! pool workers, driven over HTTP by a closed loop of two clients.
//! Each client submits, follows the job's event stream to its terminal
//! frame, fetches the report, checks it, and submits again.

use crate::host::{self, cpu_seconds};
use crate::inputs::{self, body, definite, mix_item, mix_order, Item, MIX};
use crate::oracle::{self, check, Reference, Tally};
use crate::stats::{median, percentile, resolved};
use crate::trace::{self, span, Ctx, Tracer};
use crate::{offline, Args, Outcome};
use fmossim_bench::stats::{fraction, mean};
use fmossim_campaign::json::{self, obj, Value};
use fmossim_campaign::{universe_from_spec, CampaignReport};
use fmossim_core::{ConcurrentSim, GoodTape};
use fmossim_faults::CollapseClasses;
use fmossim_netlist::parse_netlist;
use fmossim_par::{ShardPlan, ShardStrategy};
use fmossim_serve::proto::JobSpec;
use fmossim_serve::{parse_sse, parse_submission, request, Server, ServerConfig, DEFAULT_SHARDS};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pool workers and closed-loop clients, one each per core of a
/// two-core host.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 21;
/// Length of the seeded submission order (it wraps if a run is longer).
const ORDER_LEN: usize = 1 << 14;
/// Largest SSE chunk the client accepts.
const MAX_CHUNK: usize = 1 << 20;
/// Repetitions of each direct single-layer call in a traced run.
const LAYER_REPS: usize = 3;
/// `peak_rss_mb` is read when this many jobs have completed. The job
/// table never evicts, so the peak grows with every job served; read
/// at a fixed count it does not depend on how fast the host ran.
const RSS_AT_JOBS: usize = 400;

/// The mix, built: items, their submission bodies (without and with
/// collapse) and their references.
struct Mix {
    items: Vec<Item>,
    bodies: Vec<[String; 2]>,
    refs: Vec<Reference>,
}

/// One served job, as its client saw it.
struct Job {
    item: usize,
    /// `(index in the submission order, client)`.
    at: (usize, usize),
    id: Option<String>,
    post: Instant,
    accepted: Instant,
    first_frame: Option<Instant>,
    end: Instant,
    /// `(arrival, seconds)` of every `shard_done` frame.
    shards: Vec<(Instant, f64)>,
    report: Option<CampaignReport>,
    outcome: Result<(), String>,
}

impl Job {
    fn latency(&self) -> f64 {
        (self.end - self.post).as_secs_f64()
    }
}

/// One closed-loop phase against one server.
struct Phase {
    jobs: Vec<Job>,
    start: Instant,
    cpu: f64,
    metrics: String,
    pool_depth_max: f64,
    /// Peak RSS when the `RSS_AT_JOBS`th job completed, if one did.
    rss_at_jobs: Option<f64>,
}

/// Reference grades for every mix item, from the plain concurrent
/// backend on exactly the job the server will run. Seed-free items
/// must also match their checked-in reference. The serial backend is
/// compared too; where it differs, that is reported as a note. The
/// items are graded on one thread per core, before any timing starts.
fn references(
    bodies: &[[String; 2]],
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Vec<Reference> {
    let next = AtomicUsize::new(0);
    let graded = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let (Some(body), Some(&name)) = (bodies.get(i), MIX.get(i)) else {
                    break;
                };
                let spec = parse_submission(&body[0], DEFAULT_SHARDS).expect("mix bodies parse");
                let item = Item {
                    name,
                    net: spec.net,
                    outputs: spec.outputs,
                    patterns: spec.patterns,
                    by_name: false,
                };
                let pinned = oracle::pin(&item, &spec.universe, &[oracle::serial()]);
                graded
                    .lock()
                    .expect("reference list poisoned")
                    .push((i, pinned));
            });
        }
    });
    let mut graded = graded.into_inner().expect("reference list poisoned");
    graded.sort_by_key(|g| g.0);
    graded
        .into_iter()
        .zip(MIX)
        .map(|((_, pinned), name)| {
            if !pinned.differs.is_empty() {
                notes.push(format!(
                    "oracle: {} differs from the reference on {name}",
                    pinned.differs.join(", ")
                ));
            }
            if let Some(checked_in) = oracle::checked_in(name) {
                let same = (checked_in == pinned.reference)
                    .then_some(())
                    .ok_or(format!(
                        "checked-in {checked_in:?}, graded {:?}",
                        pinned.reference
                    ));
                tally.record(&format!("reference {name}"), same);
            }
            pinned.reference
        })
        .collect()
}

fn build_mix(seed: u64, t: Option<&Tracer>) -> (Vec<Item>, Vec<[String; 2]>, usize) {
    let items: Vec<Item> = span(t, "netlist.build", Ctx::default(), |_| {
        MIX.iter().map(|name| mix_item(name, seed)).collect()
    });
    let universe_size = span(t, "faults.universe", Ctx::default(), |_| {
        items
            .iter()
            .map(|i| {
                universe_from_spec(&i.net, inputs::UNIVERSE)
                    .expect("known spec")
                    .len()
            })
            .sum()
    });
    let bodies = items
        .iter()
        .map(|i| [body(i, false), body(i, true)])
        .collect();
    (items, bodies, universe_size)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

/// Follows a job's SSE stream to its end, stamping each frame with its
/// arrival time.
fn follow(addr: SocketAddr, id: &str) -> io::Result<Vec<(String, String, Instant)>> {
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET /campaigns/{id}/events HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    r.read_line(&mut line)?;
    if !line.starts_with("HTTP/1.1 200") {
        return Err(bad(format!("event stream refused: {}", line.trim())));
    }
    while {
        line.clear();
        r.read_line(&mut line)? > 0 && !line.trim_end().is_empty()
    } {}
    let mut frames = Vec::new();
    let mut pending = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("event stream ended mid-chunk".into()));
        }
        let size = usize::from_str_radix(line.trim(), 16)
            .ok()
            .filter(|&s| s <= MAX_CHUNK)
            .ok_or_else(|| bad(format!("bad chunk size {:?}", line.trim())))?;
        let mut chunk = vec![0u8; size + 2];
        r.read_exact(&mut chunk)?;
        if size == 0 {
            return Ok(frames);
        }
        let at = Instant::now();
        pending.push_str(std::str::from_utf8(&chunk[..size]).map_err(|e| bad(e.to_string()))?);
        while let Some(end) = pending.find("\n\n") {
            let text: String = pending.drain(..end + 2).collect();
            frames.extend(parse_sse(&text).into_iter().map(|(e, d)| (e, d, at)));
        }
    }
}

/// Submits one body and follows the job's event stream to its end.
fn serve_one(addr: SocketAddr, body: &str, item: usize, at: (usize, usize)) -> Job {
    let post = Instant::now();
    let mut job = Job {
        item,
        at,
        id: None,
        post,
        accepted: post,
        first_frame: None,
        end: post,
        shards: Vec::new(),
        report: None,
        outcome: Ok(()),
    };
    let followed = (|| -> Result<(), String> {
        let resp = request(addr, "POST", "/campaigns", Some(body)).map_err(|e| e.to_string())?;
        job.accepted = Instant::now();
        let text = resp.body_str().map_err(|e| e.to_string())?;
        if resp.status != 202 {
            return Err(format!("POST answered {}: {}", resp.status, text.trim()));
        }
        let id = json::parse(text)?
            .get("id")
            .and_then(Value::as_str)
            .ok_or("POST reply has no id")?
            .to_string();
        let frames = follow(addr, &id).map_err(|e| e.to_string())?;
        job.id = Some(id);
        job.end = Instant::now();
        for (event, data, arrived) in &frames {
            if matches!(event.as_str(), "pattern_start" | "shard_done") && job.first_frame.is_none()
            {
                job.first_frame = Some(*arrived);
            }
            if event == "shard_done" {
                let seconds = json::parse(data)?.get("seconds").and_then(Value::as_f64);
                job.shards
                    .push((*arrived, seconds.ok_or("shard_done without seconds")?));
            }
            if matches!(event.as_str(), "done" | "error") {
                job.end = *arrived;
            }
        }
        Ok(())
    })();
    job.outcome = followed;
    job
}

/// Fetches a followed job's status document and checks its report.
fn verify(addr: SocketAddr, job: &mut Job, want: &Reference) {
    let Some(id) = job.id.as_deref().filter(|_| job.outcome.is_ok()) else {
        return;
    };
    let fetched = (|| -> Result<(String, Option<CampaignReport>), String> {
        let status =
            request(addr, "GET", &format!("/campaigns/{id}"), None).map_err(|e| e.to_string())?;
        let doc = json::parse(status.body_str().map_err(|e| e.to_string())?)?;
        let state = doc
            .get("status")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let report = match doc.get("report") {
            Some(r) if !r.is_null() => Some(CampaignReport::from_json(&r.to_string())?),
            _ => None,
        };
        Ok((state, report))
    })();
    job.outcome = fetched.and_then(|(state, report)| {
        let verdict = check(&state, report.as_ref(), want);
        job.report = report;
        verdict
    });
}

/// Reads one sample of a Prometheus text exposition (0 if absent).
fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Runs the closed loop for `seconds` against `server`. The server's
/// accept loop has no shutdown: its thread is left to end with the
/// process, after every client has finished.
fn phase(
    server: Server,
    mix: &Mix,
    order: &[(usize, bool)],
    seconds: f64,
    t: Option<&Tracer>,
) -> Phase {
    let addr = server.local_addr().expect("bound listener has an address");
    std::thread::spawn(move || server.run());
    let next = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let jobs = Mutex::new(Vec::new());
    let depth_max = Mutex::new(0.0f64);
    let rss_at_jobs = Mutex::new(None);
    let (cpu0, start) = (cpu_seconds(), Instant::now());
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let sampler = t.map(|_| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    if let Ok(resp) = request(addr, "GET", "/metrics", None) {
                        let depth = prom(resp.body_str().unwrap_or(""), "fmossim_serve_pool_depth");
                        let mut max = depth_max.lock().expect("depth lock poisoned");
                        *max = max.max(depth);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (next, jobs, rss_at_jobs) = (&next, &jobs, &rss_at_jobs);
                s.spawn(move || {
                    while Instant::now() < deadline {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let (item, collapse) = order[k % order.len()];
                        let body = &mix.bodies[item][usize::from(collapse)];
                        let job = serve_one(addr, body, item, (k, client));
                        let mut jobs = jobs.lock().expect("job list poisoned");
                        jobs.push(job);
                        if jobs.len() == RSS_AT_JOBS {
                            *rss_at_jobs.lock().expect("rss lock poisoned") =
                                Some(host::peak_rss_mb());
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread panicked");
        }
        done.store(true, Ordering::Relaxed);
        if let Some(h) = sampler {
            h.join().expect("sampler thread panicked");
        }
    });
    let cpu = cpu_seconds() - cpu0;
    let metrics = request(addr, "GET", "/metrics", None)
        .ok()
        .and_then(|r| r.body_str().ok().map(str::to_string))
        .unwrap_or_default();
    // Every report is fetched and checked once the loop has ended:
    // parsing a report costs the client more CPU than a small job costs
    // the server, and the loop measures the service, not the client.
    let mut jobs = jobs.into_inner().expect("job list poisoned");
    jobs.sort_by_key(|j| j.at.0);
    let per = jobs.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|s| {
        for chunk in jobs.chunks_mut(per) {
            s.spawn(|| {
                for job in chunk {
                    verify(addr, job, &mix.refs[job.item]);
                }
            });
        }
    });
    Phase {
        jobs,
        start,
        cpu,
        metrics,
        pool_depth_max: depth_max.into_inner().expect("depth lock poisoned"),
        rss_at_jobs: rss_at_jobs.into_inner().expect("rss lock poisoned"),
    }
}

/// Runs the `serve-mix` workload for `args.seconds`.
pub fn run(args: &Args) -> Outcome {
    let tracer = args.trace.then(Tracer::default);
    let t = tracer.as_ref();
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (items, bodies, universe_size) = build_mix(args.seed, t);
        let server = Server::bind(&server_config()).expect("bind a loopback port");
        setup.push(t0.elapsed().as_secs_f64());
        // Dropping an earlier, never-run server joins its pool workers.
        built = Some((items, bodies, universe_size, server));
    }
    let (items, bodies, universe_size, server) = built.expect("at least one set-up");
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let refs = references(&bodies, &mut tally, &mut notes);
    let mix = Mix {
        items,
        bodies,
        refs,
    };
    let order = mix_order(args.seed, ORDER_LEN);

    // Traced runs split the time between an untraced and a traced
    // phase, each on a fresh server so both start with a cold cache.
    let share = if t.is_some() { 0.5 } else { 1.0 };
    let plain = phase(server, &mix, &order, args.seconds * share, None);
    let traced = t.map(|t| {
        let server = Server::bind(&server_config()).expect("bind a loopback port");
        phase(server, &mix, &order, args.seconds * share, Some(t))
    });
    for job in plain.jobs.iter().chain(traced.iter().flat_map(|p| &p.jobs)) {
        let what = format!("job {} ({})", job.at.0, MIX[job.item]);
        tally.record(&what, job.outcome.clone());
    }

    let config = obj([
        ("backend", Value::Str("served".into())),
        ("jobs", Value::Num(WORKERS as f64)),
        ("clients", Value::Num(CLIENTS as f64)),
        ("packing", Value::Bool(false)),
        ("collapse", Value::Str("every other submission".into())),
        ("replay", Value::Bool(true)),
        ("shards", Value::Num(DEFAULT_SHARDS as f64)),
    ]);
    let patterns = mix.items.iter().map(|i| i.patterns.len()).sum::<usize>();
    let mut out = Outcome::new(config, patterns, universe_size);
    let latencies: Vec<f64> = plain.jobs.iter().map(Job::latency).collect();
    let p90 = resolved(&latencies, 0.9, 10);
    let last_end = plain
        .jobs
        .iter()
        .map(|j| j.end)
        .max()
        .unwrap_or(plain.start);
    let walls: Vec<f64> = plain
        .jobs
        .iter()
        .filter_map(|j| j.report.as_ref().map(|r| r.wall_seconds))
        .collect();
    out.put("setup_s", median(&setup));
    out.put("grade_s", median(&walls));
    out.put("cpu_s", plain.cpu / plain.jobs.len() as f64);
    out.put(
        "peak_rss_mb",
        plain.rss_at_jobs.unwrap_or_else(host::peak_rss_mb),
    );
    out.put("failed_frac", tally.failed_frac());
    out.put("job_p50_s", median(&latencies));
    out.put("job_p90_s", p90.value);
    out.put(
        "jobs_per_s",
        plain.jobs.len() as f64 / (last_end - plain.start).as_secs_f64(),
    );
    out.sample("jobs", p90);
    for n in notes {
        out.note(&n);
    }
    out.note("grade_s is the served campaign's own run time; job latency adds queueing and HTTP");
    out.note("cpu_s is process CPU (server and clients) per job");
    out.note(&match plain.rss_at_jobs {
        Some(_) => format!("peak_rss_mb is the peak when job {RSS_AT_JOBS} completed"),
        None => {
            format!("peak_rss_mb is the peak at the end: fewer than {RSS_AT_JOBS} jobs completed")
        }
    });
    if let (Some(t), Some(traced)) = (t, traced) {
        layers(&mix, t, &traced, median(&latencies), &mut out);
    }
    out.tally = tally;
    out
}

/// Per-layer metrics from the traced phase and direct calls.
fn layers(mix: &Mix, t: &Tracer, phase: &Phase, untraced_p50: f64, out: &mut Outcome) {
    let ctx = Ctx::default();
    let at = |i: Instant| t.at(i);
    // Client-side spans per job, plus the server-side campaign
    // reconstructed from its report: it ends before the terminal frame
    // arrives and runs the tape record, then the shards.
    let mut self_times = Vec::new();
    for (n, job) in phase.jobs.iter().enumerate() {
        let lane = u32::try_from(job.at.1 + 1).expect("client count fits u32");
        let campaign = n as u64 + 1;
        let jctx = Ctx {
            parent: None,
            campaign,
            lane,
        };
        let id = t.record("serve.job", at(job.post), at(job.end), jctx);
        let child = Ctx {
            parent: Some(id),
            ..jctx
        };
        t.record("serve.submit", at(job.post), at(job.accepted), child);
        if let Some(first) = job.first_frame {
            t.record("serve.queue", at(job.accepted), at(first), child);
            t.record("serve.run", at(first), at(job.end), child);
        }
        let Some(r) = &job.report else { continue };
        let server_lane = Ctx {
            lane: lane + 10,
            ..child
        };
        let end = at(job.end);
        let run = t.record("campaign.run", end - r.wall_seconds, end, server_lane);
        let inner = Ctx {
            parent: Some(run),
            ..server_lane
        };
        let rec = r.tape_record_seconds.unwrap_or(0.0);
        if rec > 0.0 {
            t.record(
                "switch.good_record",
                end - r.wall_seconds,
                end - r.wall_seconds + rec,
                inner,
            );
        }
        for (k, &(arrived, secs)) in job.shards.iter().enumerate() {
            let lane = 100 + lane * 16 + u32::try_from(k).expect("shard count fits u32");
            t.record(
                "par.shard",
                at(arrived) - secs,
                at(arrived),
                Ctx { lane, ..inner },
            );
        }
        self_times.push(trace::self_time(&t.spans(), run));
    }

    // Direct calls into the layers, once per distinct item.
    let mut records = Vec::new();
    let (mut step_s, mut good_s) = (0.0, 0.0);
    for (idx, (item, bodies)) in mix.items.iter().zip(&mix.bodies).enumerate() {
        let reps = |name: &'static str, f: &dyn Fn()| {
            for _ in 0..LAYER_REPS {
                span(Some(t), name, ctx, |_| f());
            }
        };
        reps("serve.parse_submission", &|| {
            drop(parse_submission(&bodies[1], DEFAULT_SHARDS).expect("mix bodies parse"));
        });
        let spec: JobSpec = parse_submission(&bodies[1], DEFAULT_SHARDS).expect("mix bodies parse");
        if !item.by_name {
            let text = fmossim_netlist::write_netlist(&item.net);
            reps("netlist.parse", &|| {
                drop(parse_netlist(&text).expect("written netlists parse"))
            });
        }
        let assigned = inputs::assigned_inputs(&spec.patterns);
        reps("faults.collapse", &|| {
            drop(CollapseClasses::analyze(
                &spec.net,
                &spec.universe,
                &spec.outputs,
                &assigned,
            ));
        });
        reps("par.plan", &|| {
            drop(ShardPlan::build(
                &spec.net,
                &spec.universe,
                DEFAULT_SHARDS,
                ShardStrategy::RoundRobin,
            ));
        });
        let engine = definite().engine;
        let (_, good) = host::measure(|| {
            span(Some(t), "switch.good_record", ctx, |_| {
                drop(GoodTape::record(&spec.net, &spec.patterns, engine))
            });
        });
        good_s += good.wall;
        let (_, step) = host::measure(|| {
            span(Some(t), "core.direct", ctx, |_| {
                let mut sim = ConcurrentSim::new(&spec.net, spec.universe.faults(), definite());
                for (i, p) in spec.patterns.iter().enumerate() {
                    sim.step_pattern(p, &spec.outputs, i);
                    records.push(sim.record_count() as f64);
                }
            });
        });
        step_s += step.wall;
        if let Some(r) = phase
            .jobs
            .iter()
            .filter(|j| j.item == idx)
            .find_map(|j| j.report.as_ref())
        {
            reps("campaign.report_json", &|| drop(r.to_json()));
        }
    }

    let spans = t.spans();
    let dur = |name: &str| {
        let d = trace::durations(&spans, name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let reports: Vec<&CampaignReport> = phase
        .jobs
        .iter()
        .filter_map(|j| j.report.as_ref())
        .collect();
    let per = |f: &dyn Fn(&CampaignReport) -> f64| {
        median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let counter = |name: &str| per(&|r| r.metrics.counters.get(name).copied().unwrap_or(0) as f64);
    let gauge = |name: &str| per(&|r| r.metrics.gauges.get(name).copied().unwrap_or(0.0));
    let misses: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.tape_record_seconds.filter(|&s| s > 0.0))
        .collect();
    let latency_sum: f64 = phase.jobs.iter().map(Job::latency).sum();
    let collapsed: Vec<_> = reports.iter().filter_map(|r| r.collapse).collect();
    let pattern_secs: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.run.patterns.iter().map(|p| p.seconds))
        .collect();
    let mut seen = [false; MIX.len()];
    let repeats = phase
        .jobs
        .iter()
        .filter(|j| std::mem::replace(&mut seen[j.item], true))
        .count();
    let hits = prom(&phase.metrics, "fmossim_serve_cache_hits");
    let misses_n = prom(&phase.metrics, "fmossim_serve_cache_misses");

    out.put("netlist.build_s", dur("netlist.build"));
    out.put("netlist.parse_s", dur("netlist.parse"));
    out.put("faults.universe_s", dur("faults.universe"));
    out.put("faults.universe_size", per(&|r| r.run.num_faults as f64));
    out.put("faults.collapse_s", dur("faults.collapse"));
    out.put(
        "faults.simulated_ratio",
        fraction(
            collapsed.iter().map(|c| c.simulated_faults as f64).sum(),
            collapsed.iter().map(|c| c.total_faults as f64).sum(),
        ),
    );
    out.put(
        "switch.good_record_s",
        if misses.is_empty() {
            0.0
        } else {
            median(&misses)
        },
    );
    out.put(
        "switch.good_record_share",
        fraction(misses.iter().sum(), latency_sum),
    );
    out.put("switch.vicinity_solves", counter("switch.vicinity.solves"));
    out.put("switch.packed_solves", counter("switch.packed_solves"));
    out.put(
        "switch.scalar_fallbacks",
        counter("switch.scalar_fallbacks"),
    );
    out.put("switch.lane_occupancy_mean", 0.0);
    out.put("switch.packed_share", 0.0);
    out.note("switch.packed_*, lane occupancy: zero by prediction, the server does not pack");
    out.put("core.faulty_s", gauge("par.shard.seconds"));
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
        step_s / good_s.max(f64::MIN_POSITIVE),
    );
    out.put("par.plan_s", dur("par.plan"));
    out.put("par.shard_busy_s", gauge("par.shard.seconds"));
    let shard_runs: Vec<Vec<(f64, f64)>> = phase
        .jobs
        .iter()
        .map(|j| j.shards.iter().map(|&(a, s)| (at(a), s)).collect())
        .collect();
    out.put(
        "par.imbalance",
        median(
            &shard_runs
                .iter()
                .map(|s| offline::shard_imbalance(s))
                .collect::<Vec<_>>(),
        ),
    );
    out.put(
        "par.overhead_s",
        median(
            &shard_runs
                .iter()
                .map(|s| offline::shard_overhead(s))
                .collect::<Vec<_>>(),
        ),
    );
    out.put("par.queue_wait_s", 0.0);
    out.put("par.merge_s", 0.0);
    out.note("par.queue_wait_s, par.merge_s: the served shard loop records neither gauge");
    out.put("campaign.run_s", per(&|r| r.wall_seconds));
    out.put("campaign.self_s", median(&self_times));
    out.put("campaign.report_json_s", dur("campaign.report_json"));
    out.put("serve.parse_submission_s", dur("serve.parse_submission"));
    out.put("serve.submit_s", dur("serve.submit"));
    out.put("serve.queue_s", dur("serve.queue"));
    out.put("serve.run_s", dur("serve.run"));
    out.put("serve.cache_hit_rate", fraction(hits, hits + misses_n));
    out.put(
        "serve.repeat_share",
        repeats as f64 / phase.jobs.len().max(1) as f64,
    );
    out.put("serve.pool_depth_max", phase.pool_depth_max);
    let traced_p50 = median(&phase.jobs.iter().map(Job::latency).collect::<Vec<_>>());
    out.put(
        "trace.overhead_frac",
        (traced_p50 - untraced_p50) / untraced_p50,
    );
    out.note("per-job counts are medians over served reports; core.records_mean and core.concurrent_to_good come from direct passes over each item");
    out.spans = spans;
}
