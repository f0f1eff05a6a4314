//! [`ServedBackend`] — the campaign backend the server runs jobs on.
//!
//! [`fmossim_par::ParallelSim`] spawns *scoped* threads borrowing the
//! caller's network, so every campaign would bring its own pool — and
//! four concurrent submissions on a four-core box would fight over
//! sixteen threads. The served backend instead decomposes a campaign
//! into owned per-shard tasks (each cloning an [`Arc<JobSpec>`]) and
//! submits them to the server's one [`SharedPool`]; the pool's
//! round-robin queues interleave all in-flight campaigns over a fixed
//! worker count.
//!
//! Execution semantics match the parallel backend: the good machine is
//! recorded once (or a cached tape is injected and the record pass is
//! skipped — then `tape_record_seconds == 0`), every shard replays the
//! tape over its fault subset, per-shard reports are relabelled to
//! parent-universe ids and merged, and the merged detection set is
//! bit-identical to an offline single-machine run of the same
//! workload.
//!
//! The server fixes the simulation configuration for every job —
//! [`ConcurrentConfig::paper`] with
//! [`DetectionPolicy::DefiniteOnly`] — so reports are comparable
//! across jobs and the tape cache key (which does not include the
//! configuration) stays sound.

use crate::pool::SharedPool;
use crate::proto::JobSpec;
use fmossim_campaign::{BackendRun, CampaignBackend, RunControl, SimEvent, TapeSlot, Workload};
use fmossim_core::{ConcurrentConfig, ConcurrentSim, DetectionPolicy, GoodTape, RunReport};
use fmossim_faults::FaultId;
use fmossim_par::{ShardPlan, ShardStrategy};
use fmossim_telemetry::Registry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// The one simulation configuration every served campaign runs under.
///
/// [`DetectionPolicy::DefiniteOnly`] keeps detection sets identical
/// across execution strategies (potential detections are the one
/// place serial and concurrent execution can disagree), which is what
/// makes server results comparable to offline runs — and to each
/// other across shard-count choices.
#[must_use]
pub fn served_config() -> ConcurrentConfig {
    ConcurrentConfig {
        policy: DetectionPolicy::DefiniteOnly,
        ..ConcurrentConfig::paper()
    }
}

/// The pool-backed campaign backend (see the module docs).
pub struct ServedBackend {
    spec: Arc<JobSpec>,
    pool: Arc<SharedPool>,
    job: u64,
    /// The job's own token (set by `DELETE /campaigns/{id}`).
    job_cancel: Arc<AtomicBool>,
    /// The hosting campaign's token
    /// ([`Campaign::cancel_token`](fmossim_campaign::Campaign::cancel_token)),
    /// handed over in [`CampaignBackend::attach_cancel`]. Either token
    /// cancels.
    campaign_cancel: Arc<AtomicBool>,
    inject: Option<Arc<GoodTape>>,
    export: Option<TapeSlot>,
    telemetry: Registry,
}

impl ServedBackend {
    /// A backend running `spec` as pool job `job`, cancellable via
    /// `cancel` (the job-table token) in addition to the campaign's
    /// own token.
    #[must_use]
    pub fn new(
        spec: Arc<JobSpec>,
        pool: Arc<SharedPool>,
        job: u64,
        cancel: Arc<AtomicBool>,
    ) -> ServedBackend {
        ServedBackend {
            spec,
            pool,
            job,
            job_cancel: cancel,
            campaign_cancel: Arc::new(AtomicBool::new(false)),
            inject: None,
            export: None,
            telemetry: Registry::null(),
        }
    }

    fn is_cancelled(&self) -> bool {
        self.job_cancel.load(Ordering::Relaxed) || self.campaign_cancel.load(Ordering::Relaxed)
    }
}

impl CampaignBackend for ServedBackend {
    fn name(&self) -> String {
        "served".into()
    }

    fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = registry.clone();
    }

    fn attach_cancel(&mut self, token: &Arc<AtomicBool>) {
        self.campaign_cancel = Arc::clone(token);
    }

    fn inject_good_tape(&mut self, tape: Arc<GoodTape>) {
        self.inject = Some(tape);
    }

    fn export_good_tape(&mut self, slot: &TapeSlot) {
        self.export = Some(Arc::clone(slot));
    }

    fn run(
        &mut self,
        w: &Workload<'_>,
        control: &RunControl,
        emit: &mut dyn FnMut(SimEvent),
    ) -> BackendRun {
        // The workload the campaign hands us borrows from the same
        // `JobSpec` the coordinator built the campaign from — except
        // the universe, which the campaign may have collapsed to class
        // representatives. The tasks below need owned (`'static`)
        // captures, so they clone the spec's Arc and one owned copy of
        // the workload universe. Coverage targets stop the run at
        // shard granularity, like the offline parallel backend;
        // pattern limits are applied by the campaign driver before the
        // backend runs.
        let spec = &self.spec;
        let universe = Arc::new(w.universe.clone());
        let target = control.detection_target(w.coverage_denominator());
        // Set once the coverage target is reached: still-queued shards
        // see it at pick-up and are skipped, like cancellation — but
        // the run counts as stopped-early, not cancelled.
        let coverage_stop = Arc::new(AtomicBool::new(false));
        let config = ConcurrentConfig {
            drop_on_detect: control.drop_detected,
            // Collapsed campaigns gate, like the offline backends.
            gating: control.collapse,
            ..served_config()
        };

        // Tape: replay the injected (cached) tape when its shape
        // matches, otherwise pay the record pass once here on the
        // coordinator thread. `tape_record_seconds == 0` is the
        // cache-hit signature in the report.
        let injected = self
            .inject
            .take()
            .filter(|t| t.matches(spec.net.num_nodes(), &spec.patterns));
        let was_injected = injected.is_some();
        let t0 = Instant::now();
        let tape = injected.unwrap_or_else(|| {
            Arc::new(GoodTape::record(&spec.net, &spec.patterns, config.engine))
        });
        let record_seconds = if was_injected {
            0.0
        } else {
            t0.elapsed().as_secs_f64()
        };
        if let Some(slot) = &self.export {
            *slot.lock().expect("tape slot poisoned") = Some(Arc::clone(&tape));
        }

        let plan = ShardPlan::build(
            &spec.net,
            &universe,
            spec.shards.max(1),
            ShardStrategy::RoundRobin,
        );
        let n_shards = plan.num_shards();

        let run_t0 = Instant::now();
        let (tx, rx) = mpsc::channel();
        for s in 0..n_shards {
            let ids: Vec<FaultId> = plan.shard(s).to_vec();
            let spec = Arc::clone(&self.spec);
            let universe = Arc::clone(&universe);
            let tape = Arc::clone(&tape);
            let cancels = (
                Arc::clone(&self.job_cancel),
                Arc::clone(&self.campaign_cancel),
            );
            let stop = Arc::clone(&coverage_stop);
            let fork = self.telemetry.fork();
            let tx = tx.clone();
            self.pool.submit(self.job, move || {
                // A cancelled (or coverage-stopped) job's still-queued
                // shards are skipped at pick-up — cooperative
                // cancellation reaches through the pool queue, not
                // just between completions.
                let outcome = if cancels.0.load(Ordering::Relaxed)
                    || cancels.1.load(Ordering::Relaxed)
                    || stop.load(Ordering::Relaxed)
                {
                    None
                } else {
                    let shard_universe = universe.subset(&ids);
                    let mut sim = ConcurrentSim::new(&spec.net, shard_universe.faults(), config);
                    sim.attach_metrics(&fork);
                    let mut report = sim.run_replayed_from(&spec.patterns, &spec.outputs, &tape, 0);
                    report.relabel_faults(|local| ids[local.index()]);
                    fork.counter("par.shards").inc();
                    fork.gauge("par.shard.seconds").add(report.total_seconds);
                    Some(report)
                };
                // The coordinator only hangs up after collecting all
                // n_shards messages, so this send cannot fail; being
                // defensive costs nothing. A shard that panics never
                // gets here: the pool catches the panic and the unwind
                // drops this sender unsent.
                let _ = tx.send((s, ids.len(), outcome, fork));
            });
        }
        drop(tx);

        let mut reports = Vec::with_capacity(n_shards);
        let mut max_shard_seconds = 0.0f64;
        let mut skipped = 0usize;
        let mut detected_weight = 0usize;
        let mut stopped_early = false;
        // Count replies against the plan rather than draining `rx`: a
        // panicked shard hangs up without replying, and a drained loop
        // would end early and merge a report silently missing its
        // faults. A missing shard fails the whole job instead.
        for received in 0..n_shards {
            let Ok((s, faults, outcome, fork)) = rx.recv() else {
                panic!(
                    "{} of {n_shards} shard(s) ended without a report (a shard task panicked); \
                     refusing to merge a partial result",
                    n_shards - received
                );
            };
            self.telemetry.merge(&fork);
            match outcome {
                Some(report) => {
                    for d in &report.detections {
                        emit(SimEvent::Detected {
                            fault: d.fault,
                            pattern: d.pattern,
                            phase: d.phase,
                            potential: d.is_potential(),
                        });
                        if control.drop_detected {
                            emit(SimEvent::FaultDropped { fault: d.fault });
                        }
                    }
                    emit(SimEvent::ShardDone {
                        shard: s,
                        faults,
                        detected: report.detections.len(),
                        seconds: report.total_seconds,
                    });
                    max_shard_seconds = max_shard_seconds.max(report.total_seconds);
                    detected_weight += report
                        .detections
                        .iter()
                        .map(|d| w.detection_weight(d.fault.index()))
                        .sum::<usize>();
                    if !stopped_early && target.is_some_and(|t| detected_weight >= t) {
                        stopped_early = true;
                        coverage_stop.store(true, Ordering::Relaxed);
                    }
                    reports.push(report);
                }
                None => skipped += 1,
            }
        }

        // Skipped shards mean a token fired mid-run: the coverage stop
        // (stopped-early) or a real cancel. Only the latter marks the
        // run cancelled.
        let cancelled = self.is_cancelled() || (skipped > 0 && !stopped_early);
        let mut run = RunReport::merge(reports);
        run.num_faults = universe.len();
        run.detections
            .sort_by_key(|d| (d.pattern, d.phase, d.fault.index()));
        run.total_seconds = run_t0.elapsed().as_secs_f64();

        BackendRun {
            run,
            stopped_early,
            cancelled,
            jobs: Some(self.pool.workers()),
            shards: Some(n_shards),
            max_shard_seconds: Some(max_shard_seconds),
            tape_record_seconds: Some(record_seconds),
            tape_groups: Some(tape.num_groups()),
            ..BackendRun::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_campaign::{Backend, Campaign, ParallelConfig, StopReason};
    use fmossim_circuits::Ram;
    use fmossim_core::stimulus_content_hash;
    use fmossim_faults::FaultUniverse;
    use fmossim_testgen::TestSequence;

    fn spec(shards: usize) -> JobSpec {
        let ram = Ram::new(4, 4);
        let seq = TestSequence::full(&ram);
        JobSpec {
            name: "ram4x4".into(),
            net: ram.network().clone(),
            universe: FaultUniverse::stuck_nodes(ram.network()),
            patterns: seq.patterns().to_vec(),
            outputs: ram.observed_outputs().to_vec(),
            shards,
            collapse: false,
            stop_at_coverage: None,
        }
    }

    fn run_served(
        spec: &Arc<JobSpec>,
        pool: &Arc<SharedPool>,
        tape: Option<Arc<GoodTape>>,
        slot: Option<&TapeSlot>,
    ) -> fmossim_campaign::CampaignReport {
        let cancel = Arc::new(AtomicBool::new(false));
        let backend = ServedBackend::new(
            Arc::clone(spec),
            Arc::clone(pool),
            spec.cache_key().0,
            cancel,
        );
        let mut campaign = Campaign::new(&spec.net)
            .faults(spec.universe.clone())
            .patterns(&spec.patterns)
            .outputs(&spec.outputs)
            .backend_impl(Box::new(backend));
        if let Some(tape) = tape {
            campaign = campaign.with_good_tape(tape);
        }
        if let Some(slot) = slot {
            campaign = campaign.export_good_tape(slot);
        }
        campaign.run()
    }

    #[test]
    fn matches_the_offline_parallel_backend_bit_for_bit() {
        let spec = Arc::new(spec(5));
        let pool = Arc::new(SharedPool::new(2, &Registry::null()));
        let slot: TapeSlot = TapeSlot::default();
        let served = run_served(&spec, &pool, None, Some(&slot));
        assert_eq!(served.backend, "served");
        assert_eq!(served.shards, Some(5));
        assert_eq!(served.jobs, Some(2));
        assert!(served.tape_record_seconds.unwrap() > 0.0, "cold: recorded");
        assert_eq!(served.stop, StopReason::Completed);

        // Offline reference under the same (DefiniteOnly) policy.
        let mut config = ParallelConfig::paper(2);
        config.sim = served_config();
        let offline = Campaign::new(&spec.net)
            .faults(spec.universe.clone())
            .patterns(&spec.patterns)
            .outputs(&spec.outputs)
            .backend(Backend::Parallel(config))
            .run();
        assert!(offline.detected() > 0);
        assert_eq!(served.run.detections, offline.run.detections);

        // The exported tape is the job's real tape, cacheable by key.
        let tape = slot.lock().unwrap().clone().expect("tape deposited");
        assert_eq!(tape.num_patterns(), spec.patterns.len());
        let _ = stimulus_content_hash(&spec.patterns);

        // Warm run: inject the tape back — no record pass, same set.
        let warm = run_served(&spec, &pool, Some(tape), None);
        assert_eq!(warm.tape_record_seconds, Some(0.0), "cache-hit signature");
        assert_eq!(warm.run.detections, offline.run.detections);
    }

    #[test]
    fn collapsed_jobs_match_uncollapsed_ones() {
        let spec = Arc::new(spec(4));
        let pool = Arc::new(SharedPool::new(2, &Registry::null()));
        let plain = run_served(&spec, &pool, None, None);
        let cancel = Arc::new(AtomicBool::new(false));
        let backend = ServedBackend::new(Arc::clone(&spec), Arc::clone(&pool), 9, cancel);
        let collapsed = Campaign::new(&spec.net)
            .faults(spec.universe.clone())
            .patterns(&spec.patterns)
            .outputs(&spec.outputs)
            .backend_impl(Box::new(backend))
            .collapse(true)
            .run();
        assert_eq!(collapsed.run.detections, plain.run.detections);
        assert_eq!(collapsed.run.num_faults, spec.universe.len());
        let stats = collapsed.collapse.expect("collapse ran");
        assert_eq!(stats.total_faults, spec.universe.len());
        assert!(stats.simulated_faults <= stats.total_faults);
    }

    /// Coverage targets stop served runs early — including collapsed
    /// ones, where the target is evaluated over the parent universe —
    /// and a coverage stop is not a cancellation, even though it skips
    /// still-queued shards through the same pool mechanism.
    #[test]
    fn coverage_target_stops_served_runs_without_cancelling() {
        let spec = Arc::new(spec(8));
        // One worker: shards complete strictly one at a time, so a low
        // target reliably leaves later shards queued when it trips.
        let pool = Arc::new(SharedPool::new(1, &Registry::null()));
        for collapse in [false, true] {
            let cancel = Arc::new(AtomicBool::new(false));
            let backend = ServedBackend::new(Arc::clone(&spec), Arc::clone(&pool), 21, cancel);
            let report = Campaign::new(&spec.net)
                .faults(spec.universe.clone())
                .patterns(&spec.patterns)
                .outputs(&spec.outputs)
                .backend_impl(Box::new(backend))
                .collapse(collapse)
                .stop_at_coverage(0.25)
                .run();
            assert_eq!(
                report.stop,
                StopReason::CoverageReached,
                "collapse={collapse}"
            );
            assert!(!report.cancelled, "collapse={collapse}: stop is not cancel");
            assert!(
                report.coverage() >= 0.25,
                "collapse={collapse}: parent-universe coverage {} missed the target",
                report.coverage()
            );
        }
    }

    #[test]
    fn wrong_shape_injected_tape_is_ignored() {
        let spec = Arc::new(spec(3));
        let pool = Arc::new(SharedPool::new(2, &Registry::null()));
        let cold = run_served(&spec, &pool, None, None);
        let stale = Arc::new(GoodTape::default());
        let guarded = run_served(&spec, &pool, Some(stale), None);
        assert!(
            guarded.tape_record_seconds.unwrap() > 0.0,
            "fell back to recording"
        );
        assert_eq!(guarded.run.detections, cold.run.detections);
    }

    #[test]
    fn job_token_cancels_through_the_pool_queue() {
        let spec = Arc::new(spec(8));
        // One worker: shards run strictly one at a time.
        let pool = Arc::new(SharedPool::new(1, &Registry::null()));
        let cancel = Arc::new(AtomicBool::new(false));
        let backend =
            ServedBackend::new(Arc::clone(&spec), Arc::clone(&pool), 1, Arc::clone(&cancel));
        let report = Campaign::new(&spec.net)
            .faults(spec.universe.clone())
            .patterns(&spec.patterns)
            .outputs(&spec.outputs)
            .backend_impl(Box::new(backend))
            .on_event(move |e| {
                if matches!(e, SimEvent::ShardDone { .. }) {
                    // First completed shard: cancel via the *job*
                    // token, as DELETE /campaigns/{id} would.
                    cancel.store(true, Ordering::Relaxed);
                }
            })
            .run();
        assert!(report.cancelled);
        assert_eq!(report.stop, StopReason::Cancelled);
        assert!(
            report.detected() < spec.universe.len(),
            "later shards were skipped"
        );
    }
}
