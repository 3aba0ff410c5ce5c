//! The simulation backend: a [`PlatformModel`] behind the
//! [`ExecutionBackend`] contract.
//!
//! Job lifecycle: `submit` samples a queue delay and schedules an
//! *eligible* event (no earlier than the platform's allocation
//! delay); an eligible job grabs a free slot or joins the FIFO wait
//! queue; on assignment the install and execution durations — and a
//! possible preemption point — are sampled and a *complete* event is
//! scheduled; completion frees the slot and admits the next waiter.
//! `wait_any` advances the event clock until a completion surfaces.

use crate::dist::{sample_exponential, sample_standard_normal};
use crate::event::{EventQueue, QueueStats};
use crate::faults::{AttemptTiming, FaultScript};
use crate::platform::PlatformModel;
use pegasus_wms::engine::{
    CompletionEvent, ExecutionBackend, Failure, FaultReason, JobOutcome, JobTimes,
};
use pegasus_wms::metrics::{names, MetricsRegistry};
use pegasus_wms::planner::ExecutableJob;
use pegasus_wms::symbols::Name;
use pegasus_wms::workflow::JobId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};

/// Internal per-submission key (one per attempt).
type Key = u64;

#[derive(Debug, Clone)]
enum SimEvent {
    Eligible(Key),
    /// Completion for a specific scheduling generation of a job; a
    /// stale generation (the job was evicted and rescheduled) is
    /// ignored.
    Complete(Key, u64),
    /// An opportunistic slot is reclaimed by its owner.
    SlotDown(usize),
    /// The slot returns to the pool.
    SlotUp(usize),
    /// A scripted blackout takes the slot down (one-shot; unlike
    /// churn it does not reschedule itself).
    BlackoutDown(usize),
    /// The scripted blackout window ends for the slot.
    BlackoutUp(usize),
}

#[derive(Debug, Clone)]
struct PendingJob {
    job_id: JobId,
    attempt: u32,
    runtime_hint: f64,
    install_hint: f64,
    submitted: f64,
    /// Filled at assignment.
    started: f64,
    install_done: f64,
    finished: f64,
    slot: usize,
    /// What killed the attempt before its natural finish, if anything.
    failure: Option<Failure>,
    /// Scheduling generation, bumped on (re)scheduling so stale
    /// completion events can be recognised.
    event_gen: u64,
}

/// A job accepted by the engine but not yet released to the remote
/// queue by the DAGMan-style submission throttle.
#[derive(Debug, Clone)]
struct HeldJob {
    job_id: JobId,
    attempt: u32,
    runtime_hint: f64,
    install_hint: f64,
    /// Backoff delay before (re)submission, in simulated seconds.
    delay: f64,
}

/// Discrete-event execution backend over one platform model.
///
/// Like DAGMan's `maxjobs` throttle, at most `slot_count()` jobs are
/// *released* to the remote queue at a time; jobs beyond that are held
/// at the submit host and their [`JobTimes::submitted`] stamp is set
/// at release, matching how pegasus-statistics derives per-job waiting
/// from the Condor job log (held-back jobs accrue no queue wait).
#[derive(Debug)]
pub struct SimBackend {
    platform: PlatformModel,
    rng: StdRng,
    clock: f64,
    events: EventQueue<SimEvent>,
    pending: HashMap<Key, PendingJob>,
    waiting: VecDeque<Key>,
    free_slots: Vec<usize>,
    next_key: Key,
    /// Jobs held at the submit host by the throttle.
    held: VecDeque<HeldJob>,
    /// Released-but-unfinished job count (throttle occupancy).
    released: usize,
    /// Maximum simultaneously released jobs (DAGMan `maxjobs`).
    throttle: usize,
    /// Count of preemptions that occurred.
    preemptions: u64,
    /// Which job currently occupies each slot.
    occupant: Vec<Option<Key>>,
    /// How many independent causes (churn, blackout) currently hold
    /// each slot out of the pool; 0 means the slot is available.
    down_votes: Vec<u32>,
    /// Compiled chaos script, if any.
    script: Option<FaultScript>,
    /// Job names by dense id, recorded at submission only while a
    /// fault script is attached: the script matches attempts by name,
    /// and nothing else in the simulation resolves one — the hot path
    /// stays on integer ids.
    names: Vec<Option<Name>>,
    /// Per-attempt wall-clock budget from the engine's retry policy,
    /// with the failure of an attempt exceeding it.
    timeout: Option<(f64, Failure)>,
    /// The failures the platform itself deals, allocated once: every
    /// attempt it kills shares them.
    preempted: Failure,
    blackout: Failure,
}

impl SimBackend {
    /// Creates a backend over `platform` with a deterministic seed.
    /// The submission throttle is the slot count.
    pub fn new(platform: PlatformModel, seed: u64) -> Self {
        let free_slots = (0..platform.slot_count()).rev().collect();
        let throttle = platform.slot_count().max(1);
        let n_slots = platform.slot_count();
        let mut backend = SimBackend {
            platform,
            rng: StdRng::seed_from_u64(seed),
            clock: 0.0,
            events: EventQueue::new(),
            pending: HashMap::new(),
            waiting: VecDeque::new(),
            free_slots,
            next_key: 0,
            held: VecDeque::new(),
            released: 0,
            throttle,
            preemptions: 0,
            occupant: vec![None; n_slots],
            down_votes: vec![0; n_slots],
            script: None,
            names: Vec::new(),
            timeout: None,
            preempted: FaultReason::Preemption.bare(),
            blackout: FaultReason::Eviction.tagged("blackout"),
        };
        if let Some(churn) = backend.platform.churn {
            for slot in 0..n_slots {
                let first_down = sample_exponential(&mut backend.rng, 1.0 / churn.mean_up);
                backend
                    .events
                    .schedule(first_down, SimEvent::SlotDown(slot));
            }
        }
        backend
    }

    /// Attaches a compiled chaos script. Scripted blackout windows are
    /// scheduled immediately as slot capacity events; per-attempt
    /// scenarios are consulted at every assignment.
    pub fn with_faults(mut self, script: FaultScript) -> Self {
        let n_slots = self.platform.slot_count();
        for (start, duration, first_slot, slot_count) in script.blackouts() {
            for slot in first_slot..(first_slot + slot_count).min(n_slots) {
                self.events.schedule(start, SimEvent::BlackoutDown(slot));
                self.events
                    .schedule(start + duration, SimEvent::BlackoutUp(slot));
            }
        }
        self.script = Some(script);
        self
    }

    /// Attempts killed before completion — platform preemptions,
    /// churn/blackout evictions, scripted kills, and timeouts.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Lifetime depth statistics of the discrete-event queue driving
    /// the simulation.
    pub fn queue_stats(&self) -> QueueStats {
        self.events.stats()
    }

    /// Events still pending in the discrete-event queue (0 after a
    /// run drains).
    pub(crate) fn queue_depth(&self) -> usize {
        self.events.len()
    }

    /// Folds the event-queue depth gauges and scheduled-event counter
    /// into `registry` under this platform's `site` label.
    /// Callers gate this behind `--profile` so default expositions
    /// stay byte-identical.
    pub fn export_queue_metrics(&self, registry: &mut MetricsRegistry) {
        let stats = self.queue_stats();
        let site = self.platform.name.clone();
        let labels = [("site", site.as_str())];
        registry.declare_gauge(
            names::SIM_QUEUE_DEPTH,
            "Simulator event-queue depth at export time.",
        );
        registry.set(names::SIM_QUEUE_DEPTH, &labels, self.queue_depth() as f64);
        registry.declare_gauge(
            names::SIM_QUEUE_PEAK,
            "Peak simulator event-queue depth over the run.",
        );
        registry.set(names::SIM_QUEUE_PEAK, &labels, stats.peak_depth as f64);
        registry.declare_counter(
            names::SIM_EVENTS_SCHEDULED,
            "Events scheduled into the simulator queue over the run.",
        );
        registry.add(names::SIM_EVENTS_SCHEDULED, &labels, stats.scheduled as f64);
    }

    fn assign(&mut self, key: Key) {
        let slot = self
            .free_slots
            .pop()
            .expect("assign called with a free slot");
        let speed = self.platform.slots[slot].speed.max(1e-9);
        let started = self.clock;

        debug_assert_eq!(self.down_votes[slot], 0, "assigned a downed slot");
        self.occupant[slot] = Some(key);
        let p = self.pending.get_mut(&key).expect("pending job exists");
        p.slot = slot;
        p.started = started;
        p.event_gen += 1;

        let install_dur = p.install_hint * self.platform.install_time_factor;
        let jitter = if self.platform.runtime_jitter_sigma > 0.0 {
            (self.platform.runtime_jitter_sigma * sample_standard_normal(&mut self.rng)).exp()
        } else {
            1.0
        };
        let mut exec_dur = p.runtime_hint / speed * jitter + self.platform.task_overhead;

        // The chaos script rules on this attempt from its fault-free
        // timing; its RNG is private, so platform sampling below stays
        // on the same stream whether or not a script is attached.
        let mut script_kill: Option<(f64, Failure)> = None;
        if let Some(script) = &self.script {
            let timing = AttemptTiming {
                start: started,
                install_duration: install_dur,
                exec_duration: exec_dur,
            };
            let name = self.names[p.job_id.idx()]
                .as_deref()
                .expect("names are recorded at submission while scripted");
            let decision = script.decide(name, p.attempt, &timing);
            exec_dur *= decision.slowdown;
            script_kill = decision.kill;
        }

        let busy = install_dur + exec_dur;
        let preempt_at = sample_exponential(&mut self.rng, self.platform.preemption_rate);

        // The earliest of: natural finish, platform preemption hazard,
        // scripted kill, per-attempt timeout.
        let mut finished = started + busy;
        let mut failure: Option<Failure> = None;
        if preempt_at < busy {
            finished = started + preempt_at;
            failure = Some(self.preempted.clone());
        }
        if let Some((at, kill)) = script_kill {
            if at < finished {
                finished = at;
                failure = Some(kill);
            }
        }
        if let Some((limit, exceeded)) = &self.timeout {
            if started + limit < finished {
                finished = started + limit;
                failure = Some(exceeded.clone());
            }
        }
        p.failure = failure;
        p.install_done = (started + install_dur).min(finished);
        p.finished = finished;
        let gen = p.event_gen;
        self.events.schedule(finished, SimEvent::Complete(key, gen));
    }

    /// One more cause holds `slot` out of the pool; on the first vote
    /// the occupant (if any) is evicted and completes *now* with
    /// `failure`.
    fn take_slot_down(&mut self, slot: usize, failure: Failure) {
        self.down_votes[slot] += 1;
        if self.down_votes[slot] > 1 {
            return; // already out of the pool
        }
        self.free_slots.retain(|&s| s != slot);
        if let Some(key) = self.occupant[slot].take() {
            let clock = self.clock;
            let p = self.pending.get_mut(&key).expect("occupant is pending");
            // The scheduled completion at the original finish time is
            // now stale; deliver an eviction completion instead.
            p.failure = Some(failure);
            p.finished = clock;
            p.install_done = p.install_done.min(clock);
            p.event_gen += 1;
            let gen = p.event_gen;
            self.events.schedule(clock, SimEvent::Complete(key, gen));
        }
    }

    /// One cause releases `slot`; when no cause holds it any more it
    /// rejoins the pool and immediately serves a waiter.
    fn bring_slot_up(&mut self, slot: usize) {
        debug_assert!(self.down_votes[slot] > 0, "slot-up without a down");
        self.down_votes[slot] = self.down_votes[slot].saturating_sub(1);
        if self.down_votes[slot] > 0 {
            return; // still held down by another cause
        }
        self.free_slots.push(slot);
        if let Some(next) = self.waiting.pop_front() {
            self.assign(next);
        }
    }

    /// A slot is reclaimed by its owner: evict the running job (it
    /// completes *now* as preempted) and take the slot out of the
    /// pool until its up event.
    fn on_slot_down(&mut self, slot: usize) {
        let churn = self.platform.churn.expect("churn events imply a model");
        // Opportunistic reclaim is exactly the paper's OSG preemption,
        // so churn evictions are the plain "preempted" failure.
        self.take_slot_down(slot, self.preempted.clone());
        let down_for = sample_exponential(&mut self.rng, 1.0 / churn.mean_down);
        self.events
            .schedule(self.clock + down_for, SimEvent::SlotUp(slot));
    }

    /// The slot returns from a churn outage.
    fn on_slot_up(&mut self, slot: usize) {
        let churn = self.platform.churn.expect("churn events imply a model");
        self.bring_slot_up(slot);
        let up_for = sample_exponential(&mut self.rng, 1.0 / churn.mean_up);
        self.events
            .schedule(self.clock + up_for, SimEvent::SlotDown(slot));
    }

    fn on_eligible(&mut self, key: Key) {
        if self.free_slots.is_empty() {
            self.waiting.push_back(key);
        } else {
            self.assign(key);
        }
    }

    /// Releases a held job into the remote queue, honouring any
    /// backoff delay carried by the hold.
    fn release(&mut self, h: HeldJob) {
        let key = self.next_key;
        self.next_key += 1;
        self.released += 1;
        let submitted = self.clock + h.delay;
        let delay = self.platform.queue_delay.sample(&mut self.rng);
        let eligible_at = (submitted + delay).max(self.platform.startup_delay);
        self.pending.insert(
            key,
            PendingJob {
                job_id: h.job_id,
                attempt: h.attempt,
                runtime_hint: h.runtime_hint,
                install_hint: h.install_hint,
                submitted,
                started: 0.0,
                install_done: 0.0,
                finished: 0.0,
                slot: usize::MAX,
                failure: None,
                event_gen: 0,
            },
        );
        self.events.schedule(eligible_at, SimEvent::Eligible(key));
    }

    fn on_complete(&mut self, key: Key) -> CompletionEvent {
        let p = self.pending.remove(&key).expect("completed job pending");
        // Free the slot only if this job still owns it (an evicted
        // job's slot left the pool with the churn event instead).
        if p.slot != usize::MAX && self.occupant[p.slot] == Some(key) {
            self.occupant[p.slot] = None;
            if self.down_votes[p.slot] == 0 {
                self.free_slots.push(p.slot);
            }
        }
        self.released -= 1;
        if p.failure.is_some() {
            self.preemptions += 1;
        }
        // Admit the next waiter into a freed slot.
        if !self.free_slots.is_empty() {
            if let Some(next) = self.waiting.pop_front() {
                self.assign(next);
            }
        }
        // Release throttled jobs into the vacated submission budget.
        while self.released < self.throttle {
            match self.held.pop_front() {
                Some(h) => self.release(h),
                None => break,
            }
        }
        CompletionEvent {
            job: p.job_id,
            attempt: p.attempt,
            outcome: p.failure.map_or(JobOutcome::Success, JobOutcome::Failure),
            times: JobTimes {
                submitted: p.submitted,
                started: p.started,
                install_done: p.install_done,
                finished: p.finished,
            },
        }
    }
}

impl ExecutionBackend for SimBackend {
    fn submit(&mut self, job: &ExecutableJob, attempt: u32) {
        self.submit_after(job, attempt, 0.0);
    }

    fn submit_after(&mut self, job: &ExecutableJob, attempt: u32, delay: f64) {
        assert!(
            self.platform.slot_count() > 0,
            "platform {} has no slots",
            self.platform.name
        );
        if self.script.is_some() {
            let idx = job.id.idx();
            if idx >= self.names.len() {
                self.names.resize(idx + 1, None);
            }
            if self.names[idx].is_none() {
                self.names[idx] = Some(job.name.clone());
            }
        }
        let h = HeldJob {
            job_id: job.id,
            attempt,
            runtime_hint: job.runtime_hint,
            install_hint: job.install_hint,
            delay: delay.max(0.0),
        };
        if self.released < self.throttle {
            self.release(h);
        } else {
            self.held.push_back(h);
        }
    }

    fn set_timeout(&mut self, timeout: Option<f64>) {
        self.timeout = timeout.map(|limit| (limit, FaultReason::timeout_exceeded(limit)));
    }

    fn wait_any(&mut self) -> CompletionEvent {
        loop {
            let (time, ev) = self
                .events
                .pop()
                .expect("wait_any called with nothing in flight");
            self.clock = self.clock.max(time);
            match ev {
                SimEvent::Eligible(key) => self.on_eligible(key),
                SimEvent::Complete(key, gen) => {
                    // Skip stale completions of evicted generations.
                    let live = self.pending.get(&key).is_some_and(|p| p.event_gen == gen);
                    if live {
                        return self.on_complete(key);
                    }
                }
                SimEvent::SlotDown(slot) => self.on_slot_down(slot),
                SimEvent::SlotUp(slot) => self.on_slot_up(slot),
                SimEvent::BlackoutDown(slot) => self.take_slot_down(slot, self.blackout.clone()),
                SimEvent::BlackoutUp(slot) => self.bring_slot_up(slot),
            }
        }
    }

    fn now(&self) -> f64 {
        self.clock
    }

    fn slot_capacity(&self) -> Option<usize> {
        Some(self.platform.slot_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor};
    use pegasus_wms::planner::{ExecutableWorkflow, JobKind};

    fn run_workflow(
        wf: &ExecutableWorkflow,
        be: &mut SimBackend,
        cfg: &EngineConfig,
    ) -> pegasus_wms::engine::WorkflowRun {
        Engine::run(be, wf, cfg, &mut NoopMonitor)
    }

    fn job(id: usize, runtime: f64, install: f64) -> ExecutableJob {
        ExecutableJob {
            id: JobId::new(id),
            name: format!("job{id}").into(),
            transformation: "work".into(),
            kind: JobKind::Compute,
            args: Default::default(),
            runtime_hint: runtime,
            install_hint: install,
        }
    }

    fn independent(jobs: Vec<ExecutableJob>) -> ExecutableWorkflow {
        ExecutableWorkflow {
            name: "w".into(),
            site: "sim".into(),
            jobs,
            edges: vec![],
        }
    }

    #[test]
    fn single_job_timing_is_exact_on_deterministic_platform() {
        let p = PlatformModel::uniform("t", 1, 1.0);
        let mut be = SimBackend::new(p, 1);
        let wf = independent(vec![job(0, 100.0, 20.0)]);
        let run = run_workflow(&wf, &mut be, &EngineConfig::default());
        assert!(run.succeeded());
        let t = run.records[0].times.unwrap();
        assert_eq!(t.waiting(), 0.0);
        assert_eq!(t.install(), 20.0);
        assert_eq!(t.kickstart(), 100.0);
        assert_eq!(run.wall_time, 120.0);
    }

    #[test]
    fn slot_speed_scales_kickstart_only() {
        let p = PlatformModel::uniform("fast", 1, 2.0);
        let mut be = SimBackend::new(p, 1);
        let wf = independent(vec![job(0, 100.0, 20.0)]);
        let run = run_workflow(&wf, &mut be, &EngineConfig::default());
        let t = run.records[0].times.unwrap();
        assert_eq!(t.kickstart(), 50.0);
        assert_eq!(t.install(), 20.0); // installs are network-bound
    }

    #[test]
    fn slot_contention_serialises_excess_jobs() {
        // 4 jobs of 10s on 2 slots: makespan 20s. With the default
        // DAGMan-style throttle (== slot count), the two excess jobs
        // are held at the submit host, so their *queue* waiting stays
        // zero — matching how pegasus-statistics reports waiting.
        let p = PlatformModel::uniform("two", 2, 1.0);
        let mut be = SimBackend::new(p, 1);
        let wf = independent((0..4).map(|i| job(i, 10.0, 0.0)).collect());
        let run = run_workflow(&wf, &mut be, &EngineConfig::default());
        assert_eq!(run.wall_time, 20.0);
        for rec in &run.records {
            assert_eq!(rec.times.unwrap().waiting(), 0.0);
        }
    }

    #[test]
    fn throttle_preserves_fifo_release_order() {
        // 3 jobs, 1 slot: completion order must be submission order.
        let p = PlatformModel::uniform("one", 1, 1.0);
        let mut be = SimBackend::new(p, 1);
        let wf = independent((0..3).map(|i| job(i, 10.0 - i as f64, 0.0)).collect());
        let run = run_workflow(&wf, &mut be, &EngineConfig::default());
        let finishes: Vec<f64> = run
            .records
            .iter()
            .map(|r| r.times.unwrap().finished)
            .collect();
        assert!(finishes[0] < finishes[1] && finishes[1] < finishes[2]);
    }

    #[test]
    fn startup_delay_blocks_first_wave() {
        let mut p = PlatformModel::uniform("campus", 4, 1.0);
        p.startup_delay = 500.0;
        let mut be = SimBackend::new(p, 1);
        let wf = independent(vec![job(0, 10.0, 0.0)]);
        let run = run_workflow(&wf, &mut be, &EngineConfig::default());
        let t = run.records[0].times.unwrap();
        assert_eq!(t.waiting(), 500.0);
        assert_eq!(run.wall_time, 510.0);
    }

    #[test]
    fn queue_delay_adds_waiting_time() {
        let mut p = PlatformModel::uniform("queued", 4, 1.0);
        p.queue_delay = Dist::Fixed(30.0);
        let mut be = SimBackend::new(p, 1);
        let wf = independent(vec![job(0, 10.0, 0.0), job(1, 10.0, 0.0)]);
        let run = run_workflow(&wf, &mut be, &EngineConfig::default());
        for rec in &run.records {
            assert_eq!(rec.times.unwrap().waiting(), 30.0);
        }
        assert_eq!(run.wall_time, 40.0);
    }

    #[test]
    fn preemption_fails_and_engine_retries() {
        // Hazard so high every long attempt is preempted; with huge
        // retries the job still eventually... never succeeds, so keep
        // a moderate hazard and a seed where attempt 2 survives.
        let mut p = PlatformModel::uniform("grid", 1, 1.0);
        p.preemption_rate = 1.0 / 150.0; // mean preemption at 150s
        let mut be = SimBackend::new(p, 7);
        let wf = independent(vec![job(0, 100.0, 0.0)]);
        let run = run_workflow(&wf, &mut be, &EngineConfig::builder().retries(50).build());
        assert!(run.succeeded());
        let rec = &run.records[0];
        // With mean 150 vs duration 100 some attempts fail for seed 7
        // ... but even if none did, the record is consistent:
        assert_eq!(run.failures(rec).count() as u64, be.preemptions());
        let t = rec.times.unwrap();
        assert_eq!(t.kickstart(), 100.0, "successful attempt runs fully");
    }

    #[test]
    fn preemptions_land_as_labelled_fault_counters() {
        use pegasus_wms::metrics::{names, MetricsMonitor, MetricsRegistry};
        // Same hostile platform as above: every attempt is preempted,
        // the run fails, and each preemption must land in the registry
        // under its typed `reason` label.
        let mut p = PlatformModel::uniform("hostile", 1, 1.0);
        p.preemption_rate = 1.0;
        let mut be = SimBackend::new(p, 3);
        let wf = independent(vec![job(0, 1000.0, 0.0)]);
        let mut registry = MetricsRegistry::new();
        let run = {
            let mut mon = MetricsMonitor::new(&mut registry, "sim", "1");
            Engine::run(
                &mut be,
                &wf,
                &EngineConfig::builder().retries(3).build(),
                &mut mon,
            )
        };
        assert!(!run.succeeded());
        let labels = [("site", "sim"), ("n", "1"), ("reason", "preempted")];
        assert_eq!(
            registry.value(names::FAILURES, &labels),
            Some(4.0),
            "initial attempt + 3 retries, all preempted"
        );
        assert_eq!(
            registry.value(names::RETRIES, &labels),
            Some(3.0),
            "each failure but the last schedules a retry"
        );
        assert!(registry
            .render()
            .contains("pegasus_job_failures_total{n=\"1\",reason=\"preempted\",site=\"sim\"} 4"));
    }

    #[test]
    fn queue_stats_and_metrics_export_reflect_the_run() {
        use pegasus_wms::metrics::{names, MetricsRegistry};
        let p = PlatformModel::uniform("two", 2, 1.0);
        let mut be = SimBackend::new(p, 1);
        let wf = independent((0..4).map(|i| job(i, 10.0, 0.0)).collect());
        let run = run_workflow(&wf, &mut be, &EngineConfig::default());
        assert!(run.succeeded());
        let stats = be.queue_stats();
        // Every release schedules an Eligible and every assignment a
        // Complete: at least two events per job passed through.
        assert!(stats.scheduled >= 8, "{stats:?}");
        assert!(stats.peak_depth >= 1);
        assert_eq!(be.queue_depth(), 0, "a finished run drains the queue");
        let mut registry = MetricsRegistry::new();
        be.export_queue_metrics(&mut registry);
        let labels = [("site", "two")];
        assert_eq!(registry.value(names::SIM_QUEUE_DEPTH, &labels), Some(0.0));
        assert_eq!(
            registry.value(names::SIM_QUEUE_PEAK, &labels),
            Some(stats.peak_depth as f64)
        );
        assert_eq!(
            registry.value(names::SIM_EVENTS_SCHEDULED, &labels),
            Some(stats.scheduled as f64)
        );
        let text = registry.render();
        assert!(
            text.contains("pegasus_sim_event_queue_peak_depth{site=\"two\"}"),
            "{text}"
        );
        assert!(!text.contains("calendar"), "{text}");
    }

    #[test]
    fn heavy_preemption_exhausts_retries() {
        let mut p = PlatformModel::uniform("hostile", 1, 1.0);
        p.preemption_rate = 1.0; // mean preemption after 1s
        let mut be = SimBackend::new(p, 3);
        let wf = independent(vec![job(0, 1000.0, 0.0)]);
        let run = run_workflow(&wf, &mut be, &EngineConfig::builder().retries(3).build());
        assert!(!run.succeeded());
        assert!(be.preemptions() >= 4);
    }

    #[test]
    fn install_factor_scales_install_phase() {
        let mut p = PlatformModel::uniform("slow_net", 1, 1.0);
        p.install_time_factor = 3.0;
        let mut be = SimBackend::new(p, 1);
        let wf = independent(vec![job(0, 10.0, 45.0)]);
        let run = run_workflow(&wf, &mut be, &EngineConfig::default());
        let t = run.records[0].times.unwrap();
        assert_eq!(t.install(), 135.0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let mut p = PlatformModel::uniform("jittery", 4, 1.0);
        p.queue_delay = Dist::lognormal_median(20.0, 1.0);
        p.runtime_jitter_sigma = 0.2;
        let wf = independent((0..16).map(|i| job(i, 50.0, 5.0)).collect());
        let run1 = run_workflow(
            &wf,
            &mut SimBackend::new(p.clone(), 9),
            &EngineConfig::default(),
        );
        let run2 = run_workflow(
            &wf,
            &mut SimBackend::new(p.clone(), 9),
            &EngineConfig::default(),
        );
        let run3 = run_workflow(&wf, &mut SimBackend::new(p, 10), &EngineConfig::default());
        assert_eq!(run1.wall_time, run2.wall_time);
        assert_ne!(run1.wall_time, run3.wall_time);
    }

    #[test]
    fn dag_dependencies_respected_in_sim_time() {
        // chain a(10) -> b(5): b's submission happens at a's finish.
        let p = PlatformModel::uniform("t", 4, 1.0);
        let mut be = SimBackend::new(p, 1);
        let wf = ExecutableWorkflow {
            name: "chain".into(),
            site: "sim".into(),
            jobs: vec![job(0, 10.0, 0.0), job(1, 5.0, 0.0)],
            edges: vec![(JobId::new(0), JobId::new(1))],
        };
        let run = run_workflow(&wf, &mut be, &EngineConfig::default());
        let ta = run.records[0].times.unwrap();
        let tb = run.records[1].times.unwrap();
        assert_eq!(ta.finished, 10.0);
        assert_eq!(tb.submitted, 10.0);
        assert_eq!(run.wall_time, 15.0);
    }

    #[test]
    fn churn_evicts_and_engine_recovers() {
        use crate::platform::ChurnModel;
        // One slot that stays up ~50s; a 200s job must be evicted at
        // least once and still finish under a generous retry budget.
        let mut p = PlatformModel::uniform("churny", 1, 1.0);
        p.churn = Some(ChurnModel {
            mean_up: 50.0,
            mean_down: 10.0,
        });
        let mut be = SimBackend::new(p, 11);
        let wf = independent(vec![job(0, 200.0, 0.0)]);
        let run = run_workflow(&wf, &mut be, &EngineConfig::builder().retries(200).build());
        assert!(run.succeeded());
        assert!(
            be.preemptions() >= 1,
            "a 200s job on a ~50s-up slot must be evicted"
        );
        assert_eq!(
            run.failures(&run.records[0]).count() as u64,
            be.preemptions()
        );
        // The successful attempt ran to completion.
        assert_eq!(run.records[0].times.unwrap().kickstart(), 200.0);
    }

    #[test]
    fn stable_pool_without_churn_never_evicts() {
        let p = PlatformModel::uniform("stable", 2, 1.0);
        let mut be = SimBackend::new(p, 3);
        let wf = independent((0..6).map(|i| job(i, 50.0, 0.0)).collect());
        let run = run_workflow(&wf, &mut be, &EngineConfig::default());
        assert!(run.succeeded());
        assert_eq!(be.preemptions(), 0);
    }

    #[test]
    fn churn_during_idle_periods_is_harmless() {
        use crate::platform::ChurnModel;
        // Short up periods but an even shorter job: the job may land
        // between churn events and finish first try; either way the
        // run must succeed and timings stay consistent.
        let mut p = PlatformModel::uniform("churny", 4, 1.0);
        p.churn = Some(ChurnModel {
            mean_up: 100.0,
            mean_down: 5.0,
        });
        let mut be = SimBackend::new(p, 5);
        let wf = independent((0..8).map(|i| job(i, 10.0, 0.0)).collect());
        let run = run_workflow(&wf, &mut be, &EngineConfig::builder().retries(50).build());
        assert!(run.succeeded());
        for rec in &run.records {
            let t = rec.times.unwrap();
            assert!(t.submitted <= t.started && t.started <= t.finished);
        }
    }

    #[test]
    fn scripted_storm_kills_and_reports_its_reason() {
        use crate::faults::{FaultPlan, FaultScript};
        // A probability-1 storm: every attempt overlapping [0, 150)
        // dies with the scripted reason. Exponential backoff walks the
        // retries out of the window, after which the job succeeds.
        let plan = FaultPlan::parse("preemption-storm start=0 duration=150 kill-probability=1.0\n")
            .unwrap();
        let p = PlatformModel::uniform("t", 1, 1.0);
        let mut be = SimBackend::new(p, 1).with_faults(FaultScript::new(plan, 5));
        let wf = independent(vec![job(0, 100.0, 0.0)]);
        let run = run_workflow(
            &wf,
            &mut be,
            &EngineConfig::builder()
                .policy(pegasus_wms::engine::RetryPolicy::exponential(20, 30.0))
                .build(),
        );
        assert!(run.succeeded());
        assert!(
            run.records[0].times.unwrap().started >= 150.0,
            "the surviving attempt must start after the storm"
        );
        let failures: Vec<_> = run.failures(&run.records[0]).collect();
        assert!(!failures.is_empty());
        assert!(failures.iter().all(|f| f.detail == "preempted:storm"));
        assert_eq!(run.faults().preemptions as usize, failures.len());
    }

    #[test]
    fn scripted_runs_replay_bit_for_bit() {
        use crate::faults::{FaultPlan, FaultScript};
        let plan = FaultPlan::parse(
            "preemption-storm start=50 duration=400 kill-probability=0.5\n\
             straggler start=0 duration=1000 slowdown=3 probability=0.3\n\
             install-failure-burst start=0 duration=200 fail-probability=0.4\n",
        )
        .unwrap();
        let mut p = PlatformModel::uniform("t", 4, 1.0);
        p.runtime_jitter_sigma = 0.1;
        let wf = independent((0..12).map(|i| job(i, 60.0, 10.0)).collect());
        let mut runs = Vec::new();
        for _ in 0..2 {
            let be = SimBackend::new(p.clone(), 21);
            let mut be = be.with_faults(FaultScript::new(plan.clone(), 21));
            runs.push(run_workflow(
                &wf,
                &mut be,
                &EngineConfig::builder().retries(30).build(),
            ));
        }
        assert_eq!(runs[0].wall_time, runs[1].wall_time);
        for (a, b) in runs[0].records.iter().zip(&runs[1].records) {
            assert_eq!(a.times, b.times);
            assert!(runs[0].failures(a).eq(runs[1].failures(b)));
        }
        assert_eq!(runs[0].faults(), runs[1].faults());
        // The typed provenance stream is part of the deterministic
        // surface: same seed + same plan write byte-identical event
        // logs, and the log replays back to the run exactly.
        assert_eq!(
            pegasus_wms::events::log::write(&runs[0].events),
            pegasus_wms::events::log::write(&runs[1].events)
        );
        let replayed = pegasus_wms::events::replay(&runs[0].events).unwrap();
        assert_eq!(&replayed, &runs[0]);
    }

    #[test]
    fn blackout_evicts_and_capacity_returns() {
        use crate::faults::{FaultPlan, FaultScript};
        // Both slots black out at t=20 for 100s: the two running jobs
        // are evicted, wait out the window, and finish after it.
        let plan =
            FaultPlan::parse("slot-blackout start=20 duration=100 first-slot=0 count=2\n").unwrap();
        let p = PlatformModel::uniform("t", 2, 1.0);
        let mut be = SimBackend::new(p, 1).with_faults(FaultScript::new(plan, 1));
        let wf = independent(vec![job(0, 50.0, 0.0), job(1, 50.0, 0.0)]);
        let run = run_workflow(&wf, &mut be, &EngineConfig::builder().retries(5).build());
        assert!(run.succeeded());
        assert_eq!(run.faults().evictions, 2);
        for rec in &run.records {
            let failures: Vec<_> = run.failures(rec).collect();
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].detail, "evicted:blackout");
            // Retried attempts could only start once the blackout lifted.
            assert!(rec.times.unwrap().finished >= 120.0 + 50.0);
        }
        assert_eq!(run.wall_time, 170.0);
    }

    #[test]
    fn timeout_kills_stragglers_for_resubmission() {
        use crate::faults::{FaultPlan, FaultScript};
        // Every attempt started in [0, 10) runs 100x slower; the 80s
        // timeout kills it and the retry (outside the window) succeeds.
        let plan = FaultPlan::parse("straggler start=0 duration=10 slowdown=100 probability=1.0\n")
            .unwrap();
        let p = PlatformModel::uniform("t", 1, 1.0);
        let mut be = SimBackend::new(p, 1).with_faults(FaultScript::new(plan, 2));
        let wf = independent(vec![job(0, 50.0, 0.0)]);
        let cfg = EngineConfig::builder()
            .policy(retry_with_timeout(3, 80.0))
            .build();
        let run = run_workflow(&wf, &mut be, &cfg);
        assert!(run.succeeded());
        let failures: Vec<_> = run.failures(&run.records[0]).collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].reason, FaultReason::Timeout);
        assert_eq!(failures[0].detail, "timeout: exceeded 80s");
        assert_eq!(run.faults().timeouts, 1);
        // killed at 80, retried, ran clean for 50.
        assert_eq!(run.wall_time, 130.0);
    }

    fn retry_with_timeout(retries: u32, timeout: f64) -> pegasus_wms::engine::RetryPolicy {
        pegasus_wms::engine::RetryPolicy::flat(retries).with_timeout(timeout)
    }

    #[test]
    fn backoff_delay_is_honoured_in_sim_time() {
        use pegasus_wms::engine::RetryPolicy;
        // Force one scripted install failure, then retry with a 40s
        // backoff: the second attempt's submission is stamped 40s
        // after the first failure.
        use crate::faults::{FaultPlan, FaultScript};
        let plan =
            FaultPlan::parse("install-failure-burst start=0 duration=1 fail-probability=1.0\n")
                .unwrap();
        let p = PlatformModel::uniform("t", 1, 1.0);
        let mut be = SimBackend::new(p, 1).with_faults(FaultScript::new(plan, 3));
        let wf = independent(vec![job(0, 30.0, 10.0)]);
        let policy = RetryPolicy::exponential(2, 40.0);
        let run = run_workflow(
            &wf,
            &mut be,
            &EngineConfig::builder().policy(policy).build(),
        );
        assert!(run.succeeded());
        let rec = &run.records[0];
        assert_eq!(run.faults().install_failures, 1);
        let failed_at = run.failures(rec).next().unwrap().times.finished;
        let resubmitted = rec.times.unwrap().submitted;
        assert_eq!(resubmitted, failed_at + 40.0);
        assert_eq!(run.faults().backoff_wait, 40.0);
    }

    #[test]
    #[should_panic(expected = "no slots")]
    fn zero_slot_platform_panics_on_submit() {
        let p = PlatformModel {
            slots: vec![],
            ..PlatformModel::uniform("none", 1, 1.0)
        };
        let mut be = SimBackend::new(p, 1);
        let j = job(0, 1.0, 0.0);
        be.submit(&j, 0);
    }
}
