//! The local worker pool: a real execution backend.
//!
//! [`LocalPool`] runs planned jobs on OS threads with real wall-clock
//! timing. Compute transformations execute Rust closures registered in
//! a [`TaskRegistry`] (the blast2cap3 kernels, in this repository);
//! auxiliary jobs and unregistered transformations succeed after an
//! optional scaled sleep, so simulation-calibration experiments can
//! also run through the real machinery. A fault-injection hook
//! fabricates OSG-style preemptions to exercise the engine's retry and
//! rescue paths for real. Every failure leaves the pool typed: an
//! injected fault keeps its script's category, the engine's limit is a
//! [`FaultReason::Timeout`], and a kernel's own `Err(text)` or panic is
//! [`FaultReason::Other`] whatever the text says (`error:<text>`).

use pegasus_wms::engine::{
    CompletionEvent, ExecutionBackend, Failure, FaultReason, JobOutcome, JobTimes,
};
use pegasus_wms::planner::ExecutableJob;
use pegasus_wms::symbols::{Args, Name};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a task kernel sees about its job.
#[derive(Debug, Clone)]
pub struct TaskContext {
    /// Arguments from the abstract job.
    pub args: Args,
    /// Working directory shared by the workflow's tasks.
    pub workdir: PathBuf,
}

/// A task kernel: returns `Err(text)` to fail the attempt, which the
/// pool reports as `FaultReason::Other.tagged(text)`.
pub(crate) type TaskFn = Arc<dyn Fn(&TaskContext) -> Result<(), String> + Send + Sync>;

/// Maps transformation names to task kernels.
#[derive(Clone, Default)]
pub struct TaskRegistry {
    map: HashMap<String, TaskFn>,
}

impl TaskRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the kernel for a transformation.
    pub fn register<F>(&mut self, transformation: impl Into<String>, f: F)
    where
        F: Fn(&TaskContext) -> Result<(), String> + Send + Sync + 'static,
    {
        self.map.insert(transformation.into(), Arc::new(f));
    }

    /// Looks a kernel up.
    pub fn get(&self, transformation: &str) -> Option<&TaskFn> {
        self.map.get(transformation)
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl std::fmt::Debug for TaskRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskRegistry")
            .field("transformations", &self.map.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Pool options.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Working directory handed to task kernels.
    pub workdir: PathBuf,
    /// Real seconds slept per hinted second: per `install_hint` second,
    /// emulating the OSG download/install phase at laptop scale, and
    /// per `runtime_hint` second of a transformation with no registered
    /// kernel (0.0 = no phase is emulated and no sleep taken).
    pub time_scale: f64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            workdir: std::env::temp_dir().join("condor_pool"),
            time_scale: 0.0,
        }
    }
}

/// What the fault injector learns about an attempt before it runs.
#[derive(Debug, Clone)]
pub struct FaultProbe {
    /// Planned job name.
    pub job: Name,
    /// 0-based attempt number.
    pub attempt: u32,
    /// Attempt start, in pool-relative seconds.
    pub started: f64,
    /// Planned (scaled) install-phase sleep, real seconds.
    pub install_duration: f64,
    /// Planned (scaled) synthetic execution sleep, real seconds;
    /// zero for registered kernels, whose duration is unknown.
    pub exec_duration: f64,
}

/// One fault imposed on an attempt by a [`FaultInjector`].
#[derive(Debug, Clone)]
pub enum InjectedFault {
    /// Multiply the synthetic execution sleep (straggler emulation).
    Slowdown(f64),
    /// Fail right after the install phase with this failure.
    Fail(Failure),
    /// Evict the attempt `after` real seconds from its start. Sleeps
    /// are cut short; registered kernels run to completion and are
    /// failed post-hoc when they exceed the deadline.
    Evict {
        /// Seconds from attempt start to the eviction.
        after: f64,
        /// The failure reported to the engine.
        failure: Failure,
    },
}

/// A structured fault injector consulted once per attempt.
pub type FaultInjector = Arc<dyn Fn(&FaultProbe) -> Vec<InjectedFault> + Send + Sync>;

struct WorkItem {
    job: ExecutableJob,
    attempt: u32,
    submitted: f64,
}

/// The next job of the queue the workers share, `None` once the pool
/// has shut down. The lock is held for the wait, not for the job.
fn next_job(queue: &Mutex<mpsc::Receiver<WorkItem>>) -> Option<WorkItem> {
    queue.lock().expect("queue lock").recv().ok()
}

/// The local execution backend.
pub struct LocalPool {
    job_tx: Option<mpsc::Sender<WorkItem>>,
    done_rx: mpsc::Receiver<CompletionEvent>,
    handles: Vec<std::thread::JoinHandle<()>>,
    t0: Instant,
    /// Per-attempt wall-clock budget, shared with the workers.
    timeout: Arc<Mutex<Option<f64>>>,
    /// Worker-thread count, reported as slot capacity so an ensemble
    /// manager sharing this pool can budget admissions.
    workers: usize,
    workdir: PathBuf,
}

impl LocalPool {
    /// Starts a pool with no fault injection.
    pub fn new(config: PoolConfig, registry: TaskRegistry) -> Self {
        Self::with_fault_injector(config, registry, None)
    }

    /// Starts a pool consulting a structured fault injector once per
    /// attempt. This is how scripted chaos (preemption storms,
    /// stragglers, install bursts) reaches real thread-pool runs.
    pub fn with_fault_injector(
        config: PoolConfig,
        registry: TaskRegistry,
        injector: Option<FaultInjector>,
    ) -> Self {
        std::fs::create_dir_all(&config.workdir).ok();
        let (job_tx, job_rx) = mpsc::channel::<WorkItem>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (done_tx, done_rx) = mpsc::channel::<CompletionEvent>();
        let t0 = Instant::now();
        let registry = Arc::new(registry);
        let config = Arc::new(config);
        let timeout = Arc::new(Mutex::new(None::<f64>));
        let mut handles = Vec::with_capacity(config.workers.max(1));
        for _ in 0..config.workers.max(1) {
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let registry = Arc::clone(&registry);
            let config = Arc::clone(&config);
            let injector = injector.clone();
            let timeout = Arc::clone(&timeout);
            handles.push(std::thread::spawn(move || {
                while let Some(item) = next_job(&job_rx) {
                    let now = |t0: Instant| t0.elapsed().as_secs_f64();
                    let started = now(t0);
                    let task = registry.get(&item.job.transformation).map(Arc::clone);
                    let scale = config.time_scale;
                    let scaled = |hint: f64| {
                        if scale > 0.0 {
                            hint.max(0.0) * scale
                        } else {
                            0.0
                        }
                    };
                    let planned_install = scaled(item.job.install_hint);
                    let planned_exec = if task.is_none() {
                        scaled(item.job.runtime_hint)
                    } else {
                        0.0
                    };

                    // Consult the injector, then fold the engine's
                    // per-attempt timeout in as one more eviction.
                    let mut slowdown = 1.0_f64;
                    let mut fail_after_install: Option<Failure> = None;
                    let mut evict: Option<(f64, Failure)> = None;
                    let propose_evict =
                        |evict: &mut Option<(f64, Failure)>, after: f64, failure: Failure| {
                            if evict.as_ref().is_none_or(|(t, _)| after < *t) {
                                *evict = Some((after, failure));
                            }
                        };
                    if let Some(f) = injector.as_ref() {
                        let probe = FaultProbe {
                            job: item.job.name.clone(),
                            attempt: item.attempt,
                            started,
                            install_duration: planned_install,
                            exec_duration: planned_exec,
                        };
                        for fault in f(&probe) {
                            match fault {
                                InjectedFault::Slowdown(s) => slowdown *= s.max(0.0),
                                InjectedFault::Fail(failure) => {
                                    fail_after_install.get_or_insert(failure);
                                }
                                InjectedFault::Evict { after, failure } => {
                                    propose_evict(&mut evict, after, failure);
                                }
                            }
                        }
                    }
                    if let Some(limit) = *timeout.lock().expect("timeout lock") {
                        propose_evict(&mut evict, limit, FaultReason::timeout_exceeded(limit));
                    }
                    let deadline = evict.as_ref().map(|(after, _)| started + after);
                    let eviction = evict.map(|(_, failure)| failure);
                    // Sleeps `planned` seconds from `from`, or up to the
                    // deadline when that comes first: `true` if cut short.
                    let nap = |from: f64, planned: f64| {
                        let cut = deadline.filter(|d| *d < from + planned);
                        let sleep_for = cut.map_or(planned, |d| (d - now(t0)).max(0.0));
                        if sleep_for > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(sleep_for));
                        }
                        cut.is_some()
                    };

                    // Install phase (scaled emulation), cut short by an
                    // eviction that lands inside it. With no phase planned
                    // the clock is not read again: `install_done == started`
                    // is what says there was none.
                    let mut early_failure: Option<Failure> = None;
                    let mut install_done = started;
                    if planned_install > 0.0 {
                        if nap(started, planned_install) {
                            early_failure = eviction.clone();
                        }
                        install_done = now(t0);
                    }

                    let ctx = TaskContext {
                        args: item.job.args.clone(),
                        workdir: config.workdir.clone(),
                    };
                    let outcome = if let Some(failure) = early_failure {
                        JobOutcome::Failure(failure)
                    } else if let Some(failure) = fail_after_install {
                        JobOutcome::Failure(failure)
                    } else if let Some(task) = task {
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(&ctx)))
                        {
                            // A kernel cannot be interrupted mid-run;
                            // an overrun deadline evicts it post-hoc.
                            Ok(Ok(())) => match deadline {
                                Some(d) if now(t0) > d => JobOutcome::Failure(
                                    eviction.clone().expect("deadline implies eviction"),
                                ),
                                _ => JobOutcome::Success,
                            },
                            // The kernel's own words: never a platform
                            // category, whatever they open with.
                            Ok(Err(text)) => JobOutcome::Failure(FaultReason::Other.tagged(&text)),
                            Err(_) => {
                                JobOutcome::Failure(FaultReason::Other.tagged("task panicked"))
                            }
                        }
                    } else if nap(install_done, planned_exec * slowdown) {
                        JobOutcome::Failure(eviction.clone().expect("deadline implies eviction"))
                    } else {
                        JobOutcome::Success
                    };
                    let finished = now(t0);
                    let _ = done_tx.send(CompletionEvent {
                        job: item.job.id,
                        attempt: item.attempt,
                        outcome,
                        times: JobTimes {
                            submitted: item.submitted,
                            started,
                            install_done,
                            finished,
                        },
                    });
                }
            }));
        }
        LocalPool {
            job_tx: Some(job_tx),
            done_rx,
            handles,
            t0,
            timeout,
            workers: config.workers.max(1),
            workdir: config.workdir.clone(),
        }
    }

    /// The working directory its task kernels share.
    pub fn workdir(&self) -> &Path {
        &self.workdir
    }
}

impl ExecutionBackend for LocalPool {
    fn submit(&mut self, job: &ExecutableJob, attempt: u32) {
        let item = WorkItem {
            job: job.clone(),
            attempt,
            submitted: self.now(),
        };
        self.job_tx
            .as_ref()
            .expect("pool not shut down")
            .send(item)
            .expect("workers alive");
    }

    fn wait_any(&mut self) -> CompletionEvent {
        self.done_rx.recv().expect("workers alive")
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn set_timeout(&mut self, timeout: Option<f64>) {
        *self.timeout.lock().expect("timeout lock") = timeout;
    }

    fn slot_capacity(&self) -> Option<usize> {
        Some(self.workers)
    }
}

impl Drop for LocalPool {
    fn drop(&mut self) {
        self.job_tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor, WorkflowRun};
    use pegasus_wms::planner::{ExecutableWorkflow, JobKind};
    use pegasus_wms::rescue::RescueDag;

    fn run_workflow(
        wf: &ExecutableWorkflow,
        pool: &mut LocalPool,
        cfg: &EngineConfig,
    ) -> WorkflowRun {
        Engine::run(pool, wf, cfg, &mut NoopMonitor)
    }
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn job(id: usize, name: &str, transformation: &str) -> ExecutableJob {
        ExecutableJob {
            id: pegasus_wms::workflow::JobId::new(id),
            name: name.into(),
            transformation: transformation.into(),
            kind: JobKind::Compute,
            args: Default::default(),
            runtime_hint: 0.0,
            install_hint: 0.0,
        }
    }

    /// A workflow of `jobs` with no edges between them.
    fn independent(site: &str, jobs: Vec<ExecutableJob>) -> ExecutableWorkflow {
        ExecutableWorkflow {
            name: "w".into(),
            site: site.into(),
            jobs,
            edges: vec![],
        }
    }

    fn pool_config() -> PoolConfig {
        PoolConfig {
            workers: 4,
            workdir: std::env::temp_dir().join("condor_pool_tests"),
            ..Default::default()
        }
    }

    #[test]
    fn executes_registered_kernels() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let mut reg = TaskRegistry::new();
        reg.register("touch", |_ctx| {
            COUNT.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let wf = independent(
            "local",
            (0..5).map(|i| job(i, &format!("t{i}"), "touch")).collect(),
        );
        let mut pool = LocalPool::new(pool_config(), reg);
        let run = run_workflow(&wf, &mut pool, &EngineConfig::default());
        assert!(run.succeeded());
        assert_eq!(COUNT.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn kernel_receives_context() {
        let (tx, rx) = mpsc::channel::<(Args, PathBuf)>();
        let mut reg = TaskRegistry::new();
        reg.register("ctx", move |ctx| {
            tx.send((ctx.args.clone(), ctx.workdir.clone())).unwrap();
            Ok(())
        });
        let mut j = job(0, "the_job", "ctx");
        j.args = vec!["-n".into(), "300".into()].into();
        let wf = independent("local", vec![j]);
        let mut pool = LocalPool::new(pool_config(), reg);
        let run = run_workflow(&wf, &mut pool, &EngineConfig::default());
        assert!(run.succeeded());
        let (args, workdir) = rx.recv().unwrap();
        assert_eq!(args, vec!["-n", "300"]);
        assert_eq!(workdir, pool_config().workdir);
    }

    #[test]
    fn unregistered_transformations_succeed() {
        let wf = independent("local", vec![job(0, "aux", "pegasus::dirmanager")]);
        let mut pool = LocalPool::new(pool_config(), TaskRegistry::new());
        let run = run_workflow(&wf, &mut pool, &EngineConfig::default());
        assert!(run.succeeded());
    }

    #[test]
    fn task_errors_become_failures_and_retries_work() {
        static ATTEMPTS: AtomicUsize = AtomicUsize::new(0);
        let mut reg = TaskRegistry::new();
        reg.register("flaky", |_| {
            if ATTEMPTS.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("transient".into())
            } else {
                Ok(())
            }
        });
        let wf = independent("local", vec![job(0, "f", "flaky")]);
        let mut pool = LocalPool::new(pool_config(), reg);
        let run = run_workflow(&wf, &mut pool, &EngineConfig::builder().retries(3).build());
        assert!(run.succeeded());
        assert_eq!(ATTEMPTS.load(Ordering::SeqCst), 3);
        assert_eq!(run.failures(&run.records[0]).count(), 2);
    }

    #[test]
    fn kernel_failures_land_as_labelled_fault_counters() {
        use pegasus_wms::metrics::{names, MetricsMonitor, MetricsRegistry};
        static ATTEMPTS: AtomicUsize = AtomicUsize::new(0);
        let mut reg = TaskRegistry::new();
        reg.register("flaky", |_| {
            if ATTEMPTS.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("transient".into())
            } else {
                Ok(())
            }
        });
        let wf = independent("local", vec![job(0, "f", "flaky")]);
        let mut pool = LocalPool::new(pool_config(), reg);
        let mut registry = MetricsRegistry::new();
        let run = {
            let mut mon = MetricsMonitor::new(&mut registry, "local", "1");
            Engine::run(
                &mut pool,
                &wf,
                &EngineConfig::builder().retries(3).build(),
                &mut mon,
            )
        };
        assert!(run.succeeded());
        let labels = [("site", "local"), ("n", "1"), ("reason", "error")];
        assert_eq!(registry.value(names::FAILURES, &labels), Some(2.0));
        assert_eq!(registry.value(names::RETRIES, &labels), Some(2.0));
        assert!(registry
            .render()
            .contains("pegasus_job_failures_total{n=\"1\",reason=\"error\",site=\"local\"} 2"));
    }

    #[test]
    fn panics_are_contained_as_failures() {
        let mut reg = TaskRegistry::new();
        reg.register("boom", |_ctx| panic!("kaboom"));
        let wf = independent("local", vec![job(0, "b", "boom")]);
        let mut pool = LocalPool::new(pool_config(), reg);
        let run = run_workflow(&wf, &mut pool, &EngineConfig::default());
        assert!(!run.succeeded());
        assert!(RescueDag::of(&run).done.is_empty());
        let failure = run.failures(&run.records[0]).next().unwrap();
        assert_eq!(failure.reason, FaultReason::Other);
        assert_eq!(failure.detail, "error:task panicked");
    }

    #[test]
    fn a_kernels_own_error_text_is_never_a_platform_category() {
        // Each kernel's message opens with another category's wire
        // prefix. Read back out of the text, the first would be two
        // timeouts under a policy that has no timeout; stated by the
        // pool, all four are task errors.
        use crate::joblog::JobLogMonitor;
        use pegasus_wms::events::{log, WorkflowEvent};
        use pegasus_wms::metrics::{names, MetricsMonitor, MetricsRegistry};
        use pegasus_wms::verify::{check_stream, VerifyOptions};
        for text in [
            "timeout talking to the database",
            "preempted by a sibling process",
            "evicted from the cache",
            "install directory missing",
        ] {
            let mut reg = TaskRegistry::new();
            reg.register("db", move |_ctx| Err(text.into()));
            let wf = independent("local", vec![job(0, "q", "db")]);
            let mut pool = LocalPool::new(pool_config(), reg);
            let mut registry = MetricsRegistry::new();
            let run = {
                let mut mon = MetricsMonitor::new(&mut registry, "local", "1");
                let cfg = EngineConfig::builder().retries(1).build();
                Engine::run(&mut pool, &wf, &cfg, &mut mon)
            };
            assert!(!run.succeeded());
            assert_eq!(run.faults().other_failures, 2, "{text}");
            assert_eq!(run.faults().total_failures(), 2, "{text}");
            assert_eq!(run.faults().timeouts, 0, "{text}");

            let written = log::write(&run.events);
            let failed: Vec<&str> = (written.lines())
                .filter(|l| l.starts_with("failed "))
                .collect();
            assert_eq!(failed.len(), 2, "{written}");
            let detail = format!(" detail=error:{text}");
            for l in failed {
                assert!(l.contains(" reason=error ") && l.ends_with(&detail), "{l}");
            }
            assert!(!written.contains("timed-out"), "{written}");
            assert!(run
                .events
                .iter()
                .all(|ev| !matches!(ev, WorkflowEvent::TimedOut { .. })));

            let labels = [("site", "local"), ("n", "1"), ("reason", "error")];
            assert_eq!(registry.value(names::FAILURES, &labels), Some(2.0));
            assert!(registry
                .render()
                .contains("pegasus_job_failures_total{n=\"1\",reason=\"error\",site=\"local\"} 2"));

            let joblog = JobLogMonitor::from_events(&wf.jobs, &run.events);
            assert!(
                joblog.events.iter().any(|e| e.note.contains(text)),
                "{text}"
            );

            let parsed = log::parse_lines(&written).expect("written logs parse");
            let diags = check_stream(&parsed, "pool.events", &VerifyOptions::default());
            assert!(diags.is_empty(), "{text}: {diags:?}");
        }
    }

    #[test]
    fn fault_injector_simulates_preemption() {
        let injector: FaultInjector = Arc::new(|probe: &FaultProbe| {
            if probe.job == "victim" && probe.attempt == 0 {
                vec![InjectedFault::Fail(FaultReason::Preemption.bare())]
            } else {
                vec![]
            }
        });
        let wf = independent("osg", vec![job(0, "victim", "anything")]);
        let mut pool =
            LocalPool::with_fault_injector(pool_config(), TaskRegistry::new(), Some(injector));
        let run = run_workflow(&wf, &mut pool, &EngineConfig::builder().retries(1).build());
        assert!(run.succeeded());
        assert_eq!(run.records[0].attempts, 2);
        assert_eq!(
            run.failures(&run.records[0]).next().unwrap().detail,
            "preempted"
        );
        assert_eq!(run.faults().preemptions, 1);
    }

    #[test]
    fn fault_injector_evicts_synthetic_sleeps_early() {
        // A 500ms synthetic job is evicted 50ms in: the attempt fails
        // with the injected reason and takes nowhere near its full
        // runtime; the retry is left alone and succeeds.
        let injector: FaultInjector = Arc::new(|probe: &FaultProbe| {
            if probe.attempt == 0 {
                vec![InjectedFault::Evict {
                    after: 0.05,
                    failure: FaultReason::Preemption.tagged("storm"),
                }]
            } else {
                vec![]
            }
        });
        let mut cfg = pool_config();
        cfg.workers = 1;
        cfg.time_scale = 0.1;
        let mut j = job(0, "victim", "unregistered");
        j.runtime_hint = 5.0; // 500ms
        let wf = independent("osg", vec![j]);
        let mut pool = LocalPool::with_fault_injector(cfg, TaskRegistry::new(), Some(injector));
        let run = run_workflow(&wf, &mut pool, &EngineConfig::builder().retries(2).build());
        assert!(run.succeeded());
        let failures: Vec<_> = run.failures(&run.records[0]).collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].detail, "preempted:storm");
        let evicted = &failures[0].times;
        assert!(
            evicted.finished - evicted.started < 0.3,
            "eviction must cut the 500ms sleep short, took {}",
            evicted.finished - evicted.started
        );
        assert_eq!(run.faults().preemptions, 1);
    }

    #[test]
    fn fault_injector_slows_stragglers_down() {
        let injector: FaultInjector = Arc::new(|probe: &FaultProbe| {
            if probe.job == "slow" {
                vec![InjectedFault::Slowdown(4.0)]
            } else {
                vec![]
            }
        });
        let mut cfg = pool_config();
        cfg.time_scale = 0.01;
        let mut fast = job(0, "fast", "unregistered");
        fast.runtime_hint = 5.0; // 50ms
        let mut slow = job(1, "slow", "unregistered");
        slow.runtime_hint = 5.0; // 50ms * 4 = 200ms
        let wf = independent("osg", vec![fast, slow]);
        let mut pool = LocalPool::with_fault_injector(cfg, TaskRegistry::new(), Some(injector));
        let run = run_workflow(&wf, &mut pool, &EngineConfig::default());
        assert!(run.succeeded());
        let t_fast = run.records[0].times.unwrap().kickstart();
        let t_slow = run.records[1].times.unwrap().kickstart();
        assert!(t_slow > t_fast * 2.0, "fast {t_fast}, slow {t_slow}");
    }

    #[test]
    fn engine_timeout_kills_and_resubmits_synthetic_stragglers() {
        use pegasus_wms::engine::RetryPolicy;
        // First attempt would sleep 400ms; an 80ms timeout kills it.
        // The injector only slows attempt 0, so the retry finishes.
        let injector: FaultInjector = Arc::new(|probe: &FaultProbe| {
            if probe.attempt == 0 {
                vec![InjectedFault::Slowdown(8.0)]
            } else {
                vec![]
            }
        });
        let mut cfg = pool_config();
        cfg.workers = 1;
        cfg.time_scale = 0.01;
        let mut j = job(0, "straggler", "unregistered");
        j.runtime_hint = 5.0; // 50ms clean, 400ms slowed
        let wf = independent("osg", vec![j]);
        let mut pool = LocalPool::with_fault_injector(cfg, TaskRegistry::new(), Some(injector));
        let policy = RetryPolicy::flat(2).with_timeout(0.08);
        let run = run_workflow(
            &wf,
            &mut pool,
            &EngineConfig::builder().policy(policy).build(),
        );
        assert!(run.succeeded());
        let failures: Vec<_> = run.failures(&run.records[0]).collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].reason, FaultReason::Timeout);
        assert_eq!(failures[0].detail, "timeout: exceeded 0.08s");
        assert_eq!(run.faults().timeouts, 1);
    }

    #[test]
    fn install_phase_eviction_reports_before_execution() {
        // Eviction lands inside a 300ms install phase: the attempt
        // fails without ever reaching its kernel.
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let mut reg = TaskRegistry::new();
        reg.register("guarded", |_ctx| {
            RAN.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let injector: FaultInjector = Arc::new(|probe: &FaultProbe| {
            if probe.attempt == 0 {
                vec![InjectedFault::Evict {
                    after: 0.05,
                    failure: FaultReason::InstallFailure.tagged("burst"),
                }]
            } else {
                vec![]
            }
        });
        let mut cfg = pool_config();
        cfg.workers = 1;
        cfg.time_scale = 0.1;
        let mut j = job(0, "g", "guarded");
        j.install_hint = 3.0; // 300ms
        let wf = independent("osg", vec![j]);
        let mut pool = LocalPool::with_fault_injector(cfg, reg, Some(injector));
        let run = run_workflow(&wf, &mut pool, &EngineConfig::builder().retries(1).build());
        assert!(run.succeeded());
        assert_eq!(
            RAN.load(Ordering::SeqCst),
            1,
            "kernel must run only on the clean retry"
        );
        let failures: Vec<_> = run.failures(&run.records[0]).collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].detail, "install:burst");
        assert_eq!(run.faults().install_failures, 1);
    }

    #[test]
    fn dependency_order_is_respected_under_parallel_workers() {
        let (tx, rx) = mpsc::channel::<Name>();
        let mut reg = TaskRegistry::new();
        reg.register("log", move |ctx| {
            tx.send(ctx.args[0].clone()).unwrap();
            Ok(())
        });
        // a -> b -> c must serialize even with 4 workers.
        let logging = |id, name: &str| ExecutableJob {
            args: vec![name.into()].into(),
            ..job(id, name, "log")
        };
        let wf = ExecutableWorkflow {
            name: "w".into(),
            site: "local".into(),
            jobs: vec![logging(0, "a"), logging(1, "b"), logging(2, "c")],
            edges: vec![
                (
                    pegasus_wms::workflow::JobId::new(0),
                    pegasus_wms::workflow::JobId::new(1),
                ),
                (
                    pegasus_wms::workflow::JobId::new(1),
                    pegasus_wms::workflow::JobId::new(2),
                ),
            ],
        };
        let mut pool = LocalPool::new(pool_config(), reg);
        let run = run_workflow(&wf, &mut pool, &EngineConfig::default());
        assert!(run.succeeded());
        let order: Vec<Name> = rx.try_iter().collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn wide_fanout_uses_parallel_workers() {
        // 4 tasks sleeping 100ms on 4 workers should take well under
        // 400ms total.
        let mut reg = TaskRegistry::new();
        reg.register("sleep", |_ctx| {
            std::thread::sleep(Duration::from_millis(100));
            Ok(())
        });
        let wf = independent(
            "local",
            (0..4).map(|i| job(i, &format!("s{i}"), "sleep")).collect(),
        );
        let mut pool = LocalPool::new(pool_config(), reg);
        let run = run_workflow(&wf, &mut pool, &EngineConfig::default());
        assert!(run.succeeded());
        assert!(
            run.wall_time < 0.35,
            "expected parallel execution, wall={}",
            run.wall_time
        );
        // Kickstart of each task is ~0.1s and accounted per job.
        for rec in &run.records {
            let t = rec.times.unwrap();
            assert!(t.kickstart() >= 0.09, "kickstart {}", t.kickstart());
        }
    }

    #[test]
    fn times_are_monotone() {
        let mut reg = TaskRegistry::new();
        reg.register("quick", |_ctx| Ok(()));
        let wf = independent("local", vec![job(0, "q", "quick")]);
        let mut pool = LocalPool::new(pool_config(), reg);
        let run = run_workflow(&wf, &mut pool, &EngineConfig::default());
        let t = run.records[0].times.unwrap();
        assert!(t.submitted <= t.started);
        assert!(t.started <= t.install_done);
        assert!(t.install_done <= t.finished);
        assert!(t.waiting() >= 0.0 && t.install() >= 0.0 && t.kickstart() >= 0.0);
    }

    #[test]
    fn install_phase_is_reported_only_when_one_was_planned() {
        use pegasus_wms::events::WorkflowEvent;
        // The job carries an install hint either way; only the pool's
        // scale decides whether a phase is emulated. Without one the
        // attempt's `install_done` is its `started`, not a second clock
        // reading a few hundred nanoseconds later.
        for (scale, expected) in [(0.0, 0), (0.01, 1)] {
            let mut cfg = pool_config();
            cfg.time_scale = scale;
            let mut reg = TaskRegistry::new();
            reg.register("quick", |_ctx| Ok(()));
            let mut j = job(0, "q", "quick");
            j.install_hint = 2.0; // 20ms when scaled
            let wf = independent("local", vec![j]);
            let mut pool = LocalPool::new(cfg, reg);
            let run = run_workflow(&wf, &mut pool, &EngineConfig::default());
            assert!(run.succeeded());
            let installs = (run.events.iter())
                .filter(|ev| matches!(ev, WorkflowEvent::InstallStarted { .. }))
                .count();
            assert_eq!(installs, expected, "time_scale = {scale}");
            let t = run.records[0].times.unwrap();
            assert_eq!(t.install() > 0.0, expected == 1, "install {}", t.install());
        }
    }

    #[test]
    fn synthetic_sleep_scales_install_and_runtime() {
        let mut cfg = pool_config();
        cfg.workers = 1;
        cfg.time_scale = 0.01; // 10ms per hint second
        let mut j = job(0, "synthetic", "unregistered");
        j.runtime_hint = 5.0; // 50ms
        j.install_hint = 5.0; // 50ms
        let wf = independent("local", vec![j]);
        let mut pool = LocalPool::new(cfg, TaskRegistry::new());
        let run = run_workflow(&wf, &mut pool, &EngineConfig::default());
        let t = run.records[0].times.unwrap();
        assert!(t.install() >= 0.04, "install {}", t.install());
        assert!(t.kickstart() >= 0.04, "kickstart {}", t.kickstart());
    }
}
