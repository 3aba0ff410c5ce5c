//! `run-sandhills-100k`: the `pegasus run` journey on one big DAG.
//!
//! Fig. 2 at n = 10^5 arrives as DAX text, is parsed, planned for
//! Sandhills, simulated without faults, its event log written and its
//! statistics rendered. The front end dominates (parse, then plan), so
//! this is where interning, a zero-copy tokenizer and planner fixes
//! show, and where a fold or daemon change must read "no change".

use crate::harness::{fnv1a, heavy_tailed_costs, Bench, ProfPair, Protocol, Workload, FNV_BASIS};
use blast2cap3::workflow::{build_workflow, fig2_job_count, WorkflowParams};
use gridsim::platforms::sandhills;
use gridsim::SimBackend;
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog, SiteCatalog, TransformationCatalog};
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor, WorkflowRun};
use pegasus_wms::planner::{plan, JobKind, PlannerConfig};
use pegasus_wms::{dax, events, statistics};

pub const NAME: &str = "run-sandhills-100k";
pub const N: usize = 100_000;

/// The two submit-host inputs of the paper's workflow.
pub fn paper_replicas() -> ReplicaCatalog {
    let mut rc = ReplicaCatalog::new();
    rc.register("transcripts.fasta", "submit");
    rc.register("alignments.out", "submit");
    rc
}

pub struct RunSandhills {
    /// The write → parse → replay round trip is checked on the first
    /// repetition only; it costs more than the journey.
    round_trip_checked: bool,
}

impl RunSandhills {
    pub fn new() -> Self {
        RunSandhills {
            round_trip_checked: false,
        }
    }
}

pub struct State {
    dax_text: String,
    sites: SiteCatalog,
    tc: TransformationCatalog,
    rc: ReplicaCatalog,
}

pub struct Output {
    compute_jobs: usize,
    jobs: usize,
    run: WorkflowRun,
    backend: SimBackend,
    log: String,
    csv: String,
}

/// Counts of one planned and simulated DAG, at the boundaries where
/// the work happens. Shared with the storm set-up of
/// `analyze-osg-storm-100k`, which runs the same layers.
pub fn simulation_counts(
    b: &mut Bench,
    jobs: usize,
    run: &WorkflowRun,
    backend: &SimBackend,
    log_bytes: usize,
) {
    b.metric("planner.jobs", jobs as f64);
    b.metric("engine.events", run.events.len() as f64);
    b.metric("engine.retries", f64::from(run.total_retries()));
    b.metric("gridsim.preemptions", backend.preemptions() as f64);
    b.metric(
        "gridsim.peak_queue_depth",
        backend.queue_stats().peak_depth as f64,
    );
    b.metric("events.log_bytes", log_bytes as f64);
}

/// The rates that go with [`simulation_counts`], from the spans of the
/// traced run.
pub fn simulation_rates(b: &mut Bench) {
    let (jobs, events, log_mb) = (
        b.get("planner.jobs"),
        b.get("engine.events"),
        b.get("events.log_bytes") / 1e6,
    );
    let seconds = |b: &Bench, span: &str| b.rec.fastest_seconds(span);
    b.rate("planner.jobs_per_s", jobs, seconds(b, "planner.plan"));
    b.rate("engine.events_per_s", events, seconds(b, "engine.simulate"));
    b.rate(
        "events.log_write_mb_per_s",
        log_mb,
        seconds(b, "events.log_write"),
    );
}

impl Workload for RunSandhills {
    type State = State;
    type Output = Output;

    const PROTOCOL: Protocol = Protocol {
        setups: 3,
        warm_up: true,
        min_reps: 5,
        traced_reps: 3,
        setup_per_rep: false,
    };
    const PROF_JOURNEY: &'static [ProfPair] = &[
        ("dax.parse", "dax.parse"),
        ("plan", "planner.plan"),
        ("engine.run", "engine.simulate"),
    ];

    /// Generates the DAX text a user would hand to `pegasus run`.
    fn setup(&mut self, b: &mut Bench) -> State {
        let params = WorkflowParams::with_n(N).with_chunk_costs(heavy_tailed_costs(b.seed, N));
        let (sites, tc) = paper_catalogs();
        State {
            dax_text: dax::to_dax(&build_workflow(&params)),
            sites,
            tc,
            rc: paper_replicas(),
        }
    }

    fn journey(&mut self, b: &mut Bench, st: &mut State) -> Output {
        let wf = b
            .span("dax.parse", || dax::from_dax(&st.dax_text))
            .expect("generated DAX parses");
        let cfg = PlannerConfig::for_site("sandhills");
        let exec = b
            .span("planner.plan", || {
                plan(&wf, &st.sites, &st.tc, &st.rc, &cfg)
            })
            .expect("planning succeeds");
        let (backend_seed, engine_seed) = (b.subseed(2), b.subseed(3));
        let mut backend = SimBackend::new(sandhills(), backend_seed);
        let engine_cfg = EngineConfig::builder().retries(3).seed(engine_seed).build();
        let run = b.span("engine.simulate", || {
            Engine::run(&mut backend, &exec, &engine_cfg, &mut NoopMonitor)
        });
        let log = b.span("events.log_write", || events::log::write(&run.events));
        let csv = b.span("statistics.compute", || {
            statistics::render_csv(&statistics::compute(&run))
        });
        let compute_jobs = exec
            .jobs
            .iter()
            .filter(|j| j.kind == JobKind::Compute)
            .count();
        let jobs = exec.jobs.len();
        // `pegasus run` frees both before it exits; at this size that
        // is a tenth of a second, owed to the layers that allocated.
        b.span("dax.drop", || drop(wf));
        b.span("planner.drop", || drop(exec));
        Output {
            compute_jobs,
            jobs,
            run,
            backend,
            log,
            csv,
        }
    }

    fn check(&mut self, b: &mut Bench, st: &State, out: Output) -> u64 {
        b.units = out.jobs as f64;
        b.check("engine run succeeded", out.run.succeeded());
        b.check(
            "job count is Fig. 2 plus planner auxiliaries",
            out.compute_jobs == fig2_job_count(N) && out.jobs > out.compute_jobs,
        );
        b.check(
            "a fault-free run emits 4 events per job plus 2",
            out.run.events.len() == 4 * out.jobs + 2,
        );
        if !self.round_trip_checked {
            self.round_trip_checked = true;
            let replayed = events::log::parse(&out.log).and_then(|evs| events::replay(&evs));
            b.check(
                "replay(parse(write(events))) == run",
                matches!(replayed, Ok(r) if r == out.run),
            );
        }
        b.metric("dax.bytes", st.dax_text.len() as f64);
        simulation_counts(b, out.jobs, &out.run, &out.backend, out.log.len());
        fnv1a(fnv1a(FNV_BASIS, out.log.as_bytes()), out.csv.as_bytes())
    }

    fn layers(&mut self, b: &mut Bench, st: &mut State) {
        let parse_s = b.rec.fastest_seconds("dax.parse");
        b.rate(
            "dax.parse_mb_per_s",
            st.dax_text.len() as f64 / 1e6,
            parse_s,
        );
        simulation_rates(b);
    }
}
