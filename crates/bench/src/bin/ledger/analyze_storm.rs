//! `analyze-osg-storm-100k`: the offline-provenance journey.
//!
//! Set-up plans Fig. 2 at n = 10^5 for OSG and simulates it under a
//! preemption storm, which is where retries, installs and evictions
//! put the event volume (about 7.4 events per job). The timed part is
//! what `statistics/breakdown/metrics/trace/verify/lint --from-events`
//! do with that log: parse it, replay it, run every fold. No DAX and
//! no planning is timed, so a front-end change must read "no change".

use crate::harness::{fnv1a, heavy_tailed_costs, Bench, ProfPair, Protocol, Workload, FNV_BASIS};
use crate::run_sandhills::{paper_replicas, simulation_counts, simulation_rates, N};
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use condor::joblog::JobLogMonitor;
use gridsim::platforms::osg;
use gridsim::{FaultPlan, FaultScript, SimBackend};
use pegasus_wms::catalog::paper_catalogs;
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor, RetryPolicy, WorkflowRun};
use pegasus_wms::events::WorkflowEvent;
use pegasus_wms::metrics::MetricsRegistry;
use pegasus_wms::planner::{plan, ExecutableJob, PlannerConfig};
use pegasus_wms::trace::TraceId;
use pegasus_wms::{breakdown, events, lint, statistics, trace, verify};

pub const NAME: &str = "analyze-osg-storm-100k";

const STORM: &str = "plan ledger-storm\n\
                     preemption-storm start=3000 duration=1000000 kill-probability=0.5\n";

pub struct AnalyzeStorm;

pub struct State {
    log: String,
    log_digest: u64,
    live: WorkflowRun,
    live_csv: String,
    jobs: Vec<ExecutableJob>,
    retry: RetryPolicy,
    trace_id: TraceId,
}

pub struct Output {
    events: Vec<WorkflowEvent>,
    replayed: WorkflowRun,
    csv: String,
    breakdown_csv: String,
    exposition: String,
    chrome_bytes: usize,
    diagnostics: usize,
    joblog_events: usize,
}

impl Workload for AnalyzeStorm {
    type State = State;
    type Output = Output;

    const PROTOCOL: Protocol = Protocol {
        setups: 3,
        warm_up: true,
        min_reps: 5,
        traced_reps: 3,
        setup_per_rep: false,
    };
    const PROF_SETUP: &'static [ProfPair] =
        &[("plan", "planner.plan"), ("engine.run", "engine.simulate")];

    /// Produces the event log of a stormy OSG run, and keeps the live
    /// run to compare the offline results against.
    fn setup(&mut self, b: &mut Bench) -> State {
        let params = WorkflowParams::with_n(N).with_chunk_costs(heavy_tailed_costs(b.seed, N));
        let wf = build_workflow(&params);
        let (sites, tc) = paper_catalogs();
        let cfg = PlannerConfig::for_site("osg");
        let exec = b
            .span("planner.plan", || {
                plan(&wf, &sites, &tc, &paper_replicas(), &cfg)
            })
            .expect("planning succeeds");
        drop(wf);

        let (backend_seed, engine_seed, script_seed) = (b.subseed(2), b.subseed(3), b.subseed(4));
        let retry = RetryPolicy::exponential(30, 60.0);
        let engine_cfg = EngineConfig::builder()
            .policy(retry.clone())
            .seed(engine_seed)
            .build();
        let script = FaultScript::new(FaultPlan::parse(STORM).expect("storm plan"), script_seed);
        let mut backend = SimBackend::new(osg(backend_seed), backend_seed).with_faults(script);
        let live = b.span("engine.simulate", || {
            Engine::run(&mut backend, &exec, &engine_cfg, &mut NoopMonitor)
        });
        b.check("engine run succeeded", live.succeeded());
        let log = b.span("events.log_write", || events::log::write(&live.events));

        b.units = live.events.len() as f64;
        simulation_counts(b, exec.jobs.len(), &live, &backend, log.len());
        State {
            log_digest: fnv1a(FNV_BASIS, log.as_bytes()),
            live_csv: statistics::render_csv(&statistics::compute(&live)),
            log,
            live,
            jobs: exec.jobs,
            retry,
            trace_id: TraceId::derive(b.seed, 0),
        }
    }

    fn journey(&mut self, b: &mut Bench, st: &mut State) -> Output {
        let events = b
            .span("events.log_parse", || events::log::parse(&st.log))
            .expect("written log parses");
        let replayed = b
            .span("events.replay", || events::replay(&events))
            .expect("parsed log replays");
        let csv = b.span("statistics.compute", || {
            statistics::render_csv(&statistics::compute(&replayed))
        });
        let breakdown_csv = b.span("breakdown.fold", || {
            let row = breakdown::from_events(&events).expect("breakdown folds");
            breakdown::render_csv(&[row])
        });
        let exposition = b.span("metrics.fold", || {
            let mut registry = MetricsRegistry::new();
            pegasus_wms::metrics::record_events(&mut registry, &events).expect("metrics fold");
            registry.render()
        });
        let tree = b
            .span("trace.fold", || trace::fold(&events, Some(st.trace_id)))
            .expect("trace folds");
        let chrome = b.span("trace.render_chrome", || {
            trace::render_chrome(std::slice::from_ref(&tree))
        });
        let numbered = b
            .span("events.parse_lines", || events::log::parse_lines(&st.log))
            .expect("written log parses");
        let opts = verify::VerifyOptions {
            slot_capacity: None,
            retry: Some(st.retry.clone()),
        };
        let mut diagnostics = b.span("verify.check_stream", || {
            verify::check_stream(&numbered, NAME, &opts)
        });
        diagnostics.extend(b.span("lint.events_pass", || lint::check_events(&numbered, NAME)));
        let joblog = b.span("joblog.from_events", || {
            JobLogMonitor::from_events(&st.jobs, &events)
        });
        for d in &diagnostics {
            eprintln!("ledger: {NAME}: unexpected diagnostic {d:?}");
        }
        let (chrome_bytes, diagnostics, joblog_events) =
            (chrome.len(), diagnostics.len(), joblog.events.len());
        // The commands free what they built before they exit; at this
        // size that takes long enough to be a stage of its own.
        b.span("analyze.free", || drop((tree, chrome, numbered, joblog)));
        Output {
            events,
            replayed,
            csv,
            breakdown_csv,
            exposition,
            chrome_bytes,
            diagnostics,
            joblog_events,
        }
    }

    fn check(&mut self, b: &mut Bench, st: &State, out: Output) -> u64 {
        b.check(
            "parsed stream == in-memory stream",
            out.events == st.live.events,
        );
        b.check("replayed run == live run", out.replayed == st.live);
        b.check("offline statistics CSV == live CSV", out.csv == st.live_csv);
        b.check(
            "check_stream and check_events are clean",
            out.diagnostics == 0,
        );
        b.check("job log has events", out.joblog_events > 0);
        b.metric("trace.chrome_bytes", out.chrome_bytes as f64);
        [&out.csv, &out.breakdown_csv, &out.exposition]
            .iter()
            .fold(st.log_digest, |h, text| fnv1a(h, text.as_bytes()))
    }

    fn layers(&mut self, b: &mut Bench, st: &mut State) {
        let parse_s = b.rec.fastest_seconds("events.log_parse");
        b.rate(
            "events.log_parse_mb_per_s",
            st.log.len() as f64 / 1e6,
            parse_s,
        );
        simulation_rates(b);
    }
}
