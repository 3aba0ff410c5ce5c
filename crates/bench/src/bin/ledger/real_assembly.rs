//! `real-assembly-3k`: the paper's own experiment at laptop scale, in
//! real wall-clock time.
//!
//! A synthetic transcriptome of 3000 gene families is searched with
//! blastx against its protein database, the hits and transcripts are
//! written to files, and the Fig. 2 workflow (64 chunks) runs the real
//! `list/split/run_cap3/merge/extract` kernels on condor's local pool.
//! Same engine as the simulated workloads, different backend (threads
//! and files, not the calendar queue), and the only workload in which
//! `blastx`, `cap3`, `bioseq` and `condor` do any work: a gridsim-only
//! speed-up must read "no change" here.

use crate::harness::{fnv1a, Bench, ProfPair, Protocol, Workload, FNV_BASIS};
use bioseq::fasta::{self, Record};
use bioseq::seq::DnaSeq;
use bioseq::simulate::{generate, TranscriptomeConfig};
use blast2cap3::files::names;
use blast2cap3::serial::run_serial;
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::build_registry;
use blastx::tabular::TabularRecord;
use blastx::{SearchParams, Searcher};
use cap3::Cap3Params;
use condor::pool::{LocalPool, PoolConfig, TaskContext, TaskRegistry};
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor, WorkflowRun};
use pegasus_wms::planner::{plan, PlannerConfig};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

pub const NAME: &str = "real-assembly-3k";

const FAMILIES: usize = 3000;
const CHUNKS: usize = 64;
/// Search threads and pool workers: all load comes from one process
/// with no more threads than the two cores the benchmark is sized for.
const WORKERS: usize = 2;

/// The six transformations and the layer span each kernel records.
const KERNELS: [(&str, &str); 6] = [
    ("list_transcripts", "blast2cap3.list_transcripts"),
    ("list_alignments", "blast2cap3.list_alignments"),
    ("split", "blast2cap3.split"),
    ("run_cap3", "cap3.run_cap3"),
    ("merge", "blast2cap3.merge"),
    ("extract_unjoined", "blast2cap3.extract_unjoined"),
];

/// Kernel calls timed on the pool's worker threads.
#[derive(Default)]
struct KernelLog {
    threads: Vec<ThreadId>,
    calls: Vec<(&'static str, Instant, Instant, u32)>,
}

/// The program's task registry with every kernel wrapped in a timer.
fn timed_registry(log: &Arc<Mutex<KernelLog>>) -> TaskRegistry {
    let plain = build_registry(Cap3Params::default());
    let mut timed = TaskRegistry::new();
    for (transformation, span) in KERNELS {
        let kernel = plain
            .get(transformation)
            .expect("kernel registered")
            .clone();
        let log = Arc::clone(log);
        timed.register(transformation, move |ctx: &TaskContext| {
            let start = Instant::now();
            let result = kernel(ctx);
            let end = Instant::now();
            let mut log = log.lock().expect("no kernel panics holding the log");
            let me = std::thread::current().id();
            let thread = match log.threads.iter().position(|t| *t == me) {
                Some(i) => i,
                None => {
                    log.threads.push(me);
                    log.threads.len() - 1
                }
            };
            log.calls.push((span, start, end, thread as u32 + 1));
            result
        });
    }
    timed
}

pub struct RealAssembly {
    /// Sequences of the serial reference assembly, computed once.
    reference: Option<BTreeSet<Vec<u8>>>,
    reps: usize,
}

impl RealAssembly {
    pub fn new() -> Self {
        RealAssembly {
            reference: None,
            reps: 0,
        }
    }
}

pub struct State {
    transcripts: Vec<Record>,
    queries: Vec<(String, DnaSeq)>,
    searcher: Searcher,
}

pub struct Output {
    alignments: Vec<TabularRecord>,
    run: WorkflowRun,
    final_records: Vec<Record>,
}

impl Workload for RealAssembly {
    type State = State;
    type Output = Output;

    const PROTOCOL: Protocol = Protocol {
        setups: 9,
        warm_up: true,
        min_reps: 5,
        traced_reps: 3,
        setup_per_rep: false,
    };
    const PROF_JOURNEY: &'static [ProfPair] =
        &[("plan", "planner.plan"), ("engine.run", "condor.engine_run")];

    /// Generates the transcriptome and indexes its protein database.
    fn setup(&mut self, b: &mut Bench) -> State {
        let cfg = TranscriptomeConfig {
            n_families: FAMILIES,
            family_size_mean: 4.0,
            family_size_cap: 16,
            ..TranscriptomeConfig::tiny(b.subseed(6))
        };
        let data = b.span("bioseq.generate", || generate(&cfg));
        let searcher = b
            .span("blastx.index", || {
                Searcher::new(data.proteins, SearchParams::default())
            })
            .expect("the database is not empty");
        State {
            queries: data
                .transcripts
                .iter()
                .map(|r| (r.id.clone(), r.seq.clone()))
                .collect(),
            transcripts: data.transcripts,
            searcher,
        }
    }

    fn journey(&mut self, b: &mut Bench, st: &mut State) -> Output {
        self.reps += 1;
        let workdir = b.scratch().join(format!("real-{}", self.reps));

        let alignments: Vec<TabularRecord> = b.span("blastx.search", || {
            let hsps = st.searcher.search_many(&st.queries, WORKERS);
            hsps.iter().map(TabularRecord::from).collect()
        });
        b.span("files.write", || {
            std::fs::create_dir_all(&workdir).expect("create the work directory");
            fasta::write_file(workdir.join(names::TRANSCRIPTS), &st.transcripts)
                .expect("write transcripts");
            blastx::tabular::write_file(workdir.join(names::ALIGNMENTS), &alignments)
                .expect("write alignments");
        });

        // The inputs are already local: plan without staging.
        let params = WorkflowParams {
            n_clusters: CHUNKS,
            transcripts_bytes: 0,
            alignments_bytes: 0,
            ..Default::default()
        };
        let wf = build_workflow(&params);
        let (sites, tc) = paper_catalogs();
        let mut cfg = PlannerConfig::for_site("sandhills");
        cfg.stage_data = false;
        cfg.add_create_dir = false;
        let exec = b
            .span("planner.plan", || {
                plan(&wf, &sites, &tc, &ReplicaCatalog::new(), &cfg)
            })
            .expect("plan the local workflow");

        let log = Arc::new(Mutex::new(KernelLog::default()));
        let registry = if b.rec.tracing {
            timed_registry(&log)
        } else {
            build_registry(Cap3Params::default())
        };
        let id = b.rec.open("condor.engine_run");
        let run = {
            let config = PoolConfig {
                workers: WORKERS,
                workdir: workdir.clone(),
                ..Default::default()
            };
            let mut pool = LocalPool::new(config, registry);
            let cfg = EngineConfig::builder().retries(0).build();
            Engine::run(&mut pool, &exec, &cfg, &mut NoopMonitor)
            // The pool drops here, which joins its workers.
        };
        let kernel_log = std::mem::take(&mut *log.lock().expect("workers are joined"));
        for (span, start, end, thread) in kernel_log.calls {
            b.rec.adopt(span, start, end, thread);
        }
        b.rec.close(id);

        let final_records = b.span("files.read", || {
            fasta::read_file(workdir.join(names::FINAL)).unwrap_or_default()
        });
        b.span("files.remove", || {
            let _ = std::fs::remove_dir_all(&workdir);
        });
        Output {
            alignments,
            run,
            final_records,
        }
    }

    fn check(&mut self, b: &mut Bench, st: &State, out: Output) -> u64 {
        b.units = st.transcripts.len() as f64;
        b.check("engine run succeeded", out.run.succeeded());
        let reference = self.reference.get_or_insert_with(|| {
            let serial = run_serial(&st.transcripts, &out.alignments, &Cap3Params::default());
            b.metric("blast2cap3.serial_s", serial.elapsed.as_secs_f64());
            serial
                .output
                .iter()
                .map(|r| r.seq.as_bytes().to_vec())
                .collect()
        });
        let assembled: BTreeSet<Vec<u8>> = out
            .final_records
            .iter()
            .map(|r| r.seq.as_bytes().to_vec())
            .collect();
        b.check(
            "final assembly is set-equal to the serial reference",
            !assembled.is_empty() && assembled == *reference,
        );

        let kickstart: f64 = out
            .run
            .records
            .iter()
            .filter_map(|r| r.times.as_ref())
            .map(|t| t.kickstart())
            .sum();
        b.metric("blastx.hsps", out.alignments.len() as f64);
        b.metric("condor.kickstart_sum_s", kickstart);
        b.metric(
            "condor.slot_utilisation",
            kickstart / (WORKERS as f64 * out.run.wall_time),
        );
        assembled.iter().fold(FNV_BASIS, |h, seq| fnv1a(h, seq))
    }

    fn layers(&mut self, b: &mut Bench, st: &mut State) {
        let search_s = b.rec.fastest_seconds("blastx.search");
        b.rate("blastx.queries_per_s", st.queries.len() as f64, search_s);
        let cap3 = b.rec.durations("cap3.run_cap3");
        b.metric(
            "cap3.run_cap3_mean_s",
            cap3.iter().sum::<f64>() / cap3.len().max(1) as f64,
        );
        let engine_s = b.rec.fastest_seconds("condor.engine_run");
        b.rate(
            "blast2cap3.speedup_vs_serial",
            b.get("blast2cap3.serial_s"),
            engine_s,
        );
    }
}
