//! The shared experiment harness.
//!
//! Everything the `wms-bench` figures and the integration tests need
//! to re-run the paper's evaluation:
//!
//! * [`WorkloadCalibration`] — a synthetic per-cluster CAP3 cost
//!   distribution with the heavy tail the wheat data exhibits, scaled
//!   so the serial total equals the paper's 100 hours;
//! * [`calibrated_chunk_costs`] — the `split`-equivalent partition of
//!   those cluster costs into `n` chunk costs;
//! * [`simulate_blast2cap3`] — plan the Fig. 2 workflow onto a
//!   simulated platform (Sandhills or OSG) and execute it under the
//!   DAGMan engine, returning the engine's run record;
//! * [`simulate_blast2cap3_ensemble`] — the decomposition sweep as one
//!   ensemble of such workflows sharing that platform;
//! * [`real_run`] — the one real executor: the Fig. 2 workflow over
//!   real FASTA/tabular files and real CAP3 on a local Condor pool,
//!   planned for this machine by [`plan_local`].

use bioseq::fasta::{self, Record};
use bioseq::simulate::{family_size, SyntheticTranscriptome};
use blast2cap3::files::names;
use blast2cap3::split::balance;
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blastx::search::{SearchParams, Searcher};
use blastx::tabular::TabularRecord;
use condor::pool::LocalPool;
use gridsim::platforms::SERIAL_REFERENCE_SECONDS;
use gridsim::sites::SiteRegistry;
use gridsim::FaultScript;
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog, SiteCatalog, TransformationCatalog};
use pegasus_wms::catalog_io::CatalogBundle;
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor, WorkflowRun};
use pegasus_wms::ensemble::{Ensemble, EnsembleConfig, EnsembleRun, Submission};
use pegasus_wms::error::WmsError;
use pegasus_wms::lint::{self, DaxLintOptions, Diagnostic};
use pegasus_wms::planner::{plan, ExecutableWorkflow, PlannerConfig};
use pegasus_wms::serve::CALIBRATION_CLUSTERS;
use pegasus_wms::symbols::SiteId;
use pegasus_wms::workflow::AbstractWorkflow;
use pegasus_wms::{dax, prof, verify};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Display;
use std::path::Path;
use std::sync::OnceLock;

/// The process-wide built-in [`SiteRegistry`] — the paper's two
/// platforms plus the OSG variants. The string-keyed convenience
/// wrappers below resolve against it; callers with their own
/// `sites.def` build a registry and plan with [`plan_blast2cap3_at`].
pub fn builtin_registry() -> &'static SiteRegistry {
    static REG: OnceLock<SiteRegistry> = OnceLock::new();
    REG.get_or_init(SiteRegistry::builtin)
}

/// The calibrated per-cluster cost model.
#[derive(Debug, Clone)]
pub struct WorkloadCalibration {
    /// CAP3 seconds per protein cluster, heavy-tailed.
    pub cluster_costs: Vec<f64>,
    /// Sum of all cluster costs — the serial runtime, calibrated to
    /// the paper's 100 hours.
    pub serial_total: f64,
}

impl WorkloadCalibration {
    /// The largest single cluster cost — the floor no decomposition
    /// can beat (a cluster cannot straddle chunks).
    pub fn max_cluster_cost(&self) -> f64 {
        self.cluster_costs.iter().copied().fold(0.0, f64::max)
    }
}

/// Builds the calibrated workload: cluster sizes from the same
/// heavy-tailed family-size law the transcriptome simulator uses,
/// cost quadratic in cluster size (CAP3's all-pairs overlap stage),
/// totals scaled to [`SERIAL_REFERENCE_SECONDS`].
pub fn calibrate_workload(seed: u64) -> WorkloadCalibration {
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes: Vec<usize> = (0..CALIBRATION_CLUSTERS)
        .map(|_| family_size(&mut rng, 4.0, 64))
        .collect();
    // cost = base + k * size^2, with k chosen to hit the serial total.
    let base = 2.0f64;
    let sq_sum: f64 = sizes.iter().map(|&s| (s * s) as f64).sum();
    let k = (SERIAL_REFERENCE_SECONDS - base * sizes.len() as f64) / sq_sum;
    let cluster_costs: Vec<f64> = sizes.iter().map(|&s| base + k * (s * s) as f64).collect();
    let serial_total = cluster_costs.iter().sum();
    WorkloadCalibration {
        cluster_costs,
        serial_total,
    }
}

/// Partitions the cluster costs into `n` chunks the way the `split`
/// task does ([`balance`]). Returns the per-chunk cost sums (length
/// `min(n, clusters)`, at least 1).
pub fn calibrated_chunk_costs(calibration: &WorkloadCalibration, n: usize) -> Vec<f64> {
    let costs = &calibration.cluster_costs;
    balance(costs, n)
        .iter()
        .map(|bin| bin.iter().fold(0.0, |sum, &i| sum + costs[i]))
        .collect()
}

/// Simulates the paper's experiment: the Fig. 2 workflow with `n`
/// chunks, planned for `site` (any name or alias in the built-in
/// registry) and executed under `engine` on the matching platform
/// model, with `script`'s seeded faults injected when given. `seed`
/// picks the workload and the platform's draws;
/// [`compute`](pegasus_wms::statistics::compute) reads the run's
/// pegasus-statistics.
///
/// # Panics
/// Panics on an unknown site name or if planning fails.
pub fn simulate_blast2cap3(
    site: &str,
    n: usize,
    seed: u64,
    engine: &EngineConfig,
    script: Option<FaultScript>,
) -> WorkflowRun {
    let reg = builtin_registry();
    let id = reg.resolve(site).expect("site in the built-in registry");
    let exec = plan_blast2cap3_at(reg, id, n, seed);
    let mut backend = reg.backend(id, seed);
    if let Some(script) = script {
        backend = backend.with_faults(script);
    }
    Engine::run(&mut backend, &exec, engine, &mut NoopMonitor)
}

/// Simulates the paper's decomposition sweep as one *ensemble*: every
/// `n` in `sizes` is planned as its own Fig. 2 workflow, named
/// `blast2cap3_n{n}`, and all of them contend for the same simulated
/// platform up to its capacity. One seed determines the whole run, so
/// the [`compute_ensemble`](pegasus_wms::statistics::compute_ensemble)
/// rollup is reproducible byte-for-byte.
///
/// # Panics
/// Panics on an unknown site name or if planning fails.
pub fn simulate_blast2cap3_ensemble(
    site: &str,
    sizes: &[usize],
    seed: u64,
    engine: &EngineConfig,
) -> EnsembleRun {
    let reg = builtin_registry();
    let id = reg.resolve(site).expect("site in the built-in registry");
    let submissions: Vec<Submission> = sizes
        .iter()
        .map(|&n| Submission::new(plan_blast2cap3_at(reg, id, n, seed), engine.clone()))
        .collect();
    let mut backend = reg.backend(id, seed);
    Ensemble::run_to_completion(&mut backend, submissions, &EnsembleConfig::default())
        .expect("planner output always has dense job ids")
}

/// Plans [`calibrated_workflow`] with `n` chunks for the registered
/// site `id` through [`plan_on`], naming the executable DAG
/// `blast2cap3_n{n}` so ensemble members remain distinguishable in
/// rollup reports.
///
/// # Panics
/// Panics if planning fails.
pub fn plan_blast2cap3_at(
    registry: &SiteRegistry,
    id: SiteId,
    n: usize,
    seed: u64,
) -> ExecutableWorkflow {
    let wf = calibrated_workflow(n, seed);
    let mut exec = plan_on(registry, id, &wf, |_| {}).expect("planning the paper workflow");
    exec.name = format!("blast2cap3_n{n}");
    exec
}

/// The Fig. 2 workflow over the workload calibrated under `seed`,
/// split into (at most) `n` chunks.
pub fn calibrated_workflow(n: usize, seed: u64) -> AbstractWorkflow {
    let chunk_costs = calibrated_chunk_costs(&calibrate_workload(seed), n);
    build_workflow(&WorkflowParams::with_n(chunk_costs.len()).with_chunk_costs(chunk_costs))
}

/// The site, transformation and replica catalogs a plan is made
/// against.
pub type Catalogs = (SiteCatalog, TransformationCatalog, ReplicaCatalog);

/// The catalogs a run plans against when no `--catalog` file is given:
/// [`catalogs_with`] the paper's transformations and submit-host
/// replicas of its two input files.
pub fn registry_catalogs(registry: &SiteRegistry) -> Catalogs {
    let (_, transformations) = paper_catalogs();
    let mut replicas = ReplicaCatalog::new();
    for file in ["transcripts.fasta", "alignments.out"] {
        replicas.register(file, "submit");
    }
    catalogs_with(
        registry,
        CatalogBundle {
            transformations,
            replicas,
        },
    )
}

/// What every verb and the daemon plan against: the registry's sites
/// — a site is described once, in its `sites.def` stanza — and the
/// bundle's transformations and replicas, plus any files the site
/// definitions pre-stage.
pub fn catalogs_with(registry: &SiteRegistry, mut bundle: CatalogBundle) -> Catalogs {
    registry.register_replicas(&mut bundle.replicas);
    (
        registry.site_catalog(),
        bundle.transformations,
        bundle.replicas,
    )
}

/// Plans `wf` for the registered site `id` against
/// [`registry_catalogs`], under the site's default planner
/// configuration as edited by `tweak` (`|_| {}` for none; the
/// clustering ablation sets a cluster factor, the real-threads
/// cross-check turns staging off). Variants plan under their base
/// site's catalog entry (the registry resolves the `catalog-site`
/// chain — what used to be a hand-written `osg_prestaged → osg`
/// special case).
///
/// # Errors
/// Whatever [`plan`] refuses.
pub fn plan_on(
    registry: &SiteRegistry,
    id: SiteId,
    wf: &AbstractWorkflow,
    tweak: impl FnOnce(&mut PlannerConfig),
) -> Result<ExecutableWorkflow, WmsError> {
    let (sites, tc, rc) = registry_catalogs(registry);
    let mut config = PlannerConfig::for_site(registry.catalog_name(id));
    tweak(&mut config);
    plan(wf, &sites, &tc, &rc, &config)
}

/// The registry a program resolves every site name against: the
/// definitions in `sites` when given, replacing the built-ins
/// wholesale, [`builtin_registry`] otherwise.
///
/// # Errors
/// `cannot read site definitions <path>: …`, or `cannot load site
/// definitions <path>: …` with a second line pointing at the lint.
pub fn load_registry(sites: Option<&Path>) -> Result<SiteRegistry, String> {
    let Some(path) = sites else {
        return Ok(builtin_registry().clone());
    };
    let shown = path.display();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read site definitions {shown}: {e}"))?;
    SiteRegistry::parse(&text).map_err(|e| {
        format!(
            "cannot load site definitions {shown}: {e}\n\
             (run `pegasus lint <dax> --sites {shown}` for the full report)"
        )
    })
}

/// Admission, first half — what `pegasus lint`, the warnings `run`
/// opens with and `serve submit dax=` see in a DAX: one unvalidated
/// parse of `text` (the profiler's `dax.parse` sample), then its
/// refusal as the finding it is coded as, or the structural pass over
/// what it read. The parse comes back still unvalidated: a cyclic or
/// conflicted workflow is reported in full before a caller that plans
/// it validates it.
pub fn dax_findings(
    text: &str,
    path: &str,
    tc: &TransformationCatalog,
    fan_limit: usize,
) -> (Vec<Diagnostic>, Result<AbstractWorkflow, WmsError>) {
    let parsed = {
        let _prof = prof::scope("dax.parse");
        dax::from_dax_unvalidated(text)
    };
    let source = Some(text);
    let findings = match &parsed {
        Ok(wf) => lint::check_workflow(wf, path, Some(tc), &DaxLintOptions { fan_limit, source }),
        Err(e) => vec![Diagnostic::from_error(e, path)],
    };
    (findings, parsed)
}

/// Admission, second half — what `pegasus verify --dax` reports and
/// the daemon refuses about `wf` as planned into `exec`: the
/// whole-plan dataflow check against the replicas it was planned with,
/// and the feasibility of its width under `quotas`.
///
/// # Errors
/// `cannot analyze <path>: …` when the workflow has no width.
pub fn plan_findings(
    wf: &AbstractWorkflow,
    exec: &ExecutableWorkflow,
    rc: &ReplicaCatalog,
    path: &str,
    dataflow: &verify::DataflowOptions,
    quotas: &EnsembleConfig,
) -> Result<Vec<Diagnostic>, String> {
    let mut findings = verify::check_plan(wf, exec, rc, &exec.site, path, dataflow);
    let width = wf
        .width()
        .map_err(|e| format!("cannot analyze {path}: {e}"))?;
    let members = [(exec.name.clone(), width)];
    findings.extend(verify::check_ensemble_feasibility(&members, quotas, path));
    Ok(findings)
}

/// The `alignments.out` rows of a synthetic dataset: every transcript
/// BLASTXed against the dataset's own protein set, on all cores (hit
/// order does not depend on the thread count). What every
/// real-execution measurement starts from.
pub fn synthetic_alignments(data: &SyntheticTranscriptome) -> Vec<TabularRecord> {
    let searcher =
        Searcher::new(data.proteins.clone(), SearchParams::default()).expect("non-empty db");
    let queries: Vec<(String, bioseq::seq::DnaSeq)> = data
        .transcripts
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    let hsps = searcher.search_many(&queries, 0);
    hsps.iter().map(TabularRecord::from).collect()
}

/// Plans `wf` for this machine: the built-in `sandhills` entry through
/// [`plan_on`], with no staging and no create-dir jobs, because a
/// [`LocalPool`]'s tasks share one work directory and find their inputs
/// there.
///
/// # Errors
/// Whatever [`plan`] refuses.
pub fn plan_local(wf: &AbstractWorkflow) -> Result<ExecutableWorkflow, WmsError> {
    let registry = builtin_registry();
    plan_on(registry, registry.resolve("sandhills")?, wf, |cfg| {
        cfg.stage_data = false;
        cfg.add_create_dir = false;
    })
}

/// Runs the real Fig. 2 workflow, `n_chunks` chunks wide, on `pool`:
/// writes `transcripts` and `alignments` into the pool's work
/// directory, plans through [`plan_local`], executes under `cfg` and,
/// when the run succeeded, reads the assembly back from `final.fasta`
/// (no records when it failed). What `README.md` shows, line for line:
///
/// ```
/// # fn main() -> Result<(), String> {
/// use bioseq::simulate::{generate, TranscriptomeConfig};
/// use blast2cap3_pegasus::build_registry;
/// use blast2cap3_pegasus::experiment::{real_run, synthetic_alignments};
/// use condor::pool::{LocalPool, PoolConfig};
/// use pegasus_wms::engine::EngineConfig;
///
/// let data = generate(&TranscriptomeConfig::tiny(2014));
/// let alignments = synthetic_alignments(&data);
/// let workdir = std::env::temp_dir().join(format!("b2c3-{}", std::process::id()));
/// let config = PoolConfig { workers: 2, workdir: workdir.clone(), ..Default::default() };
/// let mut pool = LocalPool::new(config, build_registry(Default::default()));
/// let engine = EngineConfig::builder().retries(0).build();
/// let (run, assembly) = real_run(&mut pool, &data.transcripts, &alignments, 8, &engine)?;
/// println!("{} -> {} sequences in {:.3}s",
///          data.transcripts.len(), assembly.len(), run.wall_time);
/// std::fs::remove_dir_all(&workdir).ok();
/// # assert!(run.succeeded() && assembly.len() < data.transcripts.len());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
/// `cannot write <path>: …` or `cannot read <path>: …` for the files
/// it moves, or the plan's refusal.
pub fn real_run(
    pool: &mut LocalPool,
    transcripts: &[Record],
    alignments: &[TabularRecord],
    n_chunks: usize,
    cfg: &EngineConfig,
) -> Result<(WorkflowRun, Vec<Record>), String> {
    let dir = pool.workdir().to_path_buf();
    let io =
        |verb: &str, path: &Path, e: &dyn Display| format!("cannot {verb} {}: {e}", path.display());
    let path = dir.join(names::TRANSCRIPTS);
    fasta::write_file(&path, transcripts).map_err(|e| io("write", &path, &e))?;
    let path = dir.join(names::ALIGNMENTS);
    blastx::tabular::write_file(&path, alignments).map_err(|e| io("write", &path, &e))?;
    let exec = plan_local(&build_workflow(&WorkflowParams {
        n_clusters: n_chunks,
        transcripts_bytes: 0,
        alignments_bytes: 0,
        ..Default::default()
    }))
    .map_err(|e| format!("cannot plan the local workflow: {e}"))?;
    let run = Engine::run(pool, &exec, cfg, &mut NoopMonitor);
    if !run.succeeded() {
        return Ok((run, Vec::new()));
    }
    let path = dir.join(names::FINAL);
    let assembly = fasta::read_file(&path).map_err(|e| io("read", &path, &e))?;
    Ok((run, assembly))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::simulate::{generate, TranscriptomeConfig};
    use bioseq::stats::{assembly_stats, reduction_ratio};
    use condor::pool::PoolConfig;
    use pegasus_wms::statistics::{compute, compute_ensemble};

    #[test]
    fn calibration_totals_match_the_paper() {
        let c = calibrate_workload(1);
        assert_eq!(c.cluster_costs.len(), CALIBRATION_CLUSTERS);
        assert!(
            (c.serial_total - SERIAL_REFERENCE_SECONDS).abs() < 1.0,
            "total={}",
            c.serial_total
        );
        assert!(c.cluster_costs.iter().all(|&x| x > 0.0));
        // Heavy tail: the largest cluster is much bigger than the mean.
        let mean = c.serial_total / c.cluster_costs.len() as f64;
        assert!(c.max_cluster_cost() > 20.0 * mean);
    }

    #[test]
    fn chunk_costs_partition_the_total() {
        let c = calibrate_workload(2);
        for n in [10usize, 100, 300, 500] {
            let chunks = calibrated_chunk_costs(&c, n);
            assert_eq!(chunks.len(), n);
            let total: f64 = chunks.iter().sum();
            assert!((total - c.serial_total).abs() < 1.0, "n={n}");
            // Balanced: max chunk is at least total/n and at least the
            // biggest cluster, and not wildly above.
            let max = chunks.iter().copied().fold(0.0f64, f64::max);
            let lower = (c.serial_total / n as f64).max(c.max_cluster_cost());
            assert!(max >= lower - 1.0, "n={n}: max={max} lower={lower}");
            assert!(
                max <= lower + c.max_cluster_cost() + 1.0,
                "n={n}: max={max}"
            );
        }
    }

    #[test]
    fn max_chunk_cost_decreases_with_n() {
        let c = calibrate_workload(3);
        let max_of = |n: usize| {
            calibrated_chunk_costs(&c, n)
                .iter()
                .copied()
                .fold(0.0f64, f64::max)
        };
        let m10 = max_of(10);
        let m100 = max_of(100);
        let m300 = max_of(300);
        assert!(m10 > m100, "{m10} > {m100}");
        assert!(m100 > m300, "{m100} > {m300}");
        // But never below the single biggest cluster.
        assert!(m300 >= c.max_cluster_cost() - 1.0);
    }

    #[test]
    fn simulated_sandhills_beats_serial_by_95_percent() {
        let cfg = EngineConfig::builder().retries(3).build();
        let run = simulate_blast2cap3("sandhills", 300, 7, &cfg, None);
        assert!(run.succeeded());
        let reduction = 1.0 - run.wall_time / SERIAL_REFERENCE_SECONDS;
        assert!(
            reduction > 0.95,
            "workflow must cut >95% of serial time; wall={} reduction={reduction}",
            run.wall_time
        );
    }

    #[test]
    fn ensemble_sweep_shares_one_platform_and_all_members_finish() {
        let cfg = EngineConfig::builder().retries(3).build();
        let run = simulate_blast2cap3_ensemble("sandhills", &[10, 50], 7, &cfg);
        assert_eq!(run.runs.len(), 2);
        assert!(run.succeeded());
        assert_eq!(compute_ensemble(&run.runs).workflows_failed, 0);
        assert_eq!(run.runs[0].name, "blast2cap3_n10");
        assert_eq!(run.runs[1].name, "blast2cap3_n50");
        let max_wall = run.runs.iter().map(|r| r.wall_time).fold(0.0f64, f64::max);
        assert!((run.makespan - max_wall).abs() < 1e-9);
    }

    #[test]
    fn the_real_run_doctest_is_the_readme_snippet() {
        let readme = include_str!("../README.md");
        let opening = "```rust\nuse bioseq::simulate::";
        let from = readme.find(opening).expect("README runs real_run") + "```rust\n".len();
        let snippet = &readme[from..from + readme[from..].find("```").expect("a closing fence")];

        let docs = include_str!("experiment.rs");
        let block = docs.split("/// ```\n").nth(1).expect("the doctest");
        let shown: String = (block.lines())
            .map(|l| l.strip_prefix("///").expect("a doc line"))
            .map(|l| l.strip_prefix(' ').unwrap_or(l))
            .filter(|l| *l != "#" && !l.starts_with("# "))
            .flat_map(|l| [l, "\n"])
            .collect();
        assert_eq!(shown, snippet);
    }

    #[test]
    fn real_local_run_produces_final_assembly() {
        let data = generate(&TranscriptomeConfig {
            n_families: 15,
            family_size_mean: 3.5,
            family_size_cap: 10,
            ..TranscriptomeConfig::tiny(21)
        });
        let alignments = synthetic_alignments(&data);
        let workdir = std::env::temp_dir().join(format!("real_run_{}", std::process::id()));
        let config = PoolConfig {
            workers: 2,
            workdir: workdir.clone(),
            ..Default::default()
        };
        let mut pool = LocalPool::new(config, crate::registry::build_registry(Default::default()));
        let cfg = EngineConfig::builder().retries(0).build();
        let (run, assembly) = real_run(&mut pool, &data.transcripts, &alignments, 4, &cfg).unwrap();
        std::fs::remove_dir_all(&workdir).ok();
        assert!(run.succeeded(), "records: {:?}", run.records);
        assert_eq!(compute(&run).jobs_failed, 0);
        // Protein-guided merging removes redundancy, materially but
        // short of total collapse, and lengthens the mean sequence.
        let reduction = reduction_ratio(data.transcripts.len(), assembly.len());
        assert!(
            reduction > 0.05 && reduction < 0.95,
            "reduction={reduction}"
        );
        let mean = |records: &[Record]| assembly_stats(records).mean_len;
        assert!(mean(&assembly) >= mean(&data.transcripts));
    }
}
