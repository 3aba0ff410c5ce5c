//! §V-B — "Considering larger input files and datasets, the time
//! requirements and complexity of running the protein-guided assembly
//! grow."
//!
//! Two sweeps:
//!
//! 1. **Real execution**: the actual Rust blast2cap3 (clustering +
//!    CAP3) at increasing synthetic dataset scales, serial vs the real
//!    Fig. 2 workflow (one chunk per family, real files, one worker per
//!    core) — measures genuine growth of the laptop-scale pipeline.
//! 2. **Simulated paper scale**: the Sandhills model at multiples of
//!    the calibrated 100-hour workload — shows that the workflow's
//!    advantage persists (and grows in absolute terms) as datasets
//!    grow.
//!
//! Output: `target/experiments/scaling.csv`.
//!
//! No verb reproduces it: no `pegasus` verb runs a real kernel.

use bioseq::simulate::{generate, TranscriptomeConfig};
use blast2cap3::serial::run_serial;
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::build_registry;
use blast2cap3_pegasus::experiment::{
    builtin_registry, calibrate_workload, calibrated_chunk_costs, plan_on, real_run,
    synthetic_alignments, WorkloadCalibration,
};
use cap3::Cap3Params;
use condor::pool::{LocalPool, PoolConfig};
use pegasus_wms::engine::EngineConfig;
use wms_bench::{simulated_wall, write_experiment_file, DEFAULT_SEED};

pub fn run() {
    let mut csv = String::from("kind,scale,transcripts,serial_s,workflow_s\n");

    outln!("real execution sweep (serial vs workflow, wall seconds):");
    let workdir = std::env::temp_dir().join(format!("scaling_{}", std::process::id()));
    let engine = EngineConfig::builder().retries(0).build();
    for families in [20usize, 40, 80, 160] {
        let data = generate(&TranscriptomeConfig {
            n_families: families,
            family_size_mean: 4.0,
            family_size_cap: 16,
            ..TranscriptomeConfig::tiny(DEFAULT_SEED)
        });
        let alignments = synthetic_alignments(&data);
        let params = Cap3Params::default();
        let serial = run_serial(&data.transcripts, &alignments, &params);
        let config = PoolConfig {
            workdir: workdir.clone(),
            ..Default::default()
        };
        let mut pool = LocalPool::new(config, build_registry(params));
        let (run, assembly) =
            real_run(&mut pool, &data.transcripts, &alignments, families, &engine)
                .unwrap_or_else(|e| panic!("{e}"));
        assert!(run.succeeded());
        std::fs::remove_dir_all(&workdir).ok();
        assert_eq!(serial.output.len(), assembly.len());
        let transcripts = data.transcripts.len();
        let (serial_s, workflow_s) = (serial.elapsed.as_secs_f64(), run.wall_time);
        outln!(
            "  {families:>4} families / {transcripts:>5} transcripts: serial {serial_s:>8.4}s, workflow {workflow_s:>8.4}s"
        );
        csv.push_str(&format!(
            "real,{families},{transcripts},{serial_s:.4},{workflow_s:.4}\n"
        ));
    }

    outln!("\nsimulated paper-scale sweep (Sandhills, n = 300):");
    let registry = builtin_registry();
    let sandhills = registry.resolve("sandhills").expect("built-in site");
    let cal = calibrate_workload(DEFAULT_SEED);
    for scale in [1usize, 2, 4] {
        // Scale the workload: `scale` copies of the cluster costs.
        let scaled = WorkloadCalibration {
            cluster_costs: cal.cluster_costs.repeat(scale),
            serial_total: cal.serial_total * scale as f64,
        };
        let chunk_costs = calibrated_chunk_costs(&scaled, 300);
        let wf = build_workflow(
            &WorkflowParams::with_n(chunk_costs.len()).with_chunk_costs(chunk_costs),
        );
        let exec = plan_on(registry, sandhills, &wf, |_| {}).expect("plan");
        let wall = simulated_wall("sandhills", &exec, DEFAULT_SEED, 3);
        let serial_s = scaled.serial_total;
        outln!(
            "  {scale}x dataset: serial {:>9.0}s, workflow {:>8.0}s ({:.1}% reduction)",
            serial_s,
            wall,
            100.0 * (1.0 - wall / serial_s)
        );
        csv.push_str(&format!(
            "simulated,{scale},{},{serial_s:.0},{:.0}\n",
            scaled.cluster_costs.len(),
            wall
        ));
    }

    let path = write_experiment_file("scaling.csv", &csv);
    outln!("\nseries written to {}", path.display());
}
