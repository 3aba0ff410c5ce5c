//! Headline claim — "the Pegasus WMS implementation of blast2cap3
//! significantly reduces the running time compared to the current
//! serial implementation ... for more than 95 %".
//!
//! Two measurements:
//!
//! 1. **Simulated, paper scale** — the calibrated 100-hour serial
//!    workload vs. the simulated Sandhills workflow at n = 300
//!    (the configuration behind the paper's "3 hours in average").
//! 2. **Real, laptop scale** — the actual serial Rust blast2cap3 vs.
//!    the actual workflow executed through the DAGMan engine on the
//!    local Condor pool, real files and real CAP3 merging, on the
//!    same synthetic dataset. Absolute seconds are small, but the
//!    speedup is genuinely measured, not simulated.
//!
//! Output: `target/experiments/headline.csv`.
//!
//! No verb reproduces it: no `pegasus` verb runs a real kernel.

use bioseq::simulate::{generate, TranscriptomeConfig};
use blast2cap3::serial::run_serial;
use blast2cap3_pegasus::build_registry;
use blast2cap3_pegasus::experiment::{real_run, simulate_blast2cap3, synthetic_alignments};
use cap3::Cap3Params;
use condor::pool::{LocalPool, PoolConfig};
use gridsim::platforms::SERIAL_REFERENCE_SECONDS;
use pegasus_wms::engine::EngineConfig;
use std::collections::BTreeSet;
use wms_bench::{human_duration, write_experiment_file, DEFAULT_SEED};

pub fn run() {
    let mut csv = String::from("experiment,serial_s,workflow_s,reduction\n");

    // 1. Simulated at paper scale.
    let flat = EngineConfig::builder().retries(3).build();
    let sim = simulate_blast2cap3("sandhills", 300, DEFAULT_SEED, &flat, None);
    assert!(sim.succeeded());
    let sim_reduction = 1.0 - sim.wall_time / SERIAL_REFERENCE_SECONDS;
    outln!(
        "simulated paper scale : serial {} -> workflow {} ({:.1}% reduction; paper: 100h -> ~3h, >95%)",
        human_duration(SERIAL_REFERENCE_SECONDS),
        human_duration(sim.wall_time),
        100.0 * sim_reduction
    );
    csv.push_str(&format!(
        "simulated,{SERIAL_REFERENCE_SECONDS:.1},{:.1},{sim_reduction:.4}\n",
        sim.wall_time
    ));
    assert!(
        sim_reduction > 0.95,
        "simulated n=300 must reproduce the >95% headline"
    );

    // 2. Real execution at laptop scale: measure the serial Rust
    //    implementation, then the same dataset through the real
    //    workflow machinery.
    let n_families = 60;
    let seed = DEFAULT_SEED;
    let data = generate(&TranscriptomeConfig {
        n_families,
        family_size_mean: 5.0,
        family_size_cap: 24,
        ..TranscriptomeConfig::tiny(seed)
    });
    let alignments = synthetic_alignments(&data);

    let serial = run_serial(&data.transcripts, &alignments, &Cap3Params::default());
    let serial_s = serial.elapsed.as_secs_f64();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let workdir = std::env::temp_dir().join(format!("headline_{}", std::process::id()));
    let config = PoolConfig {
        workers,
        workdir: workdir.clone(),
        ..Default::default()
    };
    let mut pool = LocalPool::new(config, build_registry(Cap3Params::default()));
    let engine = EngineConfig::builder().retries(0).build();
    let chunks = 4 * workers;
    let (run, assembly) = real_run(&mut pool, &data.transcripts, &alignments, chunks, &engine)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(run.succeeded());
    std::fs::remove_dir_all(&workdir).ok();
    let seqs = |records: &[bioseq::fasta::Record]| -> BTreeSet<Vec<u8>> {
        records.iter().map(|r| r.seq.as_bytes().to_vec()).collect()
    };
    assert!(
        seqs(&assembly) == seqs(&serial.output),
        "the workflow's assembly must be set-equal to the serial one"
    );
    let workflow_s = run.wall_time;
    let real_reduction = 1.0 - workflow_s / serial_s.max(1e-9);
    outln!(
        "real laptop scale     : serial {serial_s:.3}s -> workflow {workflow_s:.3}s ({:.1}% reduction, {} workers, real CAP3 on {} transcripts)",
        100.0 * real_reduction,
        workers,
        data.transcripts.len()
    );
    outln!(
        "real output           : {} -> {} sequences ({} merged), set-equal to serial",
        data.transcripts.len(),
        assembly.len(),
        serial.joined
    );
    csv.push_str(&format!(
        "real,{serial_s:.4},{workflow_s:.4},{real_reduction:.4}\n"
    ));

    let path = write_experiment_file("headline.csv", &csv);
    outln!("series written to {}", path.display());
}
