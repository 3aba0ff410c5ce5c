//! Quickstart: the whole stack in one page.
//!
//! Generates a small synthetic transcriptome (the stand-in for the
//! paper's wheat data), aligns it with the built-in BLASTX-like
//! searcher, runs protein-guided CAP3 merging as the paper's Fig. 2
//! workflow on the local Condor pool (real files, real CAP3), and
//! prints what happened.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bioseq::simulate::{generate, TranscriptomeConfig};
use bioseq::stats::{assembly_stats, reduction_ratio};
use blast2cap3_pegasus::build_registry;
use blast2cap3_pegasus::experiment::{real_run, synthetic_alignments};
use condor::pool::{LocalPool, PoolConfig};
use pegasus_wms::engine::EngineConfig;

const CHUNKS: usize = 8;

fn main() -> Result<(), String> {
    let data = generate(&TranscriptomeConfig {
        n_families: 40,
        family_size_mean: 4.0,
        family_size_cap: 12,
        ..TranscriptomeConfig::tiny(2014)
    });
    let alignments = synthetic_alignments(&data);
    let workdir = std::env::temp_dir().join(format!("quickstart_{}", std::process::id()));
    let config = PoolConfig {
        workdir: workdir.clone(),
        ..Default::default()
    };
    let mut pool = LocalPool::new(config, build_registry(Default::default()));
    let engine = EngineConfig::builder().retries(0).build();

    println!("blast2cap3 quickstart (synthetic stand-in for Triticum urartu)");
    println!("================================================================");
    let (run, assembly) = real_run(&mut pool, &data.transcripts, &alignments, CHUNKS, &engine)?;
    if !run.succeeded() {
        let rescue = pegasus_wms::rescue::RescueDag::of(&run);
        return Err(format!(
            "the workflow failed; its rescue DAG:\n{}",
            rescue.to_text()
        ));
    }
    std::fs::remove_dir_all(&workdir).ok();
    let (input, output) = (assembly_stats(&data.transcripts), assembly_stats(&assembly));
    println!("input transcripts : {}", data.transcripts.len());
    println!("BLASTX hits       : {}", alignments.len());
    println!("output sequences  : {}", assembly.len());
    println!(
        "reduction         : {:.1}% (paper reports 8-9% on the full wheat set)",
        100.0 * reduction_ratio(data.transcripts.len(), assembly.len())
    );
    println!(
        "input  N50 = {:>5} bp, mean len = {:>7.1} bp",
        input.n50, input.mean_len
    );
    println!(
        "output N50 = {:>5} bp, mean len = {:>7.1} bp",
        output.n50, output.mean_len
    );
    println!(
        "workflow          : {} jobs, {CHUNKS} run_cap3 chunks in {:.3}s wall",
        run.records.len(),
        run.wall_time
    );
    Ok(())
}
