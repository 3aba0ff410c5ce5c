//! Micro-benchmarks of the substrate crates: the translated aligner,
//! the overlap assembler, FASTA parsing, k-mer iteration, DAX
//! round-trips, and raw engine throughput. These are the "is the
//! infrastructure itself fast enough to be credible" benches that a
//! real release of this stack would ship.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use bioseq::fasta;
use bioseq::kmer::KmerIter;
use bioseq::simulate::{generate, TranscriptomeConfig};
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blastx::search::{SearchParams, Searcher};
use cap3::{Assembler, Cap3Params};
use gridsim::{PlatformModel, SimBackend};
use pegasus_wms::dax;
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor};
use pegasus_wms::planner::{ExecutableJob, ExecutableWorkflow, JobKind};

fn bench_substrates(c: &mut Criterion) {
    let data = generate(&TranscriptomeConfig {
        n_families: 40,
        ..TranscriptomeConfig::tiny(3)
    });

    // FASTA round-trip throughput.
    let fasta_text = fasta::to_string(&data.transcripts);
    let mut group = c.benchmark_group("substrates");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Bytes(fasta_text.len() as u64));
    group.bench_function("fasta_parse", |b| {
        b.iter(|| fasta::parse_str(&fasta_text).unwrap().len())
    });

    // K-mer iteration over the whole transcript set.
    let total_bases: usize = data.transcripts.iter().map(|r| r.seq.len()).sum();
    group.throughput(Throughput::Bytes(total_bases as u64));
    group.bench_function("kmer_iteration_k16", |b| {
        b.iter(|| {
            data.transcripts
                .iter()
                .map(|r| KmerIter::new(r.seq.as_bytes(), 16).unwrap().count())
                .sum::<usize>()
        })
    });

    // Translated search of one transcript against the protein DB.
    let searcher = Searcher::new(data.proteins.clone(), SearchParams::default()).unwrap();
    let query = &data.transcripts[0];
    group.throughput(Throughput::Elements(1));
    group.bench_function("blastx_search_one", |b| {
        b.iter(|| searcher.search_one(&query.id, &query.seq).len())
    });

    // CAP3 assembly of one family-sized cluster.
    let family0: Vec<_> = data
        .transcripts
        .iter()
        .zip(&data.truth)
        .filter(|(_, &f)| f == 0)
        .map(|(r, _)| r.clone())
        .collect();
    group.bench_function("cap3_assemble_cluster", |b| {
        let asm = Assembler::new(Cap3Params::default());
        b.iter(|| asm.assemble(&family0).output_count())
    });

    // DAX write + parse of the n=300 Fig. 2 workflow.
    let wf = build_workflow(&WorkflowParams::with_n(300));
    group.bench_function("dax_roundtrip_n300", |b| {
        b.iter(|| {
            let text = dax::to_dax(&wf);
            dax::from_dax(&text).unwrap().jobs.len()
        })
    });

    group.finish();

    // Engine throughput: how many zero-cost jobs per second the
    // DAGMan engine + simulator push through.
    let mut group = c.benchmark_group("engine_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for n_jobs in [100usize, 1000] {
        let exec = ExecutableWorkflow {
            name: "flat".into(),
            site: "sim".into(),
            jobs: (0..n_jobs)
                .map(|i| ExecutableJob {
                    id: pegasus_wms::workflow::JobId::new(i),
                    name: format!("j{i}").into(),
                    transformation: "noop".into(),
                    kind: JobKind::Compute,
                    args: Default::default(),
                    runtime_hint: 1.0,
                    install_hint: 0.0,
                })
                .collect(),
            edges: vec![],
        };
        group.throughput(Throughput::Elements(n_jobs as u64));
        group.bench_with_input(BenchmarkId::new("flat_jobs", n_jobs), &exec, |b, exec| {
            b.iter(|| {
                let platform = PlatformModel::uniform("u", 32, 1.0);
                let mut backend = SimBackend::new(platform, 1);
                let run = Engine::run(
                    &mut backend,
                    exec,
                    &EngineConfig::default(),
                    &mut NoopMonitor,
                );
                assert!(run.succeeded());
                run.wall_time
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
