//! Property-based tests for the WMS core: DAX round-trips over
//! generated workflows, topological-order laws, planner invariants,
//! and engine determinism on the scripted backend model.

use pegasus_wms::breakdown::JobSpan;
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::dax;
use pegasus_wms::engine::scripted::ScriptedBackend;
use pegasus_wms::engine::{Engine, EngineConfig, FaultReason, JobState, JobTimes, NoopMonitor};
use pegasus_wms::ensemble::{Ensemble, EnsembleConfig, Submission};
use pegasus_wms::events::{self, EventSink};
use pegasus_wms::graph::Csr;
use pegasus_wms::line;
use pegasus_wms::lint;
use pegasus_wms::planner::{cluster_workflow, plan, JobKind, PlannerConfig};
use pegasus_wms::rescue::RescueDag;
use pegasus_wms::serve;
use pegasus_wms::statistics::{compute, render_summary_csv};
use pegasus_wms::symbols::{Args, FileId, Name, SymbolTable};
use pegasus_wms::trace::{self, AttemptOutcome, TraceId};
use pegasus_wms::workflow::AbstractWorkflow;
use pegasus_wms::workflow::JobId;
use proptest::prelude::*;
use std::collections::HashMap;

/// Generates a random *layered* DAG workflow: `layers` layers of up to
/// `width` jobs; each job consumes a random subset of the previous
/// layer's outputs. Layered construction guarantees acyclicity while
/// exercising arbitrary fan-in/fan-out.
fn layered_workflow(layers: usize, width: usize, edge_bits: u64) -> AbstractWorkflow {
    let mut wf = AbstractWorkflow::new("generated");
    let mut rows = wf.declare();
    let mut prev_outputs: Vec<String> = Vec::new();
    let mut bit = 0u32;
    let mut next_bit = move || {
        let b = (edge_bits >> (bit % 64)) & 1 == 1;
        bit += 1;
        b
    };
    for layer in 0..layers {
        let mut outputs_this_layer = Vec::new();
        for w in 0..width {
            let (id, transformation) = (format!("j_{layer}_{w}"), format!("t{}", (layer + w) % 3));
            let runtime = 1.0 + (layer * width + w) as f64;
            let out = format!("f_{layer}_{w}");
            let inputs = (prev_outputs.iter())
                .filter(|_| next_bit())
                .map(|prev| (prev.as_str(), 0));
            (rows.job(
                id,
                transformation,
                Args::new(),
                runtime,
                inputs,
                [(out.as_str(), 0)],
            ))
            .expect("unique ids");
            outputs_this_layer.push(out);
        }
        prev_outputs = outputs_this_layer;
    }
    drop(rows);
    wf
}

/// Text that stresses the DAX writer and scanner: the five characters
/// XML escapes, entity look-alikes (an escaped ampersand must not
/// start a second entity), unknown and unterminated entities, and
/// non-ASCII. No whitespace, which arguments cannot carry.
fn awkward_text() -> impl Strategy<Value = String> {
    const PIECES: [&str; 20] = [
        "a", "Z9", "_", "-", ".", "&", "<", ">", "\"", "'", "&amp;", "&amp;lt;", "&lt;", "&quot",
        "&#38;", "&nbsp;", ";", "é", "名", "/",
    ];
    proptest::collection::vec(proptest::sample::select(PIECES), 1..6)
        .prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `from_dax(&to_dax(&wf)) == wf` whatever the names are made of,
    /// and whichever quote the attributes are written in.
    #[test]
    fn dax_round_trip_is_exact_for_awkward_names(
        workflow_name in awkward_text(),
        names in proptest::collection::vec(awkward_text(), 2..7),
        args in proptest::collection::vec(awkward_text(), 0..4),
        sizes in proptest::collection::vec(0u64..1_000_000_000_000, 7..8),
        bits: u64,
    ) {
        let mut wf = AbstractWorkflow::new(workflow_name);
        let mut rows = wf.declare();
        let mut edges = Vec::new();
        for (i, name) in names.iter().enumerate() {
            // Ids and outputs are made unique; everything else repeats.
            let (id, transformation) = (format!("{name}#{i}"), &names[(i + 1) % names.len()]);
            let job_args: Vec<Name> = args.iter().take(i % 4).map(Name::from).collect();
            // The same file at a size of this use's own.
            let inputs: Vec<(String, u64)> = (names.iter().enumerate().take(i))
                .filter(|&(k, _)| (bits >> (i * 7 + k)) & 1 == 1)
                .map(|(k, earlier)| (format!("{k}:{earlier}"), sizes[k] / 2))
                .collect();
            let inputs = inputs.iter().map(|(f, size)| (f.as_str(), *size));
            let output = format!("{i}:{name}");
            let runtime = 0.1 + i as f64 / 3.0;
            let outputs = [(output.as_str(), sizes[i])];
            (rows.job(id, transformation, Args::from(job_args), runtime, inputs, outputs))
                .expect("unique ids");
            if i > 0 && (bits >> (60 - i)) & 1 == 1 {
                edges.push((JobId::new(0), JobId::new(i)));
            }
        }
        drop(rows);
        for (p, c) in edges {
            wf.add_edge(p, c).expect("both declared");
        }
        let text = dax::to_dax(&wf);
        prop_assert_eq!(&dax::from_dax(&text).unwrap(), &wf);
        // The writer escapes both quotes, so no value holds a raw one
        // and the delimiters can all be swapped for the other style.
        prop_assert_eq!(&dax::from_dax(&text.replace('"', "'")).unwrap(), &wf);
        // Writing is a function of the workflow alone.
        prop_assert_eq!(&dax::to_dax(&dax::from_dax(&text).unwrap()), &text);
        // So is equality: a document that lists each job's outputs
        // before its inputs declares the same jobs.
        let mut lines: Vec<&str> = text.lines().collect();
        let is_use = |l: &&str| l.starts_with("    <uses ");
        for uses in lines.chunk_by_mut(|a, b| is_use(a) && is_use(b)) {
            uses.sort_by_key(|l| l.contains("link=\"input\""));
        }
        let outputs_first = dax::from_dax(&lines.join("\n")).unwrap();
        prop_assert_eq!(&outputs_first, &wf);
        prop_assert_eq!(dax::to_dax(&outputs_first), text);
    }

    #[test]
    fn generated_workflows_validate(layers in 1usize..5, width in 1usize..5, bits: u64) {
        let wf = layered_workflow(layers, width, bits);
        prop_assert!(wf.validate().is_ok());
    }

    #[test]
    fn topological_order_is_a_valid_linearisation(
        layers in 1usize..5, width in 1usize..5, bits: u64
    ) {
        let wf = layered_workflow(layers, width, bits);
        let order = wf.topological_order().unwrap();
        prop_assert_eq!(order.len(), wf.jobs.len());
        let pos: HashMap<JobId, usize> =
            order.iter().enumerate().map(|(i, &j)| (j, i)).collect();
        for (p, c) in wf.edges().unwrap() {
            prop_assert!(pos[&p] < pos[&c]);
        }
    }

    #[test]
    fn dax_round_trip_preserves_workflows(
        layers in 1usize..5, width in 1usize..5, bits: u64
    ) {
        let wf = layered_workflow(layers, width, bits);
        let text = dax::to_dax(&wf);
        let back = dax::from_dax(&text).unwrap();
        prop_assert_eq!(back.jobs.len(), wf.jobs.len());
        for (a, b) in back.jobs.iter().zip(&wf.jobs) {
            prop_assert_eq!(&a.id, &b.id);
            prop_assert_eq!(&a.transformation, &b.transformation);
        }
        for j in wf.job_ids() {
            prop_assert_eq!(back.inputs(j), wf.inputs(j));
            prop_assert_eq!(back.outputs(j), wf.outputs(j));
        }
        prop_assert_eq!(back.edges().unwrap(), wf.edges().unwrap());
    }

    #[test]
    fn planning_preserves_compute_work(
        layers in 1usize..4, width in 1usize..5, bits: u64
    ) {
        let wf = layered_workflow(layers, width, bits);
        let (sites, tc) = paper_catalogs();
        let rc = ReplicaCatalog::new();
        for site in ["sandhills", "osg"] {
            let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site(site)).unwrap();
            // Every abstract job appears exactly once as a compute job.
            let computes = exec
                .jobs
                .iter()
                .filter(|j| j.kind == JobKind::Compute)
                .count();
            prop_assert_eq!(computes, wf.jobs.len());
            // Total compute runtime is preserved by planning.
            let total_abstract: f64 = wf.jobs.iter().map(|j| j.runtime_hint).sum();
            let total_planned: f64 = exec
                .jobs
                .iter()
                .filter(|j| j.kind == JobKind::Compute)
                .map(|j| j.runtime_hint)
                .sum();
            prop_assert!((total_abstract - total_planned).abs() < 1e-9);
            // The planned graph stays a DAG.
            prop_assert_eq!(exec.topological_order().unwrap().len(), exec.jobs.len());
        }
    }

    #[test]
    fn clustering_preserves_total_runtime(
        layers in 1usize..4, width in 2usize..6, bits: u64, factor in 2usize..5
    ) {
        let wf = layered_workflow(layers, width, bits);
        let clustered = cluster_workflow(&wf, factor).unwrap();
        prop_assert!(clustered.jobs.len() <= wf.jobs.len());
        let before: f64 = wf.jobs.iter().map(|j| j.runtime_hint).sum();
        let after: f64 = clustered.jobs.iter().map(|j| j.runtime_hint).sum();
        prop_assert!((before - after).abs() < 1e-9);
        prop_assert!(clustered.validate().is_ok());
    }

    /// Chaos: random failure plans over random layered workflows.
    /// Engine invariants that must hold no matter what fails:
    /// * every job ends Done, Failed, or Unready;
    /// * a Failed job consumed exactly `max_retries + 1` attempts;
    /// * every Unready job has a Failed or Unready ancestor;
    /// * on failure, resubmitting with the rescue DAG on a healthy
    ///   backend completes the workflow and re-runs no Done job.
    #[test]
    fn engine_chaos_invariants(
        layers in 1usize..4,
        width in 1usize..4,
        bits: u64,
        fail_mask in 0u64..u64::MAX,
        max_retries in 0u32..3,
    ) {
        let wf = layered_workflow(layers, width, bits);
        let (sites, tc) = paper_catalogs();
        let rc = ReplicaCatalog::new();
        let mut cfg = PlannerConfig::for_site("sandhills");
        cfg.add_create_dir = false;
        cfg.stage_data = false;
        let exec = plan(&wf, &sites, &tc, &rc, &cfg).unwrap();

        let mut be = ScriptedBackend::new();
        // Fail plan: job i fails attempts 0..=k where k comes from
        // fail_mask nibbles (0 = never fails).
        for (i, j) in exec.jobs.iter().enumerate() {
            let k = ((fail_mask >> ((i % 16) * 4)) & 0xF) as u32;
            for attempt in 0..k.min(5) {
                be.fail_plan.insert((j.name.clone(), attempt));
            }
        }
        let run = Engine::run(
            &mut be,
            &exec,
            &EngineConfig::builder().retries(max_retries).build(),
            &mut NoopMonitor,
        );

        let parents = Csr::reverse(exec.jobs.len(), &exec.edges);
        for (job, rec) in run.records.iter().enumerate() {
            match rec.state {
                JobState::Done => {
                    prop_assert!(rec.times.is_some());
                    prop_assert!(rec.attempts >= 1);
                }
                JobState::Failed => {
                    prop_assert_eq!(rec.attempts, max_retries + 1);
                    prop_assert_eq!(run.failures(rec).count() as u32, rec.attempts);
                }
                JobState::Unready => {
                    prop_assert_eq!(rec.attempts, 0);
                    // Some ancestor failed or was itself unready.
                    let blocked = parents.neighbors(JobId::new(job)).iter().any(|&p| {
                        matches!(
                            run.records[p.idx()].state,
                            JobState::Failed | JobState::Unready
                        )
                    });
                    prop_assert!(blocked, "unready {} with live parents", rec.name);
                }
                JobState::SkippedDone => prop_assert!(false, "no skips configured"),
            }
        }

        if run.succeeded() {
                prop_assert!(run
                    .records
                    .iter()
                    .all(|r| r.state == JobState::Done));
        } else {
                let rescue = &RescueDag::of(&run);
                // Resume on a healthy backend completes everything.
                let mut healthy = ScriptedBackend::new();
                let resumed = Engine::run(
                    &mut healthy,
                    &exec,
                    &EngineConfig::builder().rescue(rescue).build(),
                    &mut NoopMonitor,
                );
                prop_assert!(resumed.succeeded());
                let skipped: std::collections::HashSet<&str> = resumed
                    .records
                    .iter()
                    .filter(|r| r.state == JobState::SkippedDone)
                    .map(|r| r.name.as_str())
                    .collect();
                for name in &rescue.done {
                    prop_assert!(skipped.contains(name.as_str()));
                }
                // Healthy backend never re-ran a rescued job.
                for (name, _) in &healthy.log {
                    prop_assert!(!rescue.done.contains(name));
                }
        }
    }

    /// Offline provenance equals live provenance: for any workflow
    /// shape, fail plan, and retry budget, writing the event stream to
    /// its text log, parsing it back, and replaying it reconstructs
    /// the run exactly — same statistics CSVs, and (on failure) the
    /// same rescue DAG text.
    #[test]
    fn event_log_round_trip_preserves_statistics_and_rescue(
        layers in 1usize..4,
        width in 1usize..4,
        bits: u64,
        fail_mask in 0u64..u64::MAX,
        max_retries in 0u32..3,
    ) {
        let wf = layered_workflow(layers, width, bits);
        let (sites, tc) = paper_catalogs();
        let rc = ReplicaCatalog::new();
        let mut cfg = PlannerConfig::for_site("sandhills");
        cfg.add_create_dir = false;
        cfg.stage_data = false;
        let exec = plan(&wf, &sites, &tc, &rc, &cfg).unwrap();

        let mut be = ScriptedBackend::new();
        for (i, j) in exec.jobs.iter().enumerate() {
            let k = ((fail_mask >> ((i % 16) * 4)) & 0xF) as u32;
            for attempt in 0..k.min(5) {
                be.fail_plan.insert((j.name.clone(), attempt));
            }
        }
        let run = Engine::run(
            &mut be,
            &exec,
            &EngineConfig::builder().retries(max_retries).build(),
            &mut NoopMonitor,
        );

        let text = events::log::write(&run.events);
        let parsed = events::log::parse(&text).unwrap();
        prop_assert_eq!(&parsed, &run.events);
        let replayed = events::replay(&parsed).unwrap();
        prop_assert_eq!(
            render_summary_csv(&compute(&replayed)),
            render_summary_csv(&compute(&run))
        );
        if !run.succeeded() {
            let offline = events::rescue_from_events(&parsed)
                .unwrap()
                .expect("failed run must yield a rescue DAG");
            prop_assert_eq!(offline.to_text(), RescueDag::of(&run).to_text());
        }
        prop_assert_eq!(replayed, run);
    }

    /// Submit-host crash at an arbitrary event index, then resume from
    /// the rescue DAG: the resumed run must finish with the same final
    /// states and per-job attempt counts as an uninterrupted run, and
    /// must never re-execute a job the rescue recorded as DONE.
    #[test]
    fn crash_and_resume_matches_uninterrupted_run(
        layers in 1usize..4,
        width in 1usize..4,
        bits: u64,
        fail_mask in 0u64..u64::MAX,
        crash_at in 1u64..40,
    ) {
        let wf = layered_workflow(layers, width, bits);
        let (sites, tc) = paper_catalogs();
        let rc = ReplicaCatalog::new();
        let mut cfg = PlannerConfig::for_site("sandhills");
        cfg.add_create_dir = false;
        cfg.stage_data = false;
        let exec = plan(&wf, &sites, &tc, &rc, &cfg).unwrap();

        // Deterministic fail plan: job i fails its first k < 3 attempts,
        // then succeeds; with 3 retries the workflow always completes.
        let scripted = |exec: &pegasus_wms::planner::ExecutableWorkflow| {
            let mut be = ScriptedBackend::new();
            for (i, j) in exec.jobs.iter().enumerate() {
                let k = ((fail_mask >> ((i % 21) * 3)) & 0b11) as u32;
                for attempt in 0..k {
                    be.fail_plan.insert((j.name.clone(), attempt));
                }
            }
            be
        };

        let baseline = Engine::run(
            &mut scripted(&exec),
            &exec,
            &EngineConfig::builder().retries(3).build(),
            &mut NoopMonitor,
        );
        prop_assert!(baseline.succeeded());

        let crash_cfg = EngineConfig::builder()
            .retries(3)
            .crash_after_events(crash_at)
            .build();
        let crashed = Engine::run(&mut scripted(&exec), &exec, &crash_cfg, &mut NoopMonitor);

        if crashed.succeeded() {
                // The crash index landed at or past the final event: a
                // clean finish, identical to the baseline.
                prop_assert!(crashed.records.iter().all(|r| r.state == JobState::Done));
        } else {
                let rescue = &RescueDag::of(&crashed);
                let mut resume_be = scripted(&exec);
                let resumed = Engine::run(
                    &mut resume_be,
                    &exec,
                    &EngineConfig::builder().retries(3).rescue(rescue).build(),
                    &mut NoopMonitor,
                );
                prop_assert!(resumed.succeeded(), "resume must complete");
                for (r, b) in resumed.records.iter().zip(&baseline.records) {
                    prop_assert_eq!(&r.name, &b.name);
                    match r.state {
                        // Re-run jobs replay the same scripted failures,
                        // so their attempt counts match the baseline.
                        JobState::Done => prop_assert_eq!(r.attempts, b.attempts),
                        JobState::SkippedDone => {
                            prop_assert!(rescue.done.contains(&r.name));
                        }
                        other => prop_assert!(false, "{} ended {:?}", r.name, other),
                    }
                }
                // The backend never saw a rescued job again.
                for (name, _) in &resume_be.log {
                    prop_assert!(!rescue.done.contains(name));
                }
        }
    }

    /// An ensemble of exactly one workflow must be indistinguishable
    /// from `Engine::run` — same submission tape on the backend, same
    /// event stream, hence the same run — for any workflow shape, fail
    /// plan, retry budget and scripted submit-host crash (0 is none).
    #[test]
    fn ensemble_of_one_equals_engine_run(
        layers in 1usize..4,
        width in 1usize..4,
        bits: u64,
        fail_mask in 0u64..u64::MAX,
        max_retries in 0u32..3,
        seed: u64,
        crash_after_events in 0u64..12,
    ) {
        let wf = layered_workflow(layers, width, bits);
        let (sites, tc) = paper_catalogs();
        let rc = ReplicaCatalog::new();
        let mut pcfg = PlannerConfig::for_site("sandhills");
        pcfg.add_create_dir = false;
        pcfg.stage_data = false;
        let exec = plan(&wf, &sites, &tc, &rc, &pcfg).unwrap();

        let scripted = || {
            let mut be = ScriptedBackend::new();
            // Up to three failures per job, so jobs succeed after their
            // retries about as often as they exhaust them.
            for (i, j) in exec.jobs.iter().enumerate() {
                let k = ((fail_mask >> ((i % 32) * 2)) & 0x3) as u32;
                for attempt in 0..k {
                    be.fail_plan.insert((j.name.clone(), attempt));
                }
            }
            be
        };
        let mut cfg = EngineConfig::builder()
            .policy(pegasus_wms::engine::RetryPolicy::exponential(max_retries, 13.0))
            .seed(seed)
            .build();
        cfg.crash_after_events = (crash_after_events > 0).then_some(crash_after_events);

        let mut single_be = scripted();
        let single = Engine::run(&mut single_be, &exec, &cfg, &mut NoopMonitor);

        let mut ens_be = scripted();
        let ens = Ensemble::run_to_completion(
            &mut ens_be,
            vec![Submission::new(exec.clone(), cfg)],
            &EnsembleConfig::default(),
        )
        .unwrap();

        prop_assert_eq!(&single_be.log, &ens_be.log, "submission tapes diverge");
        prop_assert_eq!(&single.events, &ens.runs[0].events, "event streams diverge");
        prop_assert_eq!(&single, &ens.runs[0]);
    }

    /// Catalog files round-trip arbitrary transformations and
    /// replicas — names holding spaces and `=` among them — and refuse
    /// a broken entry after them at its own line, for every key.
    #[test]
    fn catalog_io_round_trip(
        tc_specs in proptest::collection::vec(
            (
                "[a-z_][a-z0-9_ =.]{0,12}[a-z0-9]",
                proptest::collection::vec("[a-z][a-z0-9_-]{0,8}", 0..4),
                0.0f64..1.0e6,
                any::<bool>(),
            ),
            0..5
        ),
        rc_specs in proptest::collection::vec(
            (
                "[a-z_][a-z0-9_ =.]{0,12}[a-z0-9]",
                proptest::collection::vec("[a-z][a-z0-9_]{0,8}", 0..3),
            ),
            0..5
        ),
    ) {
        use pegasus_wms::catalog::{Transformation, TransformationCatalog};
        use pegasus_wms::catalog_io;
        use pegasus_wms::error::{Format, Span, WmsError};
        let mut tc = TransformationCatalog::new();
        for (name, requires, cost, installable) in &tc_specs {
            tc.add(Transformation {
                name: name.clone(),
                requires: requires.clone(),
                install_cost_per_pkg: *cost,
                installable: *installable,
            });
        }
        let mut rc = ReplicaCatalog::new();
        for (file, sites) in &rc_specs {
            rc.set(file.clone(), sites.clone());
        }
        let text = catalog_io::to_text(&tc, &rc);
        let back = catalog_io::parse(&text).unwrap();
        for (name, ..) in &tc_specs {
            prop_assert_eq!(back.transformations.get(name), tc.get(name));
        }
        prop_assert_eq!(back.transformations.names().len(), tc.names().len());
        prop_assert_eq!(back.replicas.iter().collect::<Vec<_>>(), rc.iter().collect::<Vec<_>>());

        let at = text.lines().count() + 1;
        let t = |fields: &str| format!("transformation {fields}");
        let full = "requires=cap3 install-cost=45 installable=true name=run cap3";
        for (broken, want) in [
            (t("install-cost=45 installable=true name=n"), "missing field requires"),
            (t("requires= installable=true name=n"), "missing field install-cost"),
            (t("requires= install-cost=45 name=n"), "missing field installable"),
            (t("requires= install-cost=45 installable=true"), "missing field name"),
            ("replica file=f".to_string(), "missing field sites"),
            ("replica sites=a".to_string(), "missing field file"),
            (t(&format!("color=red {full}")), "unknown field color"),
            (t(&format!("installable=false {full}")), "repeated field installable"),
            ("replica sites=a sites=b file=f".to_string(), "repeated field sites"),
            (t("requires= install-cost=inf installable=true name=n"), "bad number \"inf\" for install-cost"),
            (t("requires= install-cost=1 installable=yes name=n"), "bad boolean \"yes\" for installable"),
            ("[site sandhills]".to_string(), "\"[site\" is not a catalog entry (transformation or replica); site facts belong in --sites"),
        ] {
            match catalog_io::parse(&format!("{text}{broken}\n")) {
                Err(WmsError::Parse { format, span, reason, .. }) => {
                    prop_assert_eq!((format, span), (Format::Catalog, Span::line(at)));
                    prop_assert_eq!(reason, want);
                }
                other => panic!("{broken:?} -> {other:?}"),
            }
        }
    }

    /// The linter is total: any generated workflow shape, any fan
    /// limit, with or without a catalog, lints and renders without
    /// panicking, and the diagnostics it emits all carry registered
    /// codes.
    #[test]
    fn lint_never_panics_on_generated_workflows(
        layers in 1usize..5, width in 1usize..5, bits: u64, fan in 1usize..8
    ) {
        let wf = layered_workflow(layers, width, bits);
        let (_sites, tc) = paper_catalogs();
        let text = dax::to_dax(&wf);
        for catalog in [None, Some(&tc)] {
            let opts = lint::DaxLintOptions { fan_limit: fan, source: Some(&text) };
            let diags = lint::resolve(
                lint::check_workflow(&wf, "gen.dax", catalog, &opts),
                &lint::LintConfig::default(),
            );
            for d in &diags {
                prop_assert!(lint::rule(d.code).is_some(), "unregistered {}", d.code);
            }
            let _ = lint::render_text(&diags);
            let _ = lint::render_json(&diags);
        }
    }

    /// Mangled DAX text — a valid document truncated anywhere with
    /// arbitrary junk appended — either parses (and then lints) or
    /// classifies into a parse diagnostic. No input may panic.
    #[test]
    fn lint_never_panics_on_mangled_dax_text(
        layers in 1usize..4, width in 1usize..4, bits: u64,
        cut in 0usize..4096, junk in "\\PC{0,80}",
    ) {
        let wf = layered_workflow(layers, width, bits);
        let mut text = dax::to_dax(&wf);
        // to_dax emits ASCII, so any cut lands on a char boundary.
        text.truncate(cut.min(text.len()));
        text.push_str(&junk);
        match dax::from_dax_unvalidated(&text) {
            Ok(parsed) => {
                let opts = lint::DaxLintOptions { fan_limit: 500, source: Some(&text) };
                let _ = lint::check_workflow(&parsed, "cut.dax", None, &opts);
            }
            Err(e) => {
                let d = lint::Diagnostic::from_error(&e, "cut.dax");
                prop_assert!(d.code == "E0101" || d.code == "E0102", "{}", d.code);
            }
        }
    }

    /// The sanitizer accepts what the engine emits: for any workflow
    /// shape, fail plan, and retry budget — success or failure — the
    /// written log parses back and sanitizes with zero diagnostics.
    #[test]
    fn sanitizer_accepts_every_engine_event_stream(
        layers in 1usize..4,
        width in 1usize..4,
        bits: u64,
        fail_mask in 0u64..u64::MAX,
        max_retries in 0u32..3,
    ) {
        let wf = layered_workflow(layers, width, bits);
        let (sites, tc) = paper_catalogs();
        let rc = ReplicaCatalog::new();
        let mut cfg = PlannerConfig::for_site("sandhills");
        cfg.add_create_dir = false;
        cfg.stage_data = false;
        let exec = plan(&wf, &sites, &tc, &rc, &cfg).unwrap();

        let mut be = ScriptedBackend::new();
        for (i, j) in exec.jobs.iter().enumerate() {
            let k = ((fail_mask >> ((i % 16) * 4)) & 0xF) as u32;
            for attempt in 0..k.min(5) {
                be.fail_plan.insert((j.name.clone(), attempt));
            }
        }
        let run = Engine::run(
            &mut be,
            &exec,
            &EngineConfig::builder().retries(max_retries).build(),
            &mut NoopMonitor,
        );

        let text = events::log::write(&run.events);
        let parsed = events::log::parse_lines(&text).unwrap();
        let diags = lint::check_events(&parsed, "run.events");
        prop_assert!(diags.is_empty(), "{}", lint::render_text(&diags));
    }

    #[test]
    fn rescue_text_round_trip(names in proptest::collection::vec("[a-z0-9_.]{1,20}", 0..20)) {
        let rescue = RescueDag {
            workflow_name: "wf".into(),
            site: "osg".into(),
            done: names.into_iter().map(Into::into).collect(),
        };
        let back = RescueDag::from_text(&rescue.to_text()).unwrap();
        prop_assert_eq!(back, rescue);
    }

    /// Symbol tables intern and resolve any mix of names — including
    /// non-ASCII ones and names that are strict prefixes of each other
    /// (`run_cap3_1` / `run_cap3_10`) — idempotently, with dense ids
    /// handed out in first-appearance order.
    #[test]
    fn symbol_table_intern_resolve_round_trips(
        names in proptest::collection::vec("[a-zа-яё0-9_.]{1,10}", 1..24),
    ) {
        // Salt the pool with prefix-extensions of every generated name
        // so the table always faces duplicate-prefix lookups.
        let mut pool = names.clone();
        for n in &names {
            pool.push(format!("{n}0"));
            pool.push(format!("{n}00"));
        }
        let mut table: SymbolTable<FileId> = SymbolTable::new();
        let mut first_seen: Vec<String> = Vec::new();
        for name in &pool {
            let fresh = table.get(name).is_none();
            let id = table.intern(name);
            prop_assert_eq!(table.intern(name), id, "intern must be idempotent");
            prop_assert_eq!(table.resolve(id), name.as_str());
            prop_assert_eq!(table.get(name), Some(id));
            if fresh {
                prop_assert_eq!(id.idx(), first_seen.len(), "ids are dense");
                first_seen.push(name.clone());
            }
        }
        prop_assert_eq!(table.len(), first_seen.len());
        for (k, name) in first_seen.iter().enumerate() {
            prop_assert_eq!(table.resolve(FileId::new(k)), name.as_str());
        }
        let collected: Vec<String> = table.iter().map(|(_, n)| n.to_string()).collect();
        prop_assert_eq!(collected, first_seen);
    }

    /// CSR adjacency is observationally equal to the `HashMap`-of-Vecs
    /// representation it replaced: same neighbor lists, same degrees
    /// and indegrees, same Kahn topological order, and the same
    /// reachable set from every root.
    #[test]
    fn csr_adjacency_equals_hashmap_reference(
        layers in 1usize..5, width in 1usize..5, bits: u64
    ) {
        let wf = layered_workflow(layers, width, bits);
        let n = wf.jobs.len();
        let edges = wf.edges().unwrap();
        let fwd = Csr::forward(n, &edges);
        let rev = Csr::reverse(n, &edges);

        // Reference: push-based adjacency, exactly as pre-CSR code
        // built it.
        let mut children: HashMap<JobId, Vec<JobId>> = HashMap::new();
        let mut parents: HashMap<JobId, Vec<JobId>> = HashMap::new();
        for &(p, c) in &edges {
            children.entry(p).or_default().push(c);
            parents.entry(c).or_default().push(p);
        }
        let empty: Vec<JobId> = Vec::new();
        for v in (0..n).map(JobId::new) {
            let want_children = children.get(&v).unwrap_or(&empty);
            prop_assert_eq!(fwd.neighbors(v), want_children.as_slice());
            prop_assert_eq!(fwd.degree(v), want_children.len());
            let want_parents = parents.get(&v).unwrap_or(&empty);
            prop_assert_eq!(rev.neighbors(v), want_parents.as_slice());
            prop_assert_eq!(rev.degree(v), want_parents.len());
        }
        let want_indeg: Vec<u32> = (0..n)
            .map(|v| parents.get(&JobId::new(v)).map_or(0, |p| p.len() as u32))
            .collect();
        prop_assert_eq!(fwd.reverse_degrees(), want_indeg.clone());

        // Kahn over the HashMap reference, index-seeded and FIFO
        // tie-broken like the CSR implementation claims to be.
        let mut indeg = want_indeg;
        let mut queue: std::collections::VecDeque<JobId> =
            (0..n).map(JobId::new).filter(|v| indeg[v.idx()] == 0).collect();
        let mut reference_order = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            reference_order.push(v);
            for &c in children.get(&v).unwrap_or(&empty) {
                indeg[c.idx()] -= 1;
                if indeg[c.idx()] == 0 {
                    queue.push_back(c);
                }
            }
        }
        prop_assert_eq!(fwd.topological_order().unwrap(), reference_order);

        // Reachability from every root agrees between representations.
        for root in (0..n).map(JobId::new) {
            let mut seen_csr = vec![false; n];
            let mut stack = vec![root];
            while let Some(v) = stack.pop() {
                if std::mem::replace(&mut seen_csr[v.idx()], true) {
                    continue;
                }
                stack.extend(fwd.neighbors(v).iter().copied());
            }
            let mut seen_map = vec![false; n];
            let mut stack = vec![root];
            while let Some(v) = stack.pop() {
                if std::mem::replace(&mut seen_map[v.idx()], true) {
                    continue;
                }
                stack.extend(children.get(&v).unwrap_or(&empty).iter().copied());
            }
            prop_assert_eq!(&seen_csr, &seen_map);
        }
    }

    /// The event-log text format round-trips in *both* directions:
    /// events → text → events (structural), and text → events → text
    /// (byte-identical). Interned `JobId`s in memory never leak into
    /// or corrupt the name-keyed text format.
    #[test]
    fn event_log_text_round_trips_byte_identically(
        layers in 1usize..4,
        width in 1usize..4,
        bits: u64,
        fail_mask in 0u64..u64::MAX,
    ) {
        let wf = layered_workflow(layers, width, bits);
        let (sites, tc) = paper_catalogs();
        let rc = ReplicaCatalog::new();
        let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills")).unwrap();
        let mut be = ScriptedBackend::new();
        for (i, j) in exec.jobs.iter().enumerate() {
            if (fail_mask >> (i % 64)) & 1 == 1 {
                be.fail_plan.insert((j.name.clone(), 0));
            }
        }
        let run = Engine::run(
            &mut be,
            &exec,
            &EngineConfig::builder().retries(1).build(),
            &mut NoopMonitor,
        );
        let text = events::log::write(&run.events);
        let parsed = events::log::parse(&text).unwrap();
        prop_assert_eq!(&parsed, &run.events);
        prop_assert_eq!(events::log::write(&parsed), text);
    }
}

/// Strategy for a well-formed submit request: tokens for tenant/site,
/// optional knobs encoded as (present, value) pairs, and either a
/// generated size or a DAX path that may contain interior spaces
/// (tail field).
fn submit_request_strategy() -> impl Strategy<Value = serve::SubmitRequest> {
    (
        "[a-z][a-z0-9_-]{0,11}",
        "[a-z][a-z0-9_-]{0,11}",
        (any::<bool>(), any::<u64>()),
        (any::<bool>(), 0u32..50),
        (-100i32..100, (any::<bool>(), any::<u64>())),
        (
            any::<bool>(),
            1usize..=serve::CALIBRATION_CLUSTERS,
            "[a-zA-Z0-9_./ -]{1,40}",
        ),
    )
        .prop_map(
            |(
                tenant,
                site,
                (has_seed, seed),
                (has_retries, retries),
                (priority, (has_trace, trace)),
                src,
            )| {
                let (generated, n, path) = src;
                let source = if generated {
                    serve::SubmitSource::Generated { n }
                } else {
                    // Tail fields survive interior spaces but the
                    // cursor trims the line edges; keep the path
                    // trimmed and non-empty so render∘parse is exact.
                    let trimmed = path.trim();
                    let path = if trimmed.is_empty() {
                        "wf.dax"
                    } else {
                        trimmed
                    };
                    serve::SubmitSource::Dax { path: path.into() }
                };
                serve::SubmitRequest {
                    tenant,
                    site,
                    seed: if has_seed { Some(seed) } else { None },
                    retries: if has_retries { Some(retries) } else { None },
                    priority,
                    trace: has_trace.then(|| pegasus_wms::TraceId::new(trace)),
                    source,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `pegasus serve` protocol: parse ∘ render is the identity over
    /// every well-formed request — the submission line format cannot
    /// drop or mangle a field.
    #[test]
    fn serve_requests_round_trip(sub in submit_request_strategy(), id: usize) {
        let reqs = vec![
            serve::Request::Submit(sub),
            serve::Request::Cancel { id },
            serve::Request::Trace { id },
            serve::Request::Run,
            serve::Request::Status,
            serve::Request::Rollup,
            serve::Request::Metrics,
            serve::Request::Ping,
            serve::Request::Shutdown,
        ];
        for req in reqs {
            let text = serve::render_request(&req);
            prop_assert_eq!(serve::parse_request(&text).unwrap(), req);
        }
    }

    /// `Ledger::apply` against a naive model, over random sequences of
    /// legal and illegal journal entries: the two agree on which
    /// entries are legal, a refused entry leaves the ledger unchanged,
    /// the queued set is the model's, every accepted entry round-trips
    /// through its line, and replaying the accepted lines rebuilds the
    /// same ledger.
    #[test]
    fn serve_ledger_apply_matches_a_naive_model(
        ops in proptest::collection::vec(
            (0usize..4, 0usize..12, any::<u64>(), submit_request_strategy()),
            1..40,
        ),
    ) {
        #[derive(Clone, Copy, PartialEq)]
        enum Model { Queued, Cancelled, Claimed }
        let mut model: Vec<Model> = Vec::new();
        let (mut rounds, mut open) = (0usize, false);
        let mut ledger = serve::Ledger::default();
        let mut text = format!("{}\n", serve::JOURNAL_HEADER);
        for (kind, pick, bits, sub) in ops {
            let n = model.len();
            // Mostly the legal next id, sometimes a wrong one.
            let (entry, legal) = match kind {
                0 => {
                    let id = if bits % 4 == 0 { pick } else { n };
                    (serve::JournalEntry::Submission { id, sub }, id == n)
                }
                1 => {
                    let id = pick % (n + 2);
                    (serve::JournalEntry::Cancel { id }, model.get(id) == Some(&Model::Queued))
                }
                2 => {
                    let round = if bits % 8 == 0 { pick } else { rounds };
                    let mut members: Vec<usize> =
                        (0..n + 1).filter(|i| (bits >> (8 + i % 48)) & 1 == 1).collect();
                    if bits % 5 == 0 {
                        members.extend(members.first().copied());
                    }
                    let distinct: std::collections::BTreeSet<usize> =
                        members.iter().copied().collect();
                    let legal = round == rounds
                        && !open
                        && !members.is_empty()
                        && distinct.len() == members.len()
                        && members.iter().all(|&m| model.get(m) == Some(&Model::Queued));
                    (serve::JournalEntry::RoundStarted { round, seed: bits, members }, legal)
                }
                _ => {
                    let round = pick % (rounds + 1);
                    (serve::JournalEntry::RoundFinished { round }, open && round + 1 == rounds)
                }
            };
            let before = ledger.clone();
            let verdict = ledger.apply(entry.clone());
            prop_assert_eq!(verdict.is_ok(), legal, "{:?} -> {:?}", entry, verdict);
            if !legal {
                prop_assert_eq!(&ledger, &before, "refused {:?} changed the ledger", entry);
                continue;
            }
            let line = serve::render_journal_entry(&entry);
            prop_assert_eq!(&serve::parse_journal_entry(&line, 1).unwrap(), &entry);
            text.push_str(&line);
            text.push('\n');
            match entry {
                serve::JournalEntry::Submission { .. } => model.push(Model::Queued),
                serve::JournalEntry::Cancel { id } => model[id] = Model::Cancelled,
                serve::JournalEntry::RoundStarted { members, .. } => {
                    members.iter().for_each(|&m| model[m] = Model::Claimed);
                    rounds += 1;
                    open = true;
                }
                serve::JournalEntry::RoundFinished { .. } => open = false,
            }
            let queued: Vec<usize> =
                (0..model.len()).filter(|&i| model[i] == Model::Queued).collect();
            prop_assert_eq!(ledger.queued().collect::<Vec<_>>(), queued);
            prop_assert_eq!(ledger.interrupted().is_some(), open);
        }
        prop_assert_eq!(serve::Ledger::replay(&text).unwrap(), ledger);
    }

    /// A journal cut anywhere replays, once its torn final record is
    /// dropped, to the ledger of the records that were written whole.
    #[test]
    fn serve_journal_cut_anywhere_replays_to_a_prefix(
        subs in proptest::collection::vec(submit_request_strategy(), 1..6),
        seed: u64,
        cut_raw: usize,
    ) {
        let members: Vec<usize> = (1..subs.len()).collect();
        let mut entries: Vec<serve::JournalEntry> = subs
            .into_iter()
            .enumerate()
            .map(|(id, sub)| serve::JournalEntry::Submission { id, sub })
            .collect();
        entries.push(serve::JournalEntry::Cancel { id: 0 });
        if !members.is_empty() {
            entries.push(serve::JournalEntry::RoundStarted { round: 0, seed, members });
            entries.push(serve::JournalEntry::RoundFinished { round: 0 });
        }
        let mut text = format!("{}\n", serve::JOURNAL_HEADER);
        let mut prefixes = vec![(text.len(), serve::Ledger::default())];
        let mut ledger = serve::Ledger::default();
        for entry in &entries {
            ledger.apply(entry.clone()).unwrap();
            text.push_str(&serve::render_journal_entry(entry));
            text.push('\n');
            prefixes.push((text.len(), ledger.clone()));
        }
        // Cut at a char boundary at or after the header's newline.
        let header = prefixes[0].0;
        let mut cut = header + cut_raw % (text.len() - header + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let whole = serve::whole_lines(&text[..cut]);
        let expected = &prefixes.iter().rev().find(|(len, _)| *len <= cut).unwrap().1;
        prop_assert_eq!(&serve::Ledger::replay(whole).unwrap(), expected);
    }

    /// Status lines round-trip, including the `-` placeholders and
    /// names with spaces (tail field).
    #[test]
    fn serve_status_lines_round_trip(
        id: usize,
        tenant in "[a-z][a-z0-9_-]{0,11}",
        site in "[a-z][a-z0-9_-]{0,11}",
        state_pick in 0usize..4,
        jobs in (any::<bool>(), any::<usize>()),
        wall_raw in (any::<bool>(), 0u64..1_000_000_000),
        wait_raw in (any::<bool>(), 0u64..1_000_000_000),
        name in "[a-zA-Z0-9_. =-]{1,40}",
    ) {
        use pegasus_wms::ensemble::MemberState;
        let state = [
            MemberState::Queued,
            MemberState::Cancelled,
            MemberState::Succeeded,
            MemberState::Failed,
        ][state_pick];
        let trimmed = name.trim();
        let name = if trimmed.is_empty() { "wf" } else { trimmed };
        // f64 Display round-trips exactly, so arbitrary finite values
        // are safe; derive them from integers to dodge NaN/inf.
        let line = serve::StatusLine {
            id,
            tenant,
            site,
            state,
            jobs: jobs.0.then_some(jobs.1),
            wall_time: wall_raw.0.then(|| wall_raw.1 as f64 / 64.0),
            queue_wait: wait_raw.0.then(|| wait_raw.1 as f64 / 64.0),
            name: name.into(),
        };
        let text = serve::render_status_line(&line);
        prop_assert_eq!(serve::parse_status_line(&text).unwrap(), line);
    }
}

/// Text the JSON escaper must get right: quotes, backslashes, the
/// three named escapes, other control characters, and non-ASCII.
fn hostile_text() -> impl Strategy<Value = String> {
    const PIECES: [&str; 12] = [
        "a", "run_cap3", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é", "名", " @ ",
    ];
    proptest::collection::vec(proptest::sample::select(PIECES), 0..5)
        .prop_map(|pieces| pieces.concat())
}

/// `(attempt, outcome kind, detail, times on a half-second grid)`.
/// The grid is coarse and the three durations may be zero, so equal
/// timestamps on one track and zero-length phases are common.
type AttemptSpec = (u32, usize, String, (u32, u32, u32, u32));
/// `(job id, name, attempts)`: ids repeat and arrive in any order.
type JobSpec = (usize, String, Vec<AttemptSpec>);
/// `(name, site, trace id, succeeded, (start, length), jobs)`.
type TraceSpec = (String, String, (bool, u64), bool, (u32, u32), Vec<JobSpec>);

fn trace_specs() -> impl Strategy<Value = Vec<TraceSpec>> {
    let times = (0u32..8, 0u32..3, 0u32..3, 0u32..3);
    let attempt = (0u32..40, 0usize..3, hostile_text(), times);
    let job = (
        0usize..4,
        hostile_text(),
        proptest::collection::vec(attempt, 0..4),
    );
    let trace = (
        hostile_text(),
        hostile_text(),
        (any::<bool>(), any::<u64>()),
        any::<bool>(),
        (0u32..4, 0u32..20),
        proptest::collection::vec(job, 0..6),
    );
    proptest::collection::vec(trace, 0..4)
}

fn build_traces(specs: Vec<TraceSpec>) -> Vec<trace::WorkflowTrace> {
    let half = |ticks: u32| f64::from(ticks) * 0.5;
    let build_job = |(id, name, attempts): JobSpec, table: &mut Vec<trace::AttemptSpan>| {
        let first = table.len() as u32;
        table.extend(attempts.iter().cloned().map(
            |(attempt, kind, detail, (at, wait, install, run))| trace::AttemptSpan {
                attempt,
                outcome: match kind {
                    0 => AttemptOutcome::Completed,
                    1 => AttemptOutcome::Failed(detail.into()),
                    _ => AttemptOutcome::TimedOut(detail.into()),
                },
                times: JobTimes {
                    submitted: half(at),
                    started: half(at + wait),
                    install_done: half(at + wait + install),
                    finished: half(at + wait + install + run),
                },
            },
        ));
        let summary = JobSpan {
            job: JobId::new(id),
            name: name.into(),
            transformation: "t".into(),
            kind: JobKind::Compute,
            attempts: attempts.len() as u32,
            completed: false,
            queue_wait: 0.0,
            install: 0.0,
            kickstart: 0.0,
            post_overhead: 0.0,
            retry_badput: 0.0,
        };
        let attempts = first..table.len() as u32;
        trace::JobTrace { summary, attempts }
    };
    specs
        .into_iter()
        .map(
            |(name, site, (traced, id), succeeded, (start, length), jobs)| {
                let mut attempts = Vec::new();
                let jobs = (jobs.into_iter())
                    .map(|job| build_job(job, &mut attempts))
                    .collect();
                trace::WorkflowTrace {
                    trace: traced.then(|| TraceId::new(id)),
                    name,
                    site,
                    succeeded,
                    start: half(start),
                    end: half(start + length),
                    jobs,
                    attempts,
                }
            },
        )
        .collect()
}

/// One event of the export as the retired algorithm built it: owned
/// name, an `args` vector of owned values.
#[derive(Debug, PartialEq)]
struct OracleEvent {
    name: String,
    cat: &'static str,
    ph: char,
    ts: i64,
    dur: i64,
    pid: usize,
    tid: usize,
    args: Vec<(&'static str, String)>,
}

/// The retired export, kept as the oracle: build every event of the
/// run, one global stable sort of the complete events by `(pid, tid,
/// ts, longest first)`, metadata ahead of them.
fn oracle_events(traces: &[trace::WorkflowTrace]) -> Vec<OracleEvent> {
    let us = |seconds: f64| (seconds * 1e6).round() as i64;
    let ev = |name: String, cat, ph, (start, end): (f64, f64), pid, tid, args| OracleEvent {
        name,
        cat,
        ph,
        ts: us(start),
        dur: us(end) - us(start),
        pid,
        tid,
        args,
    };
    let (mut meta, mut spans) = (Vec::new(), Vec::new());
    for (idx, t) in traces.iter().enumerate() {
        let pid = idx + 1;
        let named = |name: &str, tid, label: String| {
            let args = vec![("name", label)];
            ev(name.into(), "__metadata", 'M', (0.0, 0.0), pid, tid, args)
        };
        meta.push(named("process_name", 0, format!("{} @ {}", t.name, t.site)));
        meta.push(named("thread_name", 0, "workflow".into()));
        let mut args = vec![("site", t.site.clone())];
        args.extend(t.trace.map(|id| ("trace", id.to_string())));
        args.push(("succeeded", t.succeeded.to_string()));
        spans.push(ev(
            t.name.clone(),
            "workflow",
            'X',
            (t.start, t.end),
            pid,
            0,
            args,
        ));
        for j in &t.jobs {
            let tid = j.summary.job.idx() + 1;
            meta.push(named("thread_name", tid, j.summary.name.to_string()));
            let attempts = t.attempts_of(j);
            for (i, a) in attempts.iter().enumerate() {
                let t = &a.times;
                if i > 0 && t.submitted > attempts[i - 1].times.finished {
                    let gap = (attempts[i - 1].times.finished, t.submitted);
                    spans.push(ev("backoff".into(), "overhead", 'X', gap, pid, tid, vec![]));
                }
                let (cat, outcome) = match &a.outcome {
                    AttemptOutcome::Completed => ("attempt", "completed".to_string()),
                    AttemptOutcome::Failed(detail) => ("badput", format!("failed({detail})")),
                    AttemptOutcome::TimedOut(detail) => ("badput", format!("timed-out({detail})")),
                };
                let (name, whole) = (format!("attempt {}", a.attempt), (t.submitted, t.finished));
                spans.push(ev(
                    name,
                    cat,
                    'X',
                    whole,
                    pid,
                    tid,
                    vec![("outcome", outcome)],
                ));
                let mut phases = vec![("queue-wait", (t.submitted, t.started))];
                if t.install_done > t.started {
                    phases.push(("install", (t.started, t.install_done)));
                }
                phases.push(("kickstart", (t.install_done, t.finished)));
                for (label, span) in phases {
                    spans.push(ev(label.into(), "phase", 'X', span, pid, tid, vec![]));
                }
            }
        }
    }
    spans.sort_by_key(|e| (e.pid, e.tid, e.ts, std::cmp::Reverse(e.dur)));
    meta.extend(spans);
    meta
}

fn oracle_render(events: &[OracleEvent]) -> String {
    let escape = |s: &str| -> String {
        s.chars()
            .map(|c| match c {
                '"' => "\\\"".to_string(),
                '\\' => "\\\\".to_string(),
                '\n' => "\\n".to_string(),
                '\r' => "\\r".to_string(),
                '\t' => "\\t".to_string(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
                c => c.to_string(),
            })
            .collect()
    };
    let lines: Vec<String> = events
        .iter()
        .map(|e| {
            let mut line = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"pid\":{},\"tid\":{}",
                escape(&e.name),
                e.cat,
                e.ph,
                e.pid,
                e.tid
            );
            if e.ph == 'X' {
                line += &format!(",\"ts\":{},\"dur\":{}", e.ts, e.dur);
            }
            if !e.args.is_empty() {
                let args: Vec<String> = e
                    .args
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
                    .collect();
                line += &format!(",\"args\":{{{}}}", args.join(","));
            }
            line + "}"
        })
        .collect();
    let newline = if lines.is_empty() { "" } else { "\n" };
    format!("{{\"traceEvents\":[\n{}{newline}]}}\n", lines.join(",\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The streamed, track-at-a-time Chrome export is the retired
    /// build-everything-then-sort export, byte for byte and event for
    /// event, whatever the tree looks like: several traces, job ids
    /// repeated and out of order, zero-length phases and attempts,
    /// equal timestamps on one track, names that need escaping.
    #[test]
    fn chrome_export_equals_the_global_sort_oracle(specs in trace_specs()) {
        let traces = build_traces(specs);
        let oracle = oracle_events(&traces);
        let streamed: Vec<OracleEvent> = trace::chrome_events(&traces)
            .iter()
            .map(|e| OracleEvent {
                name: e.name.to_string(),
                cat: e.cat,
                ph: e.ph,
                ts: e.ts,
                dur: e.dur,
                pid: e.pid,
                tid: e.tid,
                args: e.args.iter().flatten().map(|(k, v)| (*k, v.to_string())).collect(),
            })
            .collect();
        prop_assert_eq!(&streamed, &oracle);
        prop_assert_eq!(trace::render_chrome(&traces), oracle_render(&oracle));
    }
}

/// Finite floats from arbitrary bit patterns — subnormals included —
/// with the values `Display` treats specially mixed in: both zeros,
/// the longest texts it writes, a sum that is not exact.
fn finite_f64() -> impl Strategy<Value = f64> {
    const EDGES: [f64; 10] = [
        0.0,
        -0.0,
        1e21,
        1e-7,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        0.30000000000000004,
        690.9675392546765,
    ];
    (any::<u64>(), 0usize..30).prop_map(|(bits, pick)| match EDGES.get(pick) {
        Some(&edge) => edge,
        None => Some(f64::from_bits(bits))
            .filter(|v| v.is_finite())
            // No exponent bits left: a subnormal.
            .unwrap_or(f64::from_bits(bits >> 12)),
    })
}

/// Names the mid-line fields of a log must carry through: the line
/// grammar's separators, the escape character and its letters, a
/// look-alike of the tail's key, non-ASCII.
fn spaced_name() -> impl Strategy<Value = String> {
    const PIECES: [&str; 14] = [
        "a", "my", "tool", " ", "\t", "\n", "\r", "\x0c", "\\", "\\s", "=", " name=", "\u{a0}", "é",
    ];
    proptest::collection::vec(proptest::sample::select(PIECES), 0..6)
        .prop_map(|pieces| pieces.concat())
}

const REASONS: [FaultReason; 5] = [
    FaultReason::Preemption,
    FaultReason::Eviction,
    FaultReason::InstallFailure,
    FaultReason::Timeout,
    FaultReason::Other,
];

/// One event of any kind from plain numbers; `pick` chooses the kind.
fn event_from(
    pick: usize,
    (job, attempt): (u32, u32),
    t: [f64; 4],
    (head, tail): (&str, &str),
) -> events::WorkflowEvent {
    use events::WorkflowEvent as E;
    const KINDS: [JobKind; 5] = [
        JobKind::CreateDir,
        JobKind::StageIn,
        JobKind::Compute,
        JobKind::StageOut,
        JobKind::Cleanup,
    ];
    let (job, time) = (JobId::new(job as usize), t[0]);
    let times = JobTimes {
        submitted: t[0],
        started: t[1],
        install_done: t[2],
        finished: t[3],
    };
    let reason = REASONS[attempt as usize % 5];
    match pick % 11 {
        0 => E::WorkflowStarted {
            name: tail.into(),
            site: head.into(),
            jobs: job.idx() as u32,
            time,
        },
        1 => E::JobDeclared {
            job,
            name: tail.into(),
            transformation: head.into(),
            kind: KINDS[attempt as usize % 5],
        },
        2 => E::Skipped { job, time },
        3 => E::Submitted { job, attempt, time },
        4 => E::InstallStarted { job, attempt, time },
        5 => E::Started { job, attempt, time },
        6 => E::Completed {
            job,
            attempt,
            times,
        },
        7 => E::Failed {
            job,
            attempt,
            reason,
            detail: tail.into(),
            times: Box::new(times),
        },
        8 => E::TimedOut {
            job,
            attempt,
            detail: tail.into(),
            times: Box::new(times),
        },
        9 => E::RetryScheduled {
            job,
            next_attempt: attempt,
            backoff: t[1],
            reason,
            detail: tail.into(),
            time,
        },
        _ => E::WorkflowFinished {
            succeeded: attempt % 2 == 0,
            wall_time: t[1],
            time,
        },
    }
}

/// The `writeln!`-based writer `events::log::write` had before it
/// moved onto `line::Writer`, kept as the oracle.
fn reference_log(events: &[events::WorkflowEvent]) -> String {
    use events::WorkflowEvent as E;
    use std::fmt::Write as _;
    let clean = |text: &str| text.replace(['\n', '\r'], " ");
    let times = |t: &JobTimes| {
        format!(
            "submitted={} started={} install-done={} finished={}",
            t.submitted, t.started, t.install_done, t.finished
        )
    };
    let mut out = String::from("# pegasus event log v1\n");
    for ev in events {
        match ev {
            E::WorkflowStarted {
                name,
                site,
                jobs,
                time,
            } => writeln!(
                out,
                "workflow-started time={time} jobs={jobs} site={site} name={}",
                clean(name)
            ),
            E::JobDeclared {
                job,
                name,
                transformation,
                kind,
            } => writeln!(
                out,
                "job id={job} kind={kind} transformation={transformation} name={}",
                clean(name)
            ),
            E::Skipped { job, time } => writeln!(out, "skipped time={time} job={job}"),
            E::Submitted { job, attempt, time } => {
                writeln!(out, "submitted time={time} job={job} attempt={attempt}")
            }
            E::InstallStarted { job, attempt, time } => {
                writeln!(
                    out,
                    "install-started time={time} job={job} attempt={attempt}"
                )
            }
            E::Started { job, attempt, time } => {
                writeln!(out, "started time={time} job={job} attempt={attempt}")
            }
            E::Completed {
                job,
                attempt,
                times: t,
            } => {
                writeln!(out, "completed job={job} attempt={attempt} {}", times(t))
            }
            E::Failed {
                job,
                attempt,
                reason,
                detail,
                times: t,
            } => writeln!(
                out,
                "failed job={job} attempt={attempt} reason={} {} detail={}",
                reason.prefix(),
                times(t),
                clean(detail)
            ),
            E::TimedOut {
                job,
                attempt,
                detail,
                times: t,
            } => writeln!(
                out,
                "timed-out job={job} attempt={attempt} {} detail={}",
                times(t),
                clean(detail)
            ),
            E::RetryScheduled {
                job,
                next_attempt,
                backoff,
                reason,
                detail,
                time,
            } => writeln!(
                out,
                "retry-scheduled time={time} job={job} next-attempt={next_attempt} \
                 backoff={backoff} reason={} detail={}",
                reason.prefix(),
                clean(detail)
            ),
            E::WorkflowFinished {
                succeeded,
                wall_time,
                time,
            } => writeln!(
                out,
                "workflow-finished time={time} wall-time={wall_time} succeeded={succeeded}"
            ),
        }
        .unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The digit loop writes what `Display` writes.
    #[test]
    fn push_u64_equals_display(v: u64, shift in 0u32..64) {
        for v in [v, v >> shift, 0, 9, 10, u64::MAX] {
            let mut out = String::from("x");
            line::push_u64(&mut out, v);
            prop_assert_eq!(out, format!("x{v}"));
        }
    }

    /// The float routine writes what `Display` writes: for any bits,
    /// for decimals of a few digits (the times and sizes a log holds),
    /// for decimal ties, and for the floats beside a power of two.
    #[test]
    fn push_f64_equals_display(
        bits: u64,
        digits in 0u64..100_000_000_000,
        places in 0i32..20,
        power in -80i32..60,
        step in 0u64..5,
    ) {
        let near_power = f64::from_bits(2f64.powi(power).to_bits() + step - 2);
        let decimal = digits as f64 / 10f64.powi(places);
        // In [2^50, 2^51) a quarter is the last place, so `k.25` lies
        // as near `k.2` as `k.3`: a decimal tie.
        let tie = (1u64 << 50 | digits) as f64 + [0.25, 0.75][step as usize % 2];
        for v in [f64::from_bits(bits), decimal, decimal + 0.5, near_power, tie] {
            let mut out = String::from("x");
            line::push_f64(&mut out, v);
            prop_assert_eq!(out, format!("x{v}"));
        }
    }

    /// A float field is what `Display` writes, whether the writer's
    /// memo has the value, had it and lost the slot to another, or
    /// cannot hold a text that long: the sequence draws from a pool
    /// larger than the memo, with repeats near and far.
    #[test]
    fn f64_fields_equal_display_through_hits_evictions_and_collisions(
        pool in proptest::collection::vec(finite_f64(), 1..600),
        picks in proptest::collection::vec(any::<usize>(), 0..1500),
    ) {
        let (mut out, mut want) = (String::new(), String::new());
        let mut w = line::Writer::new(&mut out);
        for pick in picks {
            // Half the draws come from the first few values.
            let v = pool[if pick % 2 == 0 { (pick / 2) % pool.len() } else { (pick / 2) % 7 % pool.len() }];
            w.f64("t", v);
            want.push_str(&format!(" t={v}"));
        }
        prop_assert_eq!(out, want);
    }

    /// `write` is the retired `writeln!` rendering byte for byte over
    /// arbitrary streams, and a `LogWriter` handed the stream in
    /// arbitrary batches writes exactly `write`'s bytes.
    #[test]
    fn event_log_write_equals_the_writeln_oracle(
        specs in proptest::collection::vec(
            (0usize..11, (0u32..2000, 0u32..50), (0usize..4, 0usize..4), "[a-z_:.0-9-]{0,12}", hostile_text()),
            0..60,
        ),
        pool in (finite_f64(), finite_f64(), finite_f64(), finite_f64()),
        cuts in proptest::collection::vec(0usize..60, 0..8),
    ) {
        let pool = [pool.0, pool.1, pool.2, pool.3];
        let stream: Vec<_> = specs
            .iter()
            .map(|(pick, ids, (a, b), head, tail)| {
                let t = [pool[*a], pool[*b], pool[(a + b) % 4], pool[(a * b) % 4]];
                event_from(*pick, *ids, t, (head, tail))
            })
            .collect();
        let text = events::log::write(&stream);
        prop_assert_eq!(&text, &reference_log(&stream));
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(stream.len())).collect();
        cuts.extend([0, stream.len()]);
        cuts.sort_unstable();
        let mut bytes = Vec::new();
        let mut log = events::log::LogWriter::new(&mut bytes, None).unwrap();
        cuts.windows(2).for_each(|w| log.events(&stream[w[0]..w[1]]));
        prop_assert!(log.error().is_none());
        prop_assert_eq!(String::from_utf8(bytes).unwrap(), text);
    }

    /// No site or transformation name makes a log its own parser
    /// refuses: whitespace and backslashes in them survive
    /// `parse(write(..))`, and a name without either is written raw.
    #[test]
    fn mid_line_names_with_whitespace_round_trip(
        specs in proptest::collection::vec((0usize..2, spaced_name(), "[a-z ]{0,6}"), 1..8),
    ) {
        let stream: Vec<_> = specs
            .iter()
            .map(|(pick, head, tail)| event_from(*pick, (3, 2), [0.0; 4], (head, tail.trim())))
            .collect();
        let text = events::log::write(&stream);
        prop_assert_eq!(events::log::parse(&text).unwrap(), stream);
        for ((_, head, _), line) in specs.iter().zip(text.lines().skip(1)) {
            let plain = !head.contains(|c: char| c == '\\' || c.is_ascii_whitespace());
            prop_assert_eq!(plain, line.contains(&format!("={head} name=")), "{}", line);
        }
    }

    /// A failure reads back as the category it was built with, through
    /// the one prefix table, whatever its tag says: the log's `reason=`
    /// token parses to it and the verifier's reason/detail clause
    /// accepts the pair — and refuses the same detail under any other
    /// category. A detail that opens with none of the five prefixes is
    /// `Other`'s.
    #[test]
    fn a_tagged_failure_reads_back_as_its_reason_through_the_one_table(
        lead in 0usize..6,
        text in "[a-z :=.0-9é-]{0,16}",
    ) {
        use pegasus_wms::engine::Failure;
        // Tags that open with a wire prefix of their own are the
        // interesting ones.
        let lead = REASONS.get(lead).map_or("", |r| r.prefix());
        let tag = format!("{lead}{}", text.trim_end());
        for reason in REASONS {
            let built = reason.tagged(&tag);
            prop_assert_eq!(built.reason, reason);
            prop_assert!(built.detail.starts_with(reason.prefix()));
            for claimed in REASONS {
                let verdict = judged(Failure { reason: claimed, detail: built.detail.clone() });
                prop_assert_eq!(verdict, claimed == reason, "{:?} as {:?}", built, claimed);
            }
        }
        // Text of a task's own, in no category's words.
        let own = format!("-{tag}");
        for claimed in REASONS {
            let verdict = judged(Failure { reason: claimed, detail: own.as_str().into() });
            prop_assert_eq!(verdict, claimed == FaultReason::Other, "{:?} as {:?}", own, claimed);
        }
    }
}

/// Runs one job that dies of `failure` through the engine, writes the
/// stream, reads it back — the terminal event must carry the same
/// category, the log's `reason=` token having gone through the table —
/// and returns whether the verifier passes the log clean; its only
/// possible complaint is the reason/detail clause's.
fn judged(failure: pegasus_wms::engine::Failure) -> bool {
    use pegasus_wms::engine::{CompletionEvent, ExecutionBackend, Failure, JobOutcome};
    use pegasus_wms::planner::{ExecutableJob, ExecutableWorkflow};
    use pegasus_wms::verify::{check_stream, VerifyOptions};
    /// A backend for one job, which dies of `failure` over [0, 1] s.
    struct Dies {
        failure: Failure,
        in_flight: Option<CompletionEvent>,
        clock: f64,
    }
    impl ExecutionBackend for Dies {
        fn submit(&mut self, job: &ExecutableJob, attempt: u32) {
            self.in_flight = Some(CompletionEvent {
                job: job.id,
                attempt,
                outcome: JobOutcome::Failure(self.failure.clone()),
                times: JobTimes {
                    submitted: 0.0,
                    started: 0.0,
                    install_done: 0.0,
                    finished: 1.0,
                },
            });
        }
        fn wait_any(&mut self) -> CompletionEvent {
            self.clock = 1.0;
            self.in_flight.take().expect("one job in flight")
        }
        fn now(&self) -> f64 {
            self.clock
        }
    }
    let wf = ExecutableWorkflow {
        name: "w".into(),
        site: "s".into(),
        jobs: vec![ExecutableJob {
            id: JobId::new(0),
            name: "a".into(),
            transformation: "t".into(),
            kind: JobKind::Compute,
            args: Default::default(),
            runtime_hint: 1.0,
            install_hint: 0.0,
        }],
        edges: vec![],
    };
    let mut backend = Dies {
        failure: failure.clone(),
        in_flight: None,
        clock: 0.0,
    };
    let run = Engine::run(
        &mut backend,
        &wf,
        &EngineConfig::default(),
        &mut NoopMonitor,
    );
    let parsed = events::log::parse_lines(&events::log::write(&run.events)).expect("parses");
    let read_back = parsed.iter().find_map(|(_, ev)| ev.termination()?.failure);
    let (reason, detail) = read_back.expect("the attempt failed");
    assert_eq!((reason, &**detail), (failure.reason, &*failure.detail));
    let diags = check_stream(&parsed, "prop.events", &VerifyOptions::default());
    assert!(
        diags
            .iter()
            .all(|d| d.message.contains("does not match its detail")),
        "{diags:?}"
    );
    diags.is_empty()
}

/// A small workflow that may hold anything a hand-written DAX can:
/// files shared between producers, a file listed twice on one side of
/// one job, a job reading what it writes, explicit edges that close a
/// cycle or run from a job to itself. Per job: its input and output
/// files out of a pool of five; then the explicit edges.
type UntidySpec = (Vec<(Vec<usize>, Vec<usize>)>, Vec<(usize, usize)>);

fn untidy_specs() -> impl Strategy<Value = UntidySpec> {
    let side = || proptest::collection::vec(0usize..5, 0..4);
    let jobs = proptest::collection::vec((side(), side()), 1..7);
    (
        jobs,
        proptest::collection::vec((0usize..7, 0usize..7), 0..5),
    )
}

fn untidy_workflow((jobs, edges): &UntidySpec) -> AbstractWorkflow {
    let mut wf = AbstractWorkflow::new("untidy");
    let names: Vec<String> = (0..5).map(|f| format!("f{f}")).collect();
    let file = |&f: &usize| (names[f].as_str(), 0);
    let mut rows = wf.declare();
    for (i, (inputs, outputs)) in jobs.iter().enumerate() {
        let (inputs, outputs) = (inputs.iter().map(file), outputs.iter().map(file));
        (rows.job(format!("j{i}"), "t", Args::new(), 1.0, inputs, outputs)).expect("unique ids");
    }
    drop(rows);
    for &(p, c) in edges {
        let (p, c) = (p % jobs.len(), c % jobs.len());
        wf.add_edge(JobId::new(p), JobId::new(c)).expect("declared");
    }
    wf
}

/// The derivation [`AbstractWorkflow::dataflow`] retired, kept as its
/// oracle: the lint pass's producer and consumer maps keyed by file
/// *name* and its set-per-job adjacency, built the way
/// `lint/dax_pass.rs` built them — with the two rules the one view
/// states: a second output declaration conflicts whoever makes it, and
/// an explicit edge from a job to itself is an edge.
#[derive(Default)]
struct NameKeyedDataflow<'a> {
    producer: std::collections::BTreeMap<&'a str, usize>,
    consumers: std::collections::BTreeMap<&'a str, Vec<usize>>,
    /// `(file, first, second)`, in job order.
    conflicts: Vec<(&'a str, usize, usize)>,
    adjacency: Vec<std::collections::BTreeSet<usize>>,
}

impl<'a> NameKeyedDataflow<'a> {
    fn of(wf: &'a AbstractWorkflow) -> Self {
        let n = wf.jobs.len();
        let mut oracle = NameKeyedDataflow::default();
        for j in 0..n {
            for f in wf.outputs(JobId::new(j)).iter() {
                match oracle.producer.get(f.name) {
                    None => {
                        oracle.producer.insert(f.name, j);
                    }
                    Some(&first) => oracle.conflicts.push((f.name, first, j)),
                }
            }
            for f in wf.inputs(JobId::new(j)).iter() {
                oracle.consumers.entry(f.name).or_default().push(j);
            }
        }
        oracle.adjacency = vec![Default::default(); n];
        for (f, consumers) in &oracle.consumers {
            if let Some(&p) = oracle.producer.get(f) {
                for &c in consumers.iter().filter(|&&c| c != p) {
                    oracle.adjacency[p].insert(c);
                }
            }
        }
        for &(p, c) in &wf.explicit_edges {
            oracle.adjacency[p.idx()].insert(c.idx());
        }
        oracle
    }

    fn readers(&self, file: &str) -> pegasus_wms::workflow::Readers {
        use pegasus_wms::workflow::Readers;
        let producer = self.producer.get(file);
        match self.consumers.get(file) {
            None => Readers::Nobody,
            Some(consumers) if consumers.iter().all(|c| Some(c) == producer) => {
                Readers::OnlyItsProducer
            }
            Some(_) => Readers::AnotherJob,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two judges, one rule: `validate` refuses a workflow exactly
    /// when the lint reports a cycle or a producer conflict, and the
    /// variant it refuses with is the code of the lint's finding.
    #[test]
    fn validate_refuses_exactly_what_the_lint_reports(spec in untidy_specs()) {
        use pegasus_wms::error::WmsError;
        let wf = untidy_workflow(&spec);
        let diags = lint::check_workflow(&wf, "untidy.dax", None, &Default::default());
        let has = |code: &str| diags.iter().any(|d| d.code == code);
        let verdict = wf.validate();
        match &verdict {
            Ok(()) => prop_assert!(!has("E0103") && !has("E0104"), "{diags:?}"),
            Err(WmsError::ConflictingProducer { .. }) => prop_assert!(has("E0104"), "{diags:?}"),
            Err(WmsError::CycleDetected(_)) => {
                prop_assert!(has("E0103") && !has("E0104"), "{diags:?}")
            }
            Err(other) => prop_assert!(false, "validate raised {other}"),
        }
        // What `validate` passes, every reader downstream may plan: no
        // file is staged out twice.
        if verdict.is_ok() {
            let (sites, tc) = paper_catalogs();
            let config = PlannerConfig::for_site("osg");
            let planned = plan(&wf, &sites, &tc, &ReplicaCatalog::new(), &config).unwrap();
            let mut names: Vec<&str> = planned.jobs.iter().map(|j| &*j.name).collect();
            names.sort_unstable();
            let planned_jobs = names.len();
            names.dedup();
            prop_assert_eq!(names.len(), planned_jobs, "{:?}", names);
        }
    }

    /// The id-keyed view holds what the name-keyed derivation it
    /// replaced worked out: producers, conflicts, who reads each file,
    /// and the edge list.
    #[test]
    fn dataflow_view_equals_the_name_keyed_oracle(spec in untidy_specs()) {
        let wf = untidy_workflow(&spec);
        let view = wf.dataflow();
        let oracle = NameKeyedDataflow::of(&wf);
        prop_assert_eq!(view.producer.len(), wf.files().len());
        for (id, name) in wf.files().iter() {
            let producer = oracle.producer.get(name).map(|&j| JobId::new(j));
            prop_assert_eq!(view.producer[id.idx()], producer, "producer of {}", name);
            prop_assert_eq!(view.readers[id.idx()], oracle.readers(name), "readers of {}", name);
        }
        let conflicts: Vec<(&str, usize, usize)> = (view.conflicts.iter())
            .map(|&(file, first, second)| (wf.files().resolve(file), first.idx(), second.idx()))
            .collect();
        prop_assert_eq!(conflicts, oracle.conflicts);
        let edges: Vec<(JobId, JobId)> = (oracle.adjacency.iter().enumerate())
            .flat_map(|(p, cs)| cs.iter().map(move |&c| (JobId::new(p), JobId::new(c))))
            .collect();
        prop_assert_eq!(&view.edges, &edges);
        prop_assert_eq!(&view.children, &Csr::forward(wf.jobs.len(), &edges));
    }
}
