//! Integration through the DAX text format: the Fig. 2 workflow is
//! serialized to DAX, parsed back, planned, and executed — proving
//! that the interchange format carries everything the rest of the
//! stack needs (as it must, since real Pegasus deployments hand DAX
//! files between tools).

use blast2cap3::workflow::{build_workflow, WorkflowParams};
use gridsim::platforms::sandhills;
use gridsim::SimBackend;
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::dax;
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor};
use pegasus_wms::error::WmsError;
use pegasus_wms::planner::{plan, PlannerConfig};

#[test]
fn dax_file_drives_a_full_simulated_run() {
    let original = build_workflow(&WorkflowParams::with_n(20));
    let text = dax::to_dax(&original);

    // A different "tool" picks the DAX up.
    let parsed = dax::from_dax(&text).expect("parse own DAX");
    assert_eq!(parsed.jobs.len(), original.jobs.len());

    let (sites, tc) = paper_catalogs();
    let mut rc = ReplicaCatalog::new();
    rc.register("transcripts.fasta", "submit");
    rc.register("alignments.out", "submit");
    let exec = plan(
        &parsed,
        &sites,
        &tc,
        &rc,
        &PlannerConfig::for_site("sandhills"),
    )
    .unwrap();

    let mut backend = SimBackend::new(sandhills(), 5);
    let run = Engine::run(
        &mut backend,
        &exec,
        &EngineConfig::default(),
        &mut NoopMonitor,
    );
    assert!(run.succeeded());
    assert!(run.wall_time > 0.0);
}

#[test]
fn dax_runtime_hints_survive_and_shape_the_simulation() {
    // Two parameterisations with different chunk costs must produce
    // different simulated wall times after a DAX round trip.
    let cheap = WorkflowParams::with_n(4).with_chunk_costs(vec![10.0; 4]);
    let dear = WorkflowParams::with_n(4).with_chunk_costs(vec![10_000.0; 4]);
    let mut walls = Vec::new();
    for params in [cheap, dear] {
        let wf = dax::from_dax(&dax::to_dax(&build_workflow(&params))).unwrap();
        let (sites, tc) = paper_catalogs();
        let mut rc = ReplicaCatalog::new();
        rc.register("transcripts.fasta", "submit");
        rc.register("alignments.out", "submit");
        let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills")).unwrap();
        let mut backend = SimBackend::new(sandhills(), 5);
        let run = Engine::run(
            &mut backend,
            &exec,
            &EngineConfig::default(),
            &mut NoopMonitor,
        );
        assert!(run.succeeded());
        walls.push(run.wall_time);
    }
    assert!(
        walls[1] > walls[0] + 5_000.0,
        "runtime hints must flow through DAX: {walls:?}"
    );
}

/// Malformed hand-written DAX files — the kind other tools actually
/// produce — must surface typed errors, never panics, and never a
/// silently truncated workflow.
#[test]
fn malformed_dax_yields_typed_errors_not_panics() {
    // Unclosed <job>: the trailing job must not be silently dropped.
    let unclosed_job = "<adag name=\"w\">\n  <job id=\"a\" name=\"t\">\n";
    match dax::from_dax(unclosed_job).unwrap_err() {
        WmsError::Parse { span, reason, .. } => {
            assert!(reason.contains("unclosed <job"), "{reason}");
            assert!(
                span.line >= 2,
                "error after the open tag, got line {}",
                span.line
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // Unclosed <adag>: a truncated file is not a valid workflow.
    let truncated = "<adag name=\"w\">\n  <job id=\"a\" name=\"t\"/>\n";
    match dax::from_dax(truncated).unwrap_err() {
        WmsError::Parse { reason, .. } => {
            assert!(reason.contains("unclosed <adag>"), "{reason}")
        }
        other => panic!("unexpected {other:?}"),
    }

    // Explicit parent/child cycle.
    let cyclic = "<adag name=\"w\">\
                  <job id=\"a\" name=\"t\"/><job id=\"b\" name=\"t\"/>\
                  <child ref=\"b\"><parent ref=\"a\"/></child>\
                  <child ref=\"a\"><parent ref=\"b\"/></child>\
                  </adag>";
    assert!(matches!(
        dax::from_dax(cyclic).unwrap_err(),
        WmsError::CycleDetected(_)
    ));

    // A data-dependency cycle through files is caught just the same.
    let file_cycle = "<adag name=\"w\">\
                      <job id=\"a\" name=\"t\">\
                      <uses file=\"x\" link=\"input\"/><uses file=\"y\" link=\"output\"/>\
                      </job>\
                      <job id=\"b\" name=\"t\">\
                      <uses file=\"y\" link=\"input\"/><uses file=\"x\" link=\"output\"/>\
                      </job>\
                      </adag>";
    assert!(matches!(
        dax::from_dax(file_cycle).unwrap_err(),
        WmsError::CycleDetected(_)
    ));

    // Duplicate job ids.
    let duplicate = "<adag name=\"w\">\
                     <job id=\"a\" name=\"t\"/><job id=\"a\" name=\"t\"/>\
                     </adag>";
    match dax::from_dax(duplicate).unwrap_err() {
        WmsError::Parse { reason, .. } => assert!(reason.contains('a'), "{reason}"),
        other => panic!("unexpected {other:?}"),
    }

    // A second <adag> — inside an open job (whose file uses belong to
    // the first), or after the first closed — would start the workflow
    // over; it is an error at the tag, not a panic or a shorter
    // workflow.
    let nested = "<adag>\n<job id=\"a\" name=\"t\"><uses file=\"f\" link=\"input\"/>\
                  <uses file=\"g\" link=\"output\"/>\n  <adag name=\"x\"></job></adag>";
    let second = "<adag><job id=\"a\" name=\"t\"/></adag>\n<adag><job id=\"b\" name=\"t\"/></adag>";
    for (text, line, col) in [(nested, 3, 3), (second, 2, 1)] {
        for parse in [dax::from_dax, dax::from_dax_unvalidated] {
            match parse(text).unwrap_err() {
                WmsError::Parse { span, reason, .. } => {
                    assert!(reason.contains("second <adag>"), "{reason}");
                    assert_eq!((span.line, span.col), (line, col), "{text}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    // Every error Display cleanly (no panic formatting either).
    for text in [
        unclosed_job,
        truncated,
        cyclic,
        file_cycle,
        duplicate,
        nested,
        second,
    ] {
        let msg = dax::from_dax(text).unwrap_err().to_string();
        assert!(!msg.is_empty());
    }
}

/// `<!` opens three different things. Comments and DOCTYPE
/// declarations are skipped — each to its own end, so what follows a
/// DOCTYPE is still read — and anything else is a typed error at the
/// tag, never a silently shorter workflow.
#[test]
fn doctype_is_skipped_to_its_own_end_and_other_declarations_are_typed_errors() {
    // Used to skip from the DOCTYPE to the comment's `-->`, dropping
    // job `a` without a word.
    let inline = "<adag><!DOCTYPE note><job id=\"a\" name=\"t\"/><!-- c --><job id=\"b\" name=\"t\"/></adag>";
    let wf = dax::from_dax(inline).expect("DOCTYPE and comment are skipped");
    let ids: Vec<&str> = wf.jobs.iter().map(|j| j.id.as_str()).collect();
    assert_eq!(ids, ["a", "b"]);
    let (sites, tc) = paper_catalogs();
    let cfg = PlannerConfig::for_site("sandhills");
    let exec = plan(&wf, &sites, &tc, &ReplicaCatalog::new(), &cfg).unwrap();
    let run = Engine::run(
        &mut SimBackend::new(sandhills(), 5),
        &exec,
        &EngineConfig::default(),
        &mut NoopMonitor,
    );
    assert!(run.succeeded());
    let computes = run
        .records
        .iter()
        .filter(|r| r.name == "a" || r.name == "b");
    assert_eq!(computes.count(), 2, "a clean two-job run");

    // Used to answer "<job> outside <adag>": the prolog swallowed
    // everything up to the first comment, or the whole file.
    let prolog = "<?xml version=\"1.0\"?>\n<!DOCTYPE adag>\n<adag name=\"w\">\n<job id=\"a\" name=\"t\"/>\n</adag>\n";
    assert_eq!(dax::from_dax(prolog).expect("a clean parse").jobs.len(), 1);
    // An internal subset may hold `>` and quoted text.
    let subset = "<!DOCTYPE adag [ <!ENTITY e \"]>\"> ]><adag><job id=\"a\" name=\"t\"/></adag>";
    assert_eq!(dax::from_dax(subset).unwrap().jobs.len(), 1);

    for (text, want, line, col) in [
        (
            "<adag>\n  <job id=\"a\" name=\"t\"><argument><![CDATA[x]]></argument></job></adag>",
            "CDATA",
            2,
            34,
        ),
        ("<adag>\n<!ELEMENT adag ANY>\n</adag>", "'<!'", 2, 1),
        ("<adag><!DOCTYPE never closed", "unterminated", 1, 29),
        // A `?` belongs to `<?...?>` only.
        (
            "<adag><job id=\"a\" ? name=\"t\"/></adag>",
            "attribute name",
            1,
            19,
        ),
    ] {
        match dax::from_dax(text).unwrap_err() {
            WmsError::Parse { span, reason, .. } => {
                assert!(reason.contains(want), "{text:?}: {reason}");
                assert_eq!((span.line, span.col), (line, col), "{text:?}: {reason}");
            }
            other => panic!("{text:?}: unexpected {other:?}"),
        }
    }
}

#[test]
fn planner_injects_fig3_installs_after_dax_round_trip() {
    let wf = dax::from_dax(&dax::to_dax(&build_workflow(&WorkflowParams::with_n(6)))).unwrap();
    let (sites, tc) = paper_catalogs();
    let mut rc = ReplicaCatalog::new();
    rc.register("transcripts.fasta", "submit");
    rc.register("alignments.out", "submit");
    let sh = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills")).unwrap();
    let og = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("osg")).unwrap();
    assert_eq!(sh.total_install_time(), 0.0);
    assert!(og.total_install_time() > 0.0);
    // Fig. 3 decorates *every* compute task.
    for j in &og.jobs {
        if j.kind == pegasus_wms::planner::JobKind::Compute {
            assert!(j.install_hint > 0.0, "{} lacks an install phase", j.name);
        }
    }
}

/// The DAX path's `--profile` scopes: `dax.write` around the writer,
/// and `dax.scan`, `dax.build` and `dax.validate` inside `dax.parse`;
/// with profiling off, not one sample. The only test of this binary
/// that turns profiling on, so no other test flips the switch under
/// it.
#[test]
fn the_dax_scopes_nest_inside_the_parse_and_record_nothing_when_off() {
    use pegasus_wms::prof;
    let wf = build_workflow(&WorkflowParams::with_n(3000));
    prof::take_samples();
    let text = dax::to_dax(&wf);
    dax::from_dax(&text).unwrap();
    assert_eq!(prof::take_samples(), []);

    prof::set_enabled(true);
    let again = dax::to_dax(&wf);
    let parsed = dax::from_dax(&again).unwrap();
    prof::set_enabled(false);
    let samples = prof::take_samples();
    assert_eq!((again, parsed.jobs.len()), (text, wf.jobs.len()));

    // Scopes record as they close: the writer first, the parse last.
    let labels: Vec<&str> = samples.iter().map(|&(label, _)| label).collect();
    assert_eq!(labels.first(), Some(&"dax.write"), "{labels:?}");
    assert_eq!(labels.last(), Some(&"dax.parse"), "{labels:?}");
    let inside = &samples[1..samples.len() - 1];
    for label in ["dax.scan", "dax.build", "dax.validate"] {
        assert!(labels.contains(&label), "{label}: {labels:?}");
    }
    // The plan's dependency graph is built inside `dax.validate`.
    let known = ["dax.scan", "dax.build", "dax.validate", "graph.csr"];
    assert!(inside.iter().all(|(l, _)| known.contains(l)), "{labels:?}");
    let parse = samples.last().unwrap().1;
    let nested: f64 = (inside.iter())
        .filter(|(l, _)| l.starts_with("dax."))
        .map(|(_, seconds)| seconds)
        .sum();
    assert!(nested > 0.0 && nested <= parse, "{nested} of {parse}");
}
