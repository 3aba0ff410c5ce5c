//! The synthetic workflow gallery (Montage, CyberShake, Epigenomics,
//! LIGO Inspiral) planned and executed on both platform models —
//! the WMS stack must be application-agnostic, not blast2cap3-shaped.

use gridsim::platforms::{osg, osg_churning, sandhills};
use gridsim::SimBackend;
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor};
use pegasus_wms::planner::{plan, PlannerConfig};
use pegasus_wms::synthetic::{cybershake, epigenomics, ligo_inspiral, montage};
use pegasus_wms::workflow::AbstractWorkflow;

fn run_on(wf: &AbstractWorkflow, site: &str, seed: u64) -> f64 {
    let (sites, tc) = paper_catalogs();
    let mut rc = ReplicaCatalog::new();
    for input in wf.external_inputs(&wf.dataflow()) {
        rc.register(input.name, "submit");
    }
    let exec = plan(wf, &sites, &tc, &rc, &PlannerConfig::for_site(site)).unwrap();
    let platform = match site {
        "sandhills" => sandhills(),
        _ => osg(seed),
    };
    let mut backend = SimBackend::new(platform, seed);
    let run = Engine::run(
        &mut backend,
        &exec,
        &EngineConfig::builder().retries(15).build(),
        &mut NoopMonitor,
    );
    assert!(run.succeeded(), "{} on {site} failed", wf.name);
    run.wall_time
}

#[test]
fn every_gallery_shape_runs_on_both_platforms() {
    for wf in [
        montage(16),
        cybershake(20),
        epigenomics(2, 5),
        ligo_inspiral(3, 5),
    ] {
        let (cp, _) = wf.critical_path().unwrap();
        for site in ["sandhills", "osg"] {
            let wall = run_on(&wf, site, 7);
            // Makespan can never beat the critical path (Sandhills
            // slots are reference speed; OSG can be faster, so allow
            // the mean OSG speed as slack).
            assert!(
                wall >= cp / 2.0,
                "{} on {site}: wall {wall:.0} below critical path {cp:.0}",
                wf.name
            );
            assert!(wall.is_finite() && wall > 0.0);
        }
    }
}

#[test]
fn gallery_shapes_survive_churning_pools() {
    let wf = cybershake(24);
    let (sites, tc) = paper_catalogs();
    let mut rc = ReplicaCatalog::new();
    for input in wf.external_inputs(&wf.dataflow()) {
        rc.register(input.name, "submit");
    }
    let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("osg")).unwrap();
    let mut backend = SimBackend::new(osg_churning(3), 3);
    let run = Engine::run(
        &mut backend,
        &exec,
        &EngineConfig::builder().retries(30).build(),
        &mut NoopMonitor,
    );
    assert!(run.succeeded());
}

#[test]
fn deep_chains_favor_fast_nodes() {
    // Epigenomics is chain-dominated: the OSG model's faster nodes cut
    // pure execution, but installs + waits still hurt; simply check
    // both run and that the sandhills wall is at least the critical
    // path (reference speed).
    let wf = epigenomics(1, 3);
    let (cp, _) = wf.critical_path().unwrap();
    let sh = run_on(&wf, "sandhills", 5);
    assert!(sh >= cp, "sandhills wall {sh:.0} < critical path {cp:.0}");
}
