//! The Pegasus workflow gallery on both platform models.
//!
//! Runs the four classic synthetic application shapes (Montage,
//! CyberShake, Epigenomics, LIGO Inspiral) through the planner,
//! engine, and both platform simulators — demonstrating that the WMS
//! stack is not specific to the blast2cap3 shape, and showing how the
//! campus-cluster/grid trade-off shifts with workflow structure.
//!
//! No verb reproduces it: `generate-workload` cannot spell `ligo_inspiral(4, 8)`.

use blast2cap3_pegasus::experiment::{builtin_registry, registry_catalogs};
use pegasus_wms::planner::{plan, PlannerConfig};
use pegasus_wms::synthetic::{cybershake, epigenomics, ligo_inspiral, montage};
use pegasus_wms::workflow::AbstractWorkflow;
use wms_bench::simulated_wall;

fn simulate(wf: &AbstractWorkflow, site: &str, seed: u64) -> f64 {
    let registry = builtin_registry();
    let id = registry.resolve(site).expect("built-in site");
    let (sites, tc, mut rc) = registry_catalogs(registry);
    for input in wf.external_inputs(&wf.dataflow()) {
        rc.register(input.name, "submit");
    }
    let cfg = PlannerConfig::for_site(registry.catalog_name(id));
    let exec = plan(wf, &sites, &tc, &rc, &cfg).expect("plan");
    simulated_wall(site, &exec, seed, 10)
}

pub fn run() {
    let shapes = [
        ("montage", montage(30)),
        ("cybershake", cybershake(40)),
        ("epigenomics", epigenomics(2, 8)),
        ("ligo", ligo_inspiral(4, 8)),
    ];
    for (name, wf) in &shapes {
        let sh = simulate(wf, "sandhills", 42);
        let og = simulate(wf, "osg", 42);
        outln!(
            "gallery {name:<12} ({} jobs): sandhills {sh:.0}s, osg {og:.0}s",
            wf.jobs.len()
        );
    }
}
