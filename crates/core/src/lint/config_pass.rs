//! Pass 3: engine/ensemble configuration feasibility.
//!
//! Cross-checks a workflow against the site catalog, transformation
//! catalog, retry policy, and slot budget that a `pegasus run` or
//! `pegasus ensemble` invocation is about to use — exactly the
//! mismatches behind the paper's OSG failures (software assumed
//! preinstalled, retries disabled on a preempting platform).

use super::Diagnostic;
use crate::catalog::{SiteCatalog, TransformationCatalog};
use crate::engine::RetryPolicy;
use crate::error::Span;
use crate::workflow::AbstractWorkflow;

/// Everything the feasibility pass knows about the intended run.
/// All fields are optional so the CLI can lint with whatever subset
/// of `--site`/`--retries`/`--timeout`/`--slots` was given.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunContext<'a> {
    /// Target execution site name.
    pub site: Option<&'a str>,
    /// Site catalog to resolve it in.
    pub sites: Option<&'a SiteCatalog>,
    /// Transformation catalog for software-availability checks.
    pub transformations: Option<&'a TransformationCatalog>,
    /// The retry policy the engine will use.
    pub retry: Option<&'a RetryPolicy>,
    /// Explicit slot budget (ensemble `--slots`), if any.
    pub slot_budget: Option<usize>,
    /// Whether anything injects faults: a fault plan with nonzero
    /// probabilities, or a platform with a nonzero preemption rate.
    pub faults_active: bool,
}

/// Pass 3: emits `E0301` (unknown site), `E0302` (software
/// unavailable and not installable at the site), `W0303` (per-attempt
/// timeout below the fastest possible kickstart), `W0304` (retries
/// disabled while faults are active), and `W0305` (slot budget below
/// the workflow width).
pub fn check_config(wf: &AbstractWorkflow, file: &str, ctx: &RunContext<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    let site = match (ctx.site, ctx.sites) {
        (Some(name), Some(sites)) => match sites.get(name) {
            Some(site) => Some(site),
            None => {
                let mut known = sites.names();
                known.sort();
                diags.push(
                    Diagnostic::new(
                        "E0301",
                        file,
                        Span::none(),
                        format!("site {name:?} not in site catalog"),
                    )
                    .with_help(format!("known sites: {}", known.join(", "))),
                );
                None
            }
        },
        _ => None,
    };

    if let (Some(site), Some(tc)) = (site, ctx.transformations) {
        let mut seen: Vec<&str> = Vec::new();
        for job in &wf.jobs {
            let t = job.transformation.as_str();
            if seen.contains(&t) {
                continue;
            }
            seen.push(t);
            let missing = tc.missing_packages(t, site);
            if missing.is_empty() {
                continue;
            }
            let installable = tc.get(t).is_none_or(|tr| tr.installable);
            if !installable {
                diags.push(
                    Diagnostic::new(
                        "E0302",
                        file,
                        Span::none(),
                        format!(
                            "transformation {:?} needs {} at site {:?} but declares no install step",
                            t,
                            missing.join(", "),
                            site.name
                        ),
                    )
                    .with_help(
                        "preinstall the packages on the site or mark the transformation installable",
                    ),
                );
            }
        }
    }

    if let Some(policy) = ctx.retry {
        if let Some(timeout) = policy.timeout {
            // The fastest any compute attempt can finish: the smallest
            // nonzero runtime hint, sped up by the site's CPU factor.
            let speed = site
                .map(|s| s.cpu_speed)
                .unwrap_or(1.0)
                .max(f64::MIN_POSITIVE);
            let min_kickstart = wf
                .jobs
                .iter()
                .map(|j| j.runtime_hint / speed)
                .filter(|r| *r > 0.0)
                .fold(f64::INFINITY, f64::min);
            if min_kickstart.is_finite() && timeout < min_kickstart {
                diags.push(
                    Diagnostic::new(
                        "W0303",
                        file,
                        Span::none(),
                        format!(
                            "per-attempt timeout {timeout}s is below the minimum kickstart \
                             {min_kickstart:.1}s; every attempt of every job will time out"
                        ),
                    )
                    .with_help("raise --timeout above the smallest job runtime"),
                );
            }
        }
        if policy.max_attempts <= 1 && ctx.faults_active {
            diags.push(
                Diagnostic::new(
                    "W0304",
                    file,
                    Span::none(),
                    "retries are disabled but the platform or fault plan injects faults",
                )
                .with_help("any preemption fails the whole run; raise --retries"),
            );
        }
    }

    if let Some(budget) = ctx.slot_budget {
        if let Ok(width) = wf.width() {
            if budget < width {
                diags.push(
                    Diagnostic::new(
                        "W0305",
                        file,
                        Span::none(),
                        format!(
                            "slot budget {budget} is below the workflow's maximum width {width}"
                        ),
                    )
                    .with_help("the widest level will be serialized by slot starvation"),
                );
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{paper_catalogs, Transformation};
    use crate::workflow::declare_job;

    fn cap3_wf() -> AbstractWorkflow {
        let mut wf = AbstractWorkflow::new("w");
        declare_job(&mut wf, "split", "split", 30.0, &[], &[("p", 0)]);
        declare_job(&mut wf, "cap3", "run_cap3", 300.0, &[("p", 0)], &[]);
        wf
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn unknown_site_names_the_alternatives() {
        let (sites, tc) = paper_catalogs();
        let ctx = RunContext {
            site: Some("mars"),
            sites: Some(&sites),
            transformations: Some(&tc),
            ..Default::default()
        };
        let diags = check_config(&cap3_wf(), "w.dax", &ctx);
        assert_eq!(codes(&diags), ["E0301"]);
        assert!(diags[0].help.as_deref().unwrap().contains("sandhills"));
    }

    #[test]
    fn uninstallable_software_on_osg_is_an_error() {
        let (sites, mut tc) = paper_catalogs();
        tc.add(
            Transformation::new("cap3_native")
                .requires_pkg("cap3")
                .not_installable(),
        );
        let mut wf = cap3_wf();
        declare_job(&mut wf, "native", "cap3_native", 1.0, &[("p", 0)], &[]);
        let ctx = RunContext {
            site: Some("osg"),
            sites: Some(&sites),
            transformations: Some(&tc),
            ..Default::default()
        };
        let diags = check_config(&wf, "w.dax", &ctx);
        assert_eq!(codes(&diags), ["E0302"]);
        // Sandhills has everything preinstalled, so the same workflow
        // is clean there — the paper's platform asymmetry.
        let ctx = RunContext {
            site: Some("sandhills"),
            ..ctx
        };
        assert!(check_config(&wf, "w.dax", &ctx).is_empty());
    }

    #[test]
    fn timeout_below_kickstart_warns() {
        let policy = RetryPolicy::flat(3).with_timeout(5.0);
        let ctx = RunContext {
            retry: Some(&policy),
            ..Default::default()
        };
        let diags = check_config(&cap3_wf(), "w.dax", &ctx);
        assert_eq!(codes(&diags), ["W0303"]);
        let ok = RetryPolicy::flat(3).with_timeout(4000.0);
        let ctx = RunContext {
            retry: Some(&ok),
            ..Default::default()
        };
        assert!(check_config(&cap3_wf(), "w.dax", &ctx).is_empty());
    }

    #[test]
    fn zero_retries_under_faults_warns() {
        let policy = RetryPolicy::flat(0);
        let ctx = RunContext {
            retry: Some(&policy),
            faults_active: true,
            ..Default::default()
        };
        assert_eq!(codes(&check_config(&cap3_wf(), "w.dax", &ctx)), ["W0304"]);
        let ctx = RunContext {
            faults_active: false,
            ..ctx
        };
        assert!(check_config(&cap3_wf(), "w.dax", &ctx).is_empty());
    }

    #[test]
    fn slot_budget_below_width_warns() {
        let mut wf = AbstractWorkflow::new("w");
        declare_job(&mut wf, "src", "t", 1.0, &[], &[("f", 0)]);
        for i in 0..3 {
            declare_job(&mut wf, &format!("c{i}"), "t", 1.0, &[("f", 0)], &[]);
        }
        let ctx = RunContext {
            slot_budget: Some(2),
            ..Default::default()
        };
        assert_eq!(codes(&check_config(&wf, "w.dax", &ctx)), ["W0305"]);
        let ctx = RunContext {
            slot_budget: Some(3),
            ..Default::default()
        };
        assert!(check_config(&wf, "w.dax", &ctx).is_empty());
    }
}
