//! Pass 3: engine/ensemble configuration feasibility.
//!
//! Cross-checks a workflow against the site, transformation catalog
//! and retry policy that a `pegasus run` or `pegasus ensemble`
//! invocation is about to use — exactly the mismatches behind the
//! paper's OSG failures (software assumed preinstalled, retries
//! disabled on a preempting platform). The site arrives resolved: an
//! unknown name is the resolver's `E0301`, and a slot budget is
//! judged by [`crate::verify::check_ensemble_feasibility`].

use super::Diagnostic;
use crate::catalog::{Site, TransformationCatalog};
use crate::engine::RetryPolicy;
use crate::error::Span;
use crate::workflow::AbstractWorkflow;

/// Everything the feasibility pass knows about the intended run.
/// All fields are optional so the CLI can lint with whatever subset
/// of `--site`/`--retries`/`--timeout` was given.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunContext<'a> {
    /// The target site's catalog entry.
    pub site: Option<&'a Site>,
    /// Transformation catalog for software-availability checks.
    pub transformations: Option<&'a TransformationCatalog>,
    /// The retry policy the engine will use.
    pub retry: Option<&'a RetryPolicy>,
    /// Whether anything injects faults: a fault plan with nonzero
    /// probabilities, or a platform with a nonzero preemption rate.
    pub faults_active: bool,
}

/// Pass 3: emits `E0302` (software unavailable and not installable at
/// the site), `W0303` (per-attempt timeout below the fastest possible
/// kickstart) and `W0304` (retries disabled while faults are active).
pub fn check_config(wf: &AbstractWorkflow, file: &str, ctx: &RunContext<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    if let (Some(site), Some(tc)) = (ctx.site, ctx.transformations) {
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
            let speed = ctx.site.map_or(1.0, |s| s.cpu_speed).max(f64::MIN_POSITIVE);
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
            site: sites.get("osg"),
            transformations: Some(&tc),
            ..Default::default()
        };
        let diags = check_config(&wf, "w.dax", &ctx);
        assert_eq!(codes(&diags), ["E0302"]);
        // Sandhills has everything preinstalled, so the same workflow
        // is clean there — the paper's platform asymmetry.
        let ctx = RunContext {
            site: sites.get("sandhills"),
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
}
