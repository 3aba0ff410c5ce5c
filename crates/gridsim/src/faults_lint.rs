//! Fault-plan lint pass: the E02xx/W02xx rules of `pegasus lint`.
//!
//! [`lint_plan`] cross-checks a parsed [`FaultPlan`] against the
//! abstract workflow and retry policy it will be replayed under, and
//! returns [`Diagnostic`]s in the shared
//! [`pegasus_wms::lint`] vocabulary:
//!
//! * `E0201 fault-target-unknown-job` — a `target=` prefix that no
//!   abstract job id (and no planner-generated auxiliary prefix) can
//!   match, so the scenario silently bites nothing;
//! * `W0202 overlapping-blackouts` — two slot-blackout windows that
//!   intersect in both time and slot range, double-counting capacity;
//! * `E0203 probability-out-of-range` — not raised here: the text
//!   parser refuses a probability outside `[0, 1]` under this code,
//!   at its line;
//! * `W0204 inert-scenario` — a window or probability that makes the
//!   scenario a no-op;
//! * `W0205 unreachable-scenario` — a window that opens after any
//!   feasible finish of the workflow given the retry budget.
//!
//! The pass lives in `gridsim` rather than the core crate because the
//! [`Scenario`] vocabulary does; the core `lint` module only defines
//! the rule registry entries.

use crate::faults::{FaultPlan, Scenario};
use pegasus_wms::engine::RetryPolicy;
use pegasus_wms::error::Span;
use pegasus_wms::lint::Diagnostic;
use pegasus_wms::workflow::AbstractWorkflow;

/// Planner-generated executable-job name prefixes that never appear
/// in the abstract workflow but are legitimate fault targets.
const AUX_PREFIXES: &[&str] = &["create_dir", "stage_in", "stage_out", "cleanup", "cluster"];

/// What the fault plan will run against, for cross-checking. Every
/// field is optional: absent context simply disables the rules that
/// need it.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanLintContext<'a> {
    /// The workflow the plan targets (enables `E0201` and `W0205`).
    pub workflow: Option<&'a AbstractWorkflow>,
    /// The retry policy in force (sharpens the `W0205` horizon).
    pub retry: Option<&'a RetryPolicy>,
}

/// The line the parser read scenario `idx` from; unknown for a plan
/// built in code.
fn span_of(plan: &FaultPlan, idx: usize) -> Span {
    plan.spans.get(idx).copied().unwrap_or_else(Span::none)
}

/// The scenario's directive word, for messages.
fn directive(s: &Scenario) -> &'static str {
    match s {
        Scenario::PreemptionStorm { .. } => "preemption-storm",
        Scenario::SlotBlackout { .. } => "slot-blackout",
        Scenario::Straggler { .. } => "straggler",
        Scenario::InstallFailureBurst { .. } => "install-failure-burst",
        Scenario::SubmitHostCrash { .. } => "submit-host-crash",
    }
}

/// Lints `plan` against the run context; `file` labels diagnostics.
///
/// Deterministic: diagnostics come out in scenario order, one pass
/// per rule family, no I/O.
pub fn lint_plan(plan: &FaultPlan, file: &str, ctx: &PlanLintContext) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    for (idx, s) in plan.scenarios.iter().enumerate() {
        let span = span_of(plan, idx);
        check_target(s, span, file, ctx.workflow, &mut diags);
        check_inert(s, span, file, &mut diags);
        check_reachable(s, span, file, ctx, &mut diags);
    }
    check_blackout_overlaps(plan, file, &mut diags);
    diags
}

/// `E0201`: a `target=` prefix nothing in the plan's workflow can match.
fn check_target(
    s: &Scenario,
    span: Span,
    file: &str,
    wf: Option<&AbstractWorkflow>,
    diags: &mut Vec<Diagnostic>,
) {
    let (Scenario::PreemptionStorm {
        target: Some(t), ..
    }
    | Scenario::Straggler {
        target: Some(t), ..
    }
    | Scenario::InstallFailureBurst {
        target: Some(t), ..
    }) = s
    else {
        return;
    };
    let Some(wf) = wf else { return };
    let hits_aux = AUX_PREFIXES.iter().any(|p| p.starts_with(t.as_str()));
    let hits_job = wf.jobs.iter().any(|j| j.id.starts_with(t.as_str()));
    if !hits_aux && !hits_job {
        diags.push(
            Diagnostic::new(
                "E0201",
                file,
                span,
                format!(
                    "{} target {t:?} matches no job in workflow {:?}",
                    directive(s),
                    wf.name
                ),
            )
            .with_help(
                "targets match executable job names by prefix; abstract job ids carry over \
                 unchanged, and auxiliary jobs use the create_dir/stage_in/stage_out/\
                 cleanup/cluster prefixes",
            ),
        );
    }
}

/// `W0204`: scenarios that can never change an outcome.
fn check_inert(s: &Scenario, span: Span, file: &str, diags: &mut Vec<Diagnostic>) {
    let reason = match *s {
        Scenario::PreemptionStorm {
            duration,
            kill_probability,
            ..
        } => inert_window(duration, Some(kill_probability), None),
        Scenario::Straggler {
            duration,
            slowdown,
            probability,
            ..
        } => inert_window(duration, Some(probability), None).or(if slowdown == 1.0 {
            Some("slowdown is 1".to_string())
        } else {
            None
        }),
        Scenario::InstallFailureBurst {
            duration,
            fail_probability,
            ..
        } => inert_window(duration, Some(fail_probability), None),
        Scenario::SlotBlackout {
            duration,
            slot_count,
            ..
        } => inert_window(duration, None, Some(slot_count)),
        Scenario::SubmitHostCrash { .. } => None,
    };
    if let Some(reason) = reason {
        diags.push(
            Diagnostic::new(
                "W0204",
                file,
                span,
                format!("{} can never fire: {reason}", directive(s)),
            )
            .with_help("delete the scenario or give it a positive window and probability"),
        );
    }
}

fn inert_window(duration: f64, probability: Option<f64>, count: Option<usize>) -> Option<String> {
    // `<=` alone would miss NaN, which is just as inert.
    if duration <= 0.0 || duration.is_nan() {
        return Some(format!("duration is {duration}"));
    }
    if let Some(p) = probability {
        if p == 0.0 {
            return Some("probability is 0".to_string());
        }
    }
    if count == Some(0) {
        return Some("slot count is 0".to_string());
    }
    None
}

/// `W0205`: windows that open after any feasible finish. The horizon
/// is deliberately generous — serial runtime of every job, times the
/// retry budget, times a 10× slack factor for queueing and installs —
/// so it only fires on plans that are off by orders of magnitude.
fn check_reachable(
    s: &Scenario,
    span: Span,
    file: &str,
    ctx: &PlanLintContext,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(wf) = ctx.workflow else { return };
    let serial: f64 = wf.jobs.iter().map(|j| j.runtime_hint).sum();
    if serial <= 0.0 {
        return; // no runtime hints — no horizon to reason about
    }
    let attempts = ctx.retry.map_or(3, |r| r.max_attempts).max(1) as f64;
    let horizon = serial * attempts * 10.0;
    let start = match *s {
        Scenario::PreemptionStorm { start, .. }
        | Scenario::SlotBlackout { start, .. }
        | Scenario::Straggler { start, .. }
        | Scenario::InstallFailureBurst { start, .. } => start,
        Scenario::SubmitHostCrash { .. } => return,
    };
    if start > horizon {
        diags.push(
            Diagnostic::new(
                "W0205",
                file,
                span,
                format!(
                    "{} starts at {start} but the workflow cannot still be running past \
                     ~{horizon} (serial runtime {serial} x {attempts} attempts x 10)",
                    directive(s)
                ),
            )
            .with_help("move the window earlier or drop the scenario"),
        );
    }
}

/// `W0202`: pairwise blackout overlap in both time and slot range.
fn check_blackout_overlaps(plan: &FaultPlan, file: &str, diags: &mut Vec<Diagnostic>) {
    let blackouts: Vec<(usize, f64, f64, usize, usize)> = plan
        .scenarios
        .iter()
        .enumerate()
        .filter_map(|(idx, s)| match *s {
            Scenario::SlotBlackout {
                start,
                duration,
                first_slot,
                slot_count,
            } => Some((idx, start, duration, first_slot, slot_count)),
            _ => None,
        })
        .collect();
    for (i, &(ai, a_start, a_dur, a_first, a_count)) in blackouts.iter().enumerate() {
        for &(bi, b_start, b_dur, b_first, b_count) in &blackouts[i + 1..] {
            let time_overlap = a_start < b_start + b_dur && b_start < a_start + a_dur;
            let slot_overlap = a_first < b_first + b_count && b_first < a_first + a_count;
            if time_overlap && slot_overlap {
                let a_span = span_of(plan, ai);
                let b_span = span_of(plan, bi);
                let where_a = if a_span.is_none() {
                    format!("scenario {}", ai + 1)
                } else {
                    format!("line {}", a_span.line)
                };
                diags.push(
                    Diagnostic::new(
                        "W0202",
                        file,
                        b_span,
                        format!(
                            "slot-blackout overlaps the slot-blackout at {where_a} in both \
                             time and slot range"
                        ),
                    )
                    .with_help(
                        "overlapping windows double-count the same slots; merge them or \
                         separate the ranges",
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_wms::symbols::Args;

    fn wf() -> AbstractWorkflow {
        let mut w = AbstractWorkflow::new("blast2cap3");
        let mut rows = w.declare();
        let none: [(&str, u64); 0] = [];
        for id in ["split", "run_cap3_1", "run_cap3_2", "merge"] {
            rows.job(id, "t", Args::new(), 100.0, none, none).unwrap();
        }
        drop(rows);
        w
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_targeted_plan_produces_nothing() {
        let text =
            "plan p\npreemption-storm start=10 duration=50 kill-probability=0.5 target=run_cap3\n";
        let plan = FaultPlan::parse(text).unwrap();
        let w = wf();
        let ctx = PlanLintContext {
            workflow: Some(&w),
            retry: None,
        };
        assert!(lint_plan(&plan, "p.fp", &ctx).is_empty());
    }

    #[test]
    fn unknown_target_is_e0201_with_the_right_line() {
        let text =
            "plan p\n\npreemption-storm start=10 duration=50 kill-probability=0.5 target=blastn\n";
        let plan = FaultPlan::parse(text).unwrap();
        let w = wf();
        let ctx = PlanLintContext {
            workflow: Some(&w),
            retry: None,
        };
        let diags = lint_plan(&plan, "p.fp", &ctx);
        assert_eq!(codes(&diags), vec!["E0201"]);
        assert_eq!(diags[0].span.line, 3);
        assert!(diags[0].message.contains("blastn"), "{}", diags[0].message);
        // Auxiliary-job prefixes are legitimate targets.
        let aux = FaultPlan::parse(
            "straggler start=0 duration=50 slowdown=2 probability=0.5 target=stage_in\n",
        )
        .unwrap();
        assert!(lint_plan(&aux, "p.fp", &ctx).is_empty());
        // Without a workflow the rule is disabled.
        let blind = PlanLintContext::default();
        assert!(lint_plan(&plan, "p.fp", &blind).is_empty());
    }

    #[test]
    fn overlapping_blackouts_are_w0202() {
        let text = "slot-blackout start=0 duration=100 first-slot=0 count=8\n\
                    slot-blackout start=50 duration=100 first-slot=4 count=8\n\
                    slot-blackout start=50 duration=100 first-slot=32 count=8\n";
        let plan = FaultPlan::parse(text).unwrap();
        let ctx = PlanLintContext::default();
        let diags = lint_plan(&plan, "p.fp", &ctx);
        // Only the pair sharing slots 4..8 overlaps; disjoint slot
        // ranges at the same time are fine.
        assert_eq!(codes(&diags), vec!["W0202"]);
        assert_eq!(diags[0].span.line, 2);
        assert!(diags[0].message.contains("line 1"), "{}", diags[0].message);
    }

    #[test]
    fn inert_scenarios_are_w0204() {
        let text = "preemption-storm start=0 duration=0 kill-probability=0.5\n\
                    straggler start=0 duration=100 slowdown=1 probability=0.5\n\
                    install-failure-burst start=0 duration=100 fail-probability=0\n\
                    slot-blackout start=0 duration=100 first-slot=0 count=0\n";
        let plan = FaultPlan::parse(text).unwrap();
        let ctx = PlanLintContext::default();
        let diags = lint_plan(&plan, "p.fp", &ctx);
        assert_eq!(codes(&diags), vec!["W0204", "W0204", "W0204", "W0204"]);
        let lines: Vec<usize> = diags.iter().map(|d| d.span.line).collect();
        assert_eq!(lines, vec![1, 2, 3, 4]);
    }

    #[test]
    fn far_future_windows_are_w0205() {
        // Serial runtime 400 x 3 attempts x 10 slack = horizon 12000.
        let text = "preemption-storm start=50000 duration=100 kill-probability=0.5\n";
        let plan = FaultPlan::parse(text).unwrap();
        let w = wf();
        let ctx = PlanLintContext {
            workflow: Some(&w),
            retry: None,
        };
        let diags = lint_plan(&plan, "p.fp", &ctx);
        assert_eq!(codes(&diags), vec!["W0205"]);
        // A bigger retry budget pushes the horizon past the window.
        let generous = RetryPolicy {
            max_attempts: 20,
            ..RetryPolicy::flat(0)
        };
        let ctx = PlanLintContext {
            workflow: Some(&w),
            retry: Some(&generous),
        };
        assert!(lint_plan(&plan, "p.fp", &ctx).is_empty());
    }
}
