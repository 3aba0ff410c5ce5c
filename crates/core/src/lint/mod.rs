//! `pegasus lint`: a compiler-style diagnostics engine for workflows,
//! fault plans, engine configurations, and provenance event streams.
//!
//! The paper's OSG runs fail for reasons that are knowable *before*
//! submission — missing preinstalled software, infeasible resource
//! requests, misconfigured retries (Pavlovikj et al., §IV–V).  This
//! module catches those at plan time the way a compiler front-end
//! catches type errors: every finding is a typed [`Diagnostic`] with a
//! stable code (`E01xx` DAX structure, `E02xx`/`W02xx` fault plans,
//! `E03xx`/`W03xx` configuration feasibility, `E07xx`/`W07xx` and
//! `E08xx` event streams), a [`Severity`], a file/line/col [`Span`], a
//! message, and an optional `help` note.
//!
//! Rules live in a static registry (`RULES`) with per-rule default
//! levels that a [`LintConfig`] can override (`allow`/`warn`/`deny`),
//! mirroring `rustc`'s `-A`/`-W`/`-D` lint flags.  The passes are
//! deterministic: diagnostics are sorted by (file, span, code,
//! message) before rendering, so both the text and JSON renderers are
//! byte-stable for golden-file comparison in CI.
//!
//! Passes:
//! - [`check_workflow`]: DAX structural analysis (cycles with the full
//!   path, duplicate ids, disconnected jobs, never-consumed files,
//!   suspicious fan-in/out, unknown transformations).
//! - [`check_config`]: engine/ensemble feasibility against a site
//!   (uninstallable software, timeout below the minimum kickstart,
//!   retries disabled under faults).
//! - [`check_events`]: the event-stream sanitizer — the prefix-closed
//!   clauses of the [`crate::verify`] invariant walker over
//!   [`crate::events::log`] streams, under their `E08xx` codes, so
//!   replayed provenance is validated, not trusted.
//!
//! Fault-plan cross-checking (`E0201` etc.) lives in
//! `gridsim::faults_lint` because `gridsim` owns the `Scenario`
//! type; it returns the same [`Diagnostic`] values.

mod config_pass;
mod dax_pass;

pub use config_pass::{check_config, RunContext};
pub use dax_pass::{check_workflow, DaxLintOptions};

use crate::error::{Format, Span, WmsError};
use crate::events::WorkflowEvent;
use crate::trace::write_json_str;
use crate::verify::{StreamWalker, VerifyOptions};
use std::fmt;

/// How serious a diagnostic is after level resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not fatal; does not fail the lint by default.
    Warning,
    /// The input is wrong; `pegasus lint` exits nonzero.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Per-rule reporting level, mirroring rustc's `-A`/`-W`/`-D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    /// Suppress the rule entirely.
    Allow,
    /// Report as a [`Severity::Warning`].
    Warn,
    /// Report as a [`Severity::Error`].
    Deny,
}

/// One entry in the static rule registry.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable diagnostic code, e.g. `"E0103"` or `"W0402"`.
    pub(crate) code: &'static str,
    /// Kebab-case rule name, accepted anywhere a code is.
    pub(crate) name: &'static str,
    /// Default reporting level.
    pub(crate) default: Level,
    /// One-line description for `--help` style listings and docs.
    pub(crate) summary: &'static str,
}

/// Every rule `pegasus lint` knows, sorted by code.
pub(crate) const RULES: &[Rule] = &[
    Rule {
        code: "E0101",
        name: "dax-syntax",
        default: Level::Deny,
        summary: "the DAX document is not well-formed XML",
    },
    Rule {
        code: "E0102",
        name: "duplicate-job",
        default: Level::Deny,
        summary: "a job id is declared more than once",
    },
    Rule {
        code: "E0103",
        name: "workflow-cycle",
        default: Level::Deny,
        summary: "the dependency graph contains a cycle (reported with its full path)",
    },
    Rule {
        code: "E0104",
        name: "conflicting-producers",
        default: Level::Deny,
        summary: "an output file is declared more than once (by two jobs, or twice by one)",
    },
    Rule {
        code: "E0105",
        name: "unknown-edge-reference",
        default: Level::Deny,
        summary: "a <child>/<parent> edge references a job id that does not exist",
    },
    Rule {
        code: "E0201",
        name: "fault-target-unknown-job",
        default: Level::Deny,
        summary: "a fault-plan scenario targets a job name the workflow cannot produce",
    },
    Rule {
        code: "W0202",
        name: "overlapping-blackouts",
        default: Level::Warn,
        summary: "two slot-blackout windows overlap in both time and slot range",
    },
    Rule {
        code: "E0203",
        name: "probability-out-of-range",
        default: Level::Deny,
        summary: "a fault probability lies outside [0, 1]",
    },
    Rule {
        code: "W0204",
        name: "inert-scenario",
        default: Level::Warn,
        summary: "a scenario has a zero-length window or zero probability and can never fire",
    },
    Rule {
        code: "W0205",
        name: "unreachable-scenario",
        default: Level::Warn,
        summary: "a scenario starts after any feasible finish given the retry limits",
    },
    Rule {
        code: "E0206",
        name: "fault-plan-syntax",
        default: Level::Deny,
        summary: "the fault plan is not syntactically valid",
    },
    Rule {
        code: "E0301",
        name: "unknown-site",
        default: Level::Deny,
        summary: "the requested site is not in the site catalog",
    },
    Rule {
        code: "E0302",
        name: "unresolvable-transformation",
        default: Level::Deny,
        summary: "a transformation is unavailable at the site and not installable",
    },
    Rule {
        code: "W0303",
        name: "timeout-below-kickstart",
        default: Level::Warn,
        summary: "the per-attempt timeout is below the fastest possible kickstart",
    },
    Rule {
        code: "W0304",
        name: "retries-disabled-under-faults",
        default: Level::Warn,
        summary: "retries are disabled although the platform or fault plan injects faults",
    },
    Rule {
        code: "W0401",
        name: "disconnected-job",
        default: Level::Warn,
        summary: "a job shares no files or edges with the rest of the workflow",
    },
    Rule {
        code: "W0402",
        name: "unconsumed-file",
        default: Level::Warn,
        summary: "an intermediate output is consumed by no job",
    },
    Rule {
        code: "W0403",
        name: "excessive-fan-out",
        default: Level::Warn,
        summary: "a job has more children than the fan limit",
    },
    Rule {
        code: "W0404",
        name: "excessive-fan-in",
        default: Level::Warn,
        summary: "a job has more parents than the fan limit",
    },
    Rule {
        code: "W0405",
        name: "unknown-transformation",
        default: Level::Warn,
        summary: "a job's transformation has no transformation-catalog entry",
    },
    Rule {
        code: "E0501",
        name: "duplicate-site",
        default: Level::Deny,
        summary: "a site name is declared twice in the definitions file",
    },
    Rule {
        code: "E0502",
        name: "duplicate-alias",
        default: Level::Deny,
        summary: "an alias is declared for more than one site",
    },
    Rule {
        code: "E0503",
        name: "alias-shadows-site",
        default: Level::Deny,
        summary: "an alias collides with a declared site name",
    },
    Rule {
        code: "E0504",
        name: "slots-out-of-range",
        default: Level::Deny,
        summary: "a site's slot count lies outside the range sites.def admits",
    },
    Rule {
        code: "E0505",
        name: "negative-site-parameter",
        default: Level::Deny,
        summary: "a site rate, delay, or factor is negative",
    },
    Rule {
        code: "E0506",
        name: "undefined-site-reference",
        default: Level::Deny,
        summary: "a catalog-site reference names no defined site",
    },
    Rule {
        code: "E0507",
        name: "site-def-syntax",
        default: Level::Deny,
        summary: "the site-definitions file does not parse",
    },
    Rule {
        code: "E0601",
        name: "consumed-without-producer",
        default: Level::Deny,
        summary: "a planned job consumes a file with no producer job and no stage-in",
    },
    Rule {
        code: "W0602",
        name: "dead-stage-out",
        default: Level::Warn,
        summary: "a stage-out job transfers a file no compute job produces",
    },
    Rule {
        code: "W0603",
        name: "orphan-stage-in",
        default: Level::Warn,
        summary: "a stage-in job transfers a file no downstream job consumes",
    },
    Rule {
        code: "W0604",
        name: "storage-footprint-exceeded",
        default: Level::Warn,
        summary: "the plan's peak resident file footprint exceeds the storage bound",
    },
    Rule {
        code: "E0605",
        name: "infeasible-slot-budget",
        default: Level::Deny,
        summary: "an ensemble quota of zero admits no member: the ensemble deadlocks",
    },
    Rule {
        code: "W0606",
        name: "quota-below-width",
        default: Level::Warn,
        summary: "the global slot budget or a tenant's in-flight quota is below a member's width",
    },
    Rule {
        code: "W0707",
        name: "truncated-stream",
        default: Level::Warn,
        summary: "the stream has no workflow-finished (crashed or still-running run)",
    },
    Rule {
        code: "E0708",
        name: "event-log-syntax",
        default: Level::Deny,
        summary: "the event log is not syntactically valid",
    },
    Rule {
        code: "E0801",
        name: "unterminated-submission",
        default: Level::Deny,
        summary: "a successful run left a submitted attempt with no terminal event",
    },
    Rule {
        code: "E0802",
        name: "attempt-regression",
        default: Level::Deny,
        summary: "a job's attempt numbers are not dense and strictly increasing",
    },
    Rule {
        code: "E0803",
        name: "phase-precedence",
        default: Level::Deny,
        summary:
            "an attempt's phases violate the submitted -> install -> started -> terminal order",
    },
    Rule {
        code: "E0804",
        name: "slot-capacity-exceeded",
        default: Level::Deny,
        summary: "more attempts run concurrently than the site has execution slots",
    },
    Rule {
        code: "E0805",
        name: "retry-envelope",
        default: Level::Deny,
        summary: "a retry's gap or backoff violates the configured backoff/jitter envelope",
    },
    Rule {
        code: "E0806",
        name: "finish-consistency",
        default: Level::Deny,
        summary: "the workflow-finished trailer contradicts the stream it closes",
    },
    Rule {
        code: "E0807",
        name: "stream-framing",
        default: Level::Deny,
        summary: "the header/manifest framing is broken (declarations, counts, ranges)",
    },
    Rule {
        code: "E0808",
        name: "time-consistency",
        default: Level::Deny,
        summary: "an event's timestamps contradict each other or the stream order",
    },
    Rule {
        code: "E0809",
        name: "trace-mismatch",
        default: Level::Deny,
        summary: "the event log's trace id disagrees with the journaled submission",
    },
];

/// Looks a rule up by code (`"E0103"`) or kebab-case name
/// (`"workflow-cycle"`).
pub fn rule(code_or_name: &str) -> Option<&'static Rule> {
    RULES
        .iter()
        .find(|r| r.code == code_or_name || r.name == code_or_name)
}

/// One finding, modeled on a compiler diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Registry code, e.g. `"W0402"`.
    pub code: &'static str,
    /// Severity after the rule's default level (before overrides).
    pub severity: Severity,
    /// The file the finding is about, as given on the command line.
    pub(crate) file: String,
    /// Position inside `file`; [`Span::none`] when the finding is
    /// about the input as a whole.
    pub span: Span,
    /// Human-readable statement of the problem.
    pub message: String,
    /// Optional suggestion for fixing it.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic for a registered rule; the severity follows
    /// the rule's default level.
    ///
    /// # Panics
    /// Panics if `code` is not in `RULES` — lint passes only emit
    /// registered codes.
    pub fn new(
        code: &'static str,
        file: impl Into<String>,
        span: Span,
        message: impl Into<String>,
    ) -> Self {
        let r = rule(code).unwrap_or_else(|| panic!("unregistered lint code {code}"));
        Diagnostic {
            code,
            severity: match r.default {
                Level::Deny => Severity::Error,
                _ => Severity::Warning,
            },
            file: file.into(),
            span,
            message: message.into(),
            help: None,
        }
    }

    /// The one conversion of a refused input into a finding about
    /// `file`. A parser's refusal is read off as it stands — code,
    /// span, reason — because its raise site already said which rule
    /// was broken. No parser returns anything else; an error that is
    /// not about a place in a text is a finding about the whole input,
    /// under the rule its variant names.
    pub fn from_error(err: &WmsError, file: impl Into<String>) -> Self {
        let whole = |code| (code, Span::none(), err.to_string());
        let (code, span, message) = match err {
            WmsError::Parse {
                code, span, reason, ..
            } => (*code, *span, reason.clone()),
            WmsError::DuplicateJob(_) => whole("E0102"),
            WmsError::CycleDetected(_) => whole("E0103"),
            WmsError::ConflictingProducer { .. } => whole("E0104"),
            WmsError::UnknownJob(_) => whole("E0105"),
            WmsError::UnknownSite { .. } => whole("E0301"),
            WmsError::UnresolvableTransformation { .. } => whole("E0302"),
            WmsError::QuotaExceeded { .. } => whole("E0605"),
            WmsError::InvariantViolation { .. } => whole("E0807"),
        };
        let d = Diagnostic::new(code, file, span, message);
        match err {
            WmsError::Parse {
                format: Format::SiteDef,
                ..
            } => d.with_help("see DESIGN.md \u{a7}11 for the sites.def format"),
            _ => d,
        }
    }

    /// Attaches a `help:` note.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

/// Per-run level overrides, the `--deny`/`--allow` surface.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Treat every warning as an error (`--deny warnings`).
    pub(crate) deny_warnings: bool,
    /// Per-rule overrides by code or name, applied after defaults.
    pub(crate) overrides: Vec<(String, Level)>,
}

impl LintConfig {
    /// Parses one `--deny`-style argument: `warnings`, a code, or a
    /// rule name; comma-separated lists are accepted.
    ///
    /// # Errors
    /// Returns the offending token when it names no known rule.
    pub fn deny(&mut self, spec: &str) -> Result<(), String> {
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if tok == "warnings" {
                self.deny_warnings = true;
            } else if let Some(r) = rule(tok) {
                self.overrides.push((r.code.to_string(), Level::Deny));
            } else {
                return Err(tok.to_string());
            }
        }
        Ok(())
    }

    /// Parses one `--allow`-style argument (codes or names, commas).
    ///
    /// # Errors
    /// Returns the offending token when it names no known rule.
    pub fn allow(&mut self, spec: &str) -> Result<(), String> {
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(r) = rule(tok) {
                self.overrides.push((r.code.to_string(), Level::Allow));
            } else {
                return Err(tok.to_string());
            }
        }
        Ok(())
    }
}

/// Applies level overrides and imposes the deterministic report order:
/// allowed rules are dropped, denied rules (and, under
/// `deny_warnings`, every warning) are promoted to errors, and the
/// result is sorted by (file, span, code, message).
pub fn resolve(mut diags: Vec<Diagnostic>, config: &LintConfig) -> Vec<Diagnostic> {
    diags.retain_mut(|d| {
        let mut level = None;
        for (code, l) in &config.overrides {
            if *code == d.code {
                level = Some(*l);
            }
        }
        match level {
            Some(Level::Allow) => return false,
            Some(Level::Deny) => d.severity = Severity::Error,
            Some(Level::Warn) => d.severity = Severity::Warning,
            None => {
                if config.deny_warnings && d.severity == Severity::Warning {
                    d.severity = Severity::Error;
                }
            }
        }
        true
    });
    diags.sort_by(|a, b| {
        (&a.file, a.span, a.code, &a.message).cmp(&(&b.file, b.span, b.code, &b.message))
    });
    diags
}

/// True when any diagnostic is an error (the nonzero-exit condition).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Pass 4: sanitizes one event stream before provenance is replayed —
/// `pegasus statistics --from-events` and friends fold whatever the
/// log says into CSVs, so a corrupted log must be rejected, not
/// trusted.
///
/// It feeds the one stream judge, the `E08xx` walker behind
/// [`crate::verify::check_stream`], and reports the clauses judged as
/// each event arrives, under the codes `verify` gives them. Those
/// clauses look only backwards, so the verdict is prefix-closed: a log
/// cut anywhere (a crashed submit host legitimately leaves one behind,
/// and rescue-from-log must keep working on it) draws nothing but the
/// `W0707` warning added here. What only a complete log can show is
/// left to `pegasus verify`.
///
/// `events` pairs each event with its one-based line number in `file`
/// (from [`crate::events::log::parse_lines`]); streams built in memory
/// can pass line 0.
pub fn check_events(events: &[(usize, WorkflowEvent)], file: &str) -> Vec<Diagnostic> {
    let mut walker = StreamWalker::new(file, VerifyOptions::default());
    for (line, ev) in events {
        walker.event(*line, ev);
    }
    prefix_findings(walker)
}

/// What [`check_events`] reports of a stream `walker` was fed under
/// default options: its prefix-closed findings, and `W0707` at the last
/// event when no trailer came.
pub fn prefix_findings(walker: StreamWalker) -> Vec<Diagnostic> {
    let (file, last) = walker.position();
    let w0707 = last.filter(|_| !walker.closed()).map(|last| {
        Diagnostic::new(
            "W0707",
            file,
            Span::line(last),
            "stream has no workflow-finished: truncated (crashed or still-running) run",
        )
        .with_help("rescue-from-log accepts this; statistics over it describe a partial run")
    });
    let mut diags = walker.findings();
    diags.extend(w0707);
    diags
}

/// Renders rustc-style text output:
///
/// ```text
/// error[E0103]: workflow is not a DAG: cycle a -> b -> a
///   --> bad.dax:3:1
///   = help: remove one of the explicit <child> edges in the cycle
/// ```
pub fn render_text(diags: &[Diagnostic]) -> String {
    render_text_as(diags, "lint")
}

/// [`render_text`] with a configurable tool name in the summary
/// trailer, so `pegasus verify` reports as `verify: N error(s), ...`
/// through the identical rendering path (the byte-identity guarantee
/// between live and `--from-events` verification rests on this).
pub fn render_text_as(diags: &[Diagnostic], tool: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
        if d.span.is_none() {
            let _ = writeln!(out, "  --> {}", d.file);
        } else if d.span.col > 0 {
            let _ = writeln!(out, "  --> {}:{}:{}", d.file, d.span.line, d.span.col);
        } else {
            let _ = writeln!(out, "  --> {}:{}", d.file, d.span.line);
        }
        if let Some(h) = &d.help {
            let _ = writeln!(out, "  = help: {h}");
        }
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    let _ = writeln!(
        out,
        "{tool}: {errors} error{}, {warnings} warning{}",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
    );
    out
}

/// Extended prose for each code range, rendered by `--explain` after
/// the rule's own summary — the rustc `--explain` equivalent at the
/// granularity this registry documents.
const RANGES: &[(&str, &str)] = &[
    (
        "E01",
        "DAX structure: the abstract workflow document itself is malformed — \
         XML syntax, duplicate job ids, dependency cycles, conflicting \
         producers, or dangling edge references. Emitted by `check_workflow` \
         before any planning happens.",
    ),
    (
        "E02",
        "Fault plans: a scenario file cross-checked against the workflow it \
         targets — unknown job names, out-of-range probabilities, overlapping \
         blackouts, scenarios that can never fire. Emitted by \
         `gridsim::faults_lint`.",
    ),
    (
        "E03",
        "Run configuration feasibility: the engine/ensemble configuration \
         checked against the target site — unknown sites, uninstallable \
         transformations, timeouts below the fastest kickstart, retries \
         disabled under faults. Emitted by `check_config`, but for an \
         unknown site: that is the site registry's own refusal.",
    ),
    (
        "W04",
        "DAX hygiene: structurally valid but suspicious workflows — \
         disconnected jobs, never-consumed files, excessive fan-in/out, \
         unknown transformations. Warnings by default.",
    ),
    (
        "E05",
        "Site definitions: the `--sites` file checked on its own terms — \
         duplicate names and aliases, a slot count out of range, negative rates, dangling \
         catalog references.",
    ),
    (
        "E06",
        "Whole-plan dataflow (pegasus verify, layer 2): abstract \
         interpretation over the *planned* DAG — every consumed file must \
         have a producer or stage-in, stage-outs must move real products, \
         stage-ins must feed someone, the peak resident footprint must fit \
         the storage bound, and ensemble quotas must admit at least one \
         member (E0605) and serialize none (W0606). Emitted by \
         `verify::check_plan` and `verify::check_ensemble_feasibility`; serve \
         preflight runs them at admission, and `lint --slots` the latter.",
    ),
    (
        "E07",
        "Event-log reading (pegasus lint --events): W0707, a log with no \
         workflow-finished trailer, which lint accepts as a crashed or \
         still-running run, and E0708, a log that does not parse. What the \
         log says is judged under the E08xx codes, by the one walker \
         `verify` runs. Emitted by `check_events` and the log reader.",
    ),
    (
        "E08",
        "Temporal invariants (pegasus verify, layer 1): the LTL-lite \
         invariant catalog over complete event streams — every submission \
         reaches a terminal, attempts increase densely, phases precede one \
         another, concurrency never exceeds the site's slots, retry gaps \
         respect the backoff/jitter envelope, the trailer agrees with the \
         stream, trace ids match the journal. Emitted by \
         `verify::check_stream`. `lint --events` reports the clauses the \
         walker judges as each event arrives; verify adds those only the end \
         of a stream can settle — the trailer exists, a succeeded run leaves \
         no attempt or retry open (E0801), the capacity sweep (E0804) — which \
         is why verify demands complete logs and lint --events does not.",
    ),
];

/// Renders rustc-style extended help for one rule (`--explain E0804`
/// or `--explain slot-capacity-exceeded`): the rule line, its default
/// level, and the prose for its code range. `None` when the code
/// names no registered rule.
pub fn explain(code_or_name: &str) -> Option<String> {
    use std::fmt::Write as _;
    let r = rule(code_or_name)?;
    let mut out = String::new();
    let _ = writeln!(out, "{} ({})", r.code, r.name);
    let _ = writeln!(
        out,
        "default: {}",
        match r.default {
            Level::Deny => "deny (error)",
            Level::Warn => "warn",
            Level::Allow => "allow",
        }
    );
    let _ = writeln!(out, "\n{}\n", r.summary);
    if let Some((_, prose)) = RANGES
        .iter()
        .find(|(p, _)| r.code[1..].starts_with(&p[1..]))
    {
        let _ = writeln!(out, "{prose}");
    }
    let _ = writeln!(
        out,
        "\nOverride with --deny {0} / --allow {0} (or by name).",
        r.code
    );
    Some(out)
}

/// Renders the full registry as a two-column table (`lint --list`):
/// one `CODE name [default] summary` line per rule, in code order.
pub fn render_rule_list() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let width = RULES.iter().map(|r| r.name.len()).max().unwrap_or(0);
    for r in RULES {
        let _ = writeln!(
            out,
            "{} {:<width$}  [{}]  {}",
            r.code,
            r.name,
            match r.default {
                Level::Deny => "deny",
                Level::Warn => "warn",
                Level::Allow => "allow",
            },
            r.summary,
        );
    }
    out
}

/// Renders the diagnostics as a deterministic JSON array (fixed key
/// order, sorted input from [`resolve`]), suitable for golden-file
/// diffing in CI.
pub fn render_json(diags: &[Diagnostic]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        let name = rule(d.code).map(|r| r.name).unwrap_or("");
        let _ = write!(
            out,
            "  {{\"code\":\"{}\",\"name\":\"{name}\",\"severity\":\"{}\",\"file\":\"",
            d.code, d.severity
        );
        let _ = write_json_str(&mut out, &d.file);
        let (line, col) = (d.span.line, d.span.col);
        let _ = write!(out, "\",\"line\":{line},\"col\":{col},\"message\":\"");
        let _ = write_json_str(&mut out, &d.message);
        out.push_str("\",\"help\":");
        match &d.help {
            Some(h) => {
                out.push('"');
                let _ = write_json_str(&mut out, h);
                out.push_str("\"}");
            }
            None => out.push_str("null}"),
        }
        out.push_str(if i + 1 < diags.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::log;

    fn lint_text(text: &str) -> Vec<Diagnostic> {
        check_events(&log::parse_lines(text).unwrap(), "run.events")
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    const CLEAN: &str = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=split
submitted time=0 job=0 attempt=0
started time=5 job=0 attempt=0
completed job=0 attempt=0 submitted=0 started=5 install-done=5 finished=9
workflow-finished time=9 wall-time=9 succeeded=true
";

    #[test]
    fn clean_stream_is_clean() {
        assert!(lint_text(CLEAN).is_empty());
    }

    #[test]
    fn golden_fixture_is_clean() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/osg_n8.events"
        ))
        .unwrap();
        let diags = lint_text(&text);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn completed_before_started_is_flagged() {
        let text = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=split
submitted time=0 job=0 attempt=0
completed job=0 attempt=0 submitted=0 started=5 install-done=5 finished=9
workflow-finished time=9 wall-time=9 succeeded=true
";
        let diags = lint_text(text);
        assert_eq!(codes(&diags), ["E0803"]);
        assert_eq!(diags[0].span.line, 4);
    }

    #[test]
    fn backwards_time_and_unordered_times_are_flagged() {
        let text = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=split
submitted time=10 job=0 attempt=0
started time=5 job=0 attempt=0
completed job=0 attempt=0 submitted=10 started=5 install-done=5 finished=3
workflow-finished time=9 wall-time=9 succeeded=true
";
        let diags = lint_text(text);
        // Per job: started at 5 and finished at 3 both follow the
        // submission at 10, and the terminal's own times are unordered.
        // Stream-level: finished=3 and the trailer's time=9 both
        // precede the time=10 high-water mark, and a trailer that is
        // not the latest emission contradicts the stream it closes
        // (E0806).
        assert_eq!(
            codes(&diags),
            ["E0808", "E0808", "E0808", "E0808", "E0808", "E0806"]
        );
    }

    #[test]
    fn reordered_stream_is_flagged_as_nonmonotone() {
        // Two jobs whose emission-ordered events were merged out of
        // order: job 1's submission (time=2) appears after job 0's
        // completion (finished=9).  Each job is individually clean, so
        // only the stream-level rule can catch this.
        let text = "\
workflow-started time=0 jobs=2 site=osg name=w
job id=0 kind=compute transformation=split name=a
job id=1 kind=compute transformation=split name=b
submitted time=0 job=0 attempt=0
started time=1 job=0 attempt=0
completed job=0 attempt=0 submitted=0 started=1 install-done=1 finished=9
submitted time=2 job=1 attempt=0
started time=3 job=1 attempt=0
completed job=1 attempt=0 submitted=2 started=3 install-done=3 finished=12
workflow-finished time=12 wall-time=12 succeeded=true
";
        let diags = lint_text(text);
        assert_eq!(codes(&diags), ["E0808"]);
        assert_eq!(diags[0].span.line, 7);
    }

    #[test]
    fn retrospective_started_events_do_not_trip_the_stream_check() {
        // A healthy parallel run: job 1 finishes first, then job 0's
        // started event (synthesized retrospectively at its completion)
        // carries time=1, *before* job 1's finished=4.  The stream is
        // exactly what the engine emits and must stay clean.
        let text = "\
workflow-started time=0 jobs=2 site=osg name=w
job id=0 kind=compute transformation=split name=a
job id=1 kind=compute transformation=split name=b
submitted time=0 job=0 attempt=0
submitted time=0 job=1 attempt=0
started time=2 job=1 attempt=0
completed job=1 attempt=0 submitted=0 started=2 install-done=2 finished=4
started time=1 job=0 attempt=0
completed job=0 attempt=0 submitted=0 started=1 install-done=1 finished=7
workflow-finished time=7 wall-time=7 succeeded=true
";
        assert!(lint_text(text).is_empty());
    }

    #[test]
    fn unaccounted_retry_is_flagged() {
        let text = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=split
submitted time=0 job=0 attempt=0
started time=1 job=0 attempt=0
failed job=0 attempt=0 reason=preempted submitted=0 started=1 install-done=1 finished=2 detail=preempted:storm
submitted time=2 job=0 attempt=1
workflow-finished time=9 wall-time=9 succeeded=false
";
        let diags = lint_text(text);
        assert_eq!(codes(&diags), ["E0805"]);
    }

    #[test]
    fn accounted_retry_is_clean() {
        let text = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=split
submitted time=0 job=0 attempt=0
started time=1 job=0 attempt=0
failed job=0 attempt=0 reason=preempted submitted=0 started=1 install-done=1 finished=2 detail=preempted:storm
retry-scheduled time=2 job=0 next-attempt=1 backoff=0 reason=preempted detail=preempted:storm
submitted time=2 job=0 attempt=1
started time=3 job=0 attempt=1
completed job=0 attempt=1 submitted=2 started=3 install-done=3 finished=4
workflow-finished time=4 wall-time=4 succeeded=true
";
        assert!(lint_text(text).is_empty());
        // A failure record whose typed reason contradicts its own
        // detail string is the one thing the hand-written sanitizer
        // let through here.
        let mislabelled = text.replace("detail=preempted:storm", "detail=storm");
        assert_eq!(codes(&lint_text(&mislabelled)), ["E0808", "E0808"]);
    }

    #[test]
    fn undeclared_and_out_of_range_jobs_are_flagged() {
        let text = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=split
submitted time=0 job=7 attempt=0
workflow-finished time=9 wall-time=9 succeeded=false
";
        let diags = lint_text(text);
        assert_eq!(codes(&diags), ["E0807"]);
    }

    #[test]
    fn framing_violations_are_flagged() {
        let text = "\
job id=0 kind=compute transformation=split name=split
workflow-started time=0 jobs=1 site=osg name=w
workflow-finished time=9 wall-time=9 succeeded=true
submitted time=9 job=0 attempt=0
";
        let diags = lint_text(text);
        // No header first; a trailer claiming success over a job that
        // never ran; an event after the trailer.
        assert_eq!(codes(&diags), ["E0807", "E0806", "E0806"]);
    }

    #[test]
    fn truncated_stream_is_a_warning_only() {
        let text = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=split
submitted time=0 job=0 attempt=0
";
        let diags = lint_text(text);
        assert_eq!(codes(&diags), ["W0707"]);
    }

    #[test]
    fn empty_stream_is_an_error() {
        assert_eq!(codes(&check_events(&[], "run.events")), ["E0807"]);
    }

    #[test]
    fn registry_is_sorted_unique_and_consistent() {
        for w in RULES.windows(2) {
            // Sorted by rule number; the E/W prefix is redundant with
            // the default level, checked below.
            assert!(
                w[0].code[1..] < w[1].code[1..],
                "{} !< {}",
                w[0].code,
                w[1].code
            );
        }
        for r in RULES {
            match r.default {
                Level::Deny => assert!(r.code.starts_with('E'), "{}", r.code),
                Level::Warn => assert!(r.code.starts_with('W'), "{}", r.code),
                Level::Allow => panic!("no rule defaults to allow"),
            }
            assert!(rule(r.code).is_some() && rule(r.name).is_some());
        }
    }

    #[test]
    fn resolve_applies_overrides_and_sorts() {
        let d1 = Diagnostic::new("W0402", "b.dax", Span::new(2, 1), "orphan");
        let d2 = Diagnostic::new("E0103", "a.dax", Span::new(9, 9), "cycle");
        let mut cfg = LintConfig::default();
        cfg.deny("unconsumed-file").unwrap();
        let out = resolve(vec![d1, d2], &cfg);
        assert_eq!(out[0].code, "E0103");
        assert_eq!(out[1].code, "W0402");
        assert_eq!(out[1].severity, Severity::Error);

        let mut cfg = LintConfig::default();
        cfg.allow("W0402").unwrap();
        let out = resolve(
            vec![Diagnostic::new("W0402", "b.dax", Span::none(), "orphan")],
            &cfg,
        );
        assert!(out.is_empty());

        assert!(LintConfig::default().deny("no-such-rule").is_err());
    }

    #[test]
    fn deny_warnings_promotes_everything() {
        let cfg = LintConfig {
            deny_warnings: true,
            overrides: Vec::new(),
        };
        let out = resolve(
            vec![Diagnostic::new("W0401", "x.dax", Span::none(), "floats")],
            &cfg,
        );
        assert!(has_errors(&out));
    }

    #[test]
    fn explain_and_list_cover_every_rule() {
        for r in RULES {
            let by_code = explain(r.code).expect("every code explains");
            let by_name = explain(r.name).expect("every name explains");
            assert_eq!(by_code, by_name);
            assert!(by_code.contains(r.summary), "{}", r.code);
            assert!(
                RANGES.iter().any(|(p, _)| r.code[1..].starts_with(&p[1..])),
                "{} has no range prose",
                r.code
            );
        }
        assert!(explain("E9999").is_none());
        let list = render_rule_list();
        for r in RULES {
            assert!(list.contains(r.code) && list.contains(r.name), "{}", r.code);
        }
    }

    #[test]
    fn render_text_as_renames_the_trailer() {
        let diags = vec![Diagnostic::new("E0801", "m.events", Span::line(3), "boom")];
        let text = render_text_as(&diags, "verify");
        assert!(text.contains("verify: 1 error, 0 warnings"), "{text}");
        assert_eq!(
            render_text(&diags).replace("lint:", "verify:"),
            text,
            "render_text must stay the lint-named delegate"
        );
    }

    #[test]
    fn renderers_are_deterministic() {
        let diags = vec![
            Diagnostic::new("E0103", "w.dax", Span::new(3, 1), "cycle a -> b -> a")
                .with_help("remove one edge"),
            Diagnostic::new("W0402", "w.dax", Span::none(), "file \"x\" never consumed"),
        ];
        let text = render_text(&diags);
        assert!(text.contains("error[E0103]: cycle a -> b -> a"));
        assert!(text.contains("--> w.dax:3:1"));
        assert!(text.contains("= help: remove one edge"));
        assert!(text.contains("lint: 1 error, 1 warning"));
        let json = render_json(&diags);
        assert_eq!(json, render_json(&diags));
        assert!(json.contains("\"code\":\"E0103\""));
        assert!(json.contains("\"help\":null"));
        assert!(json.contains("\\\"x\\\""));
    }
}
