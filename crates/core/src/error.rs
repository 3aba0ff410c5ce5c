//! Error type for workflow construction, planning, and parsing.

use std::fmt;

/// A source position inside a parsed input file.
///
/// Lines and columns are one-based; `0` means "unknown".  The DAX
/// parser produces full line/col spans, line-oriented formats (fault
/// plans, event logs) produce line-only spans, and programmatically
/// built values carry [`Span::none`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// One-based line number (0 when unknown).
    pub line: usize,
    /// One-based column number (0 when unknown).
    pub col: usize,
}

impl Span {
    /// A span with both line and column.
    pub fn new(line: usize, col: usize) -> Self {
        Span { line, col }
    }

    /// A line-only span (column unknown).
    pub fn line(line: usize) -> Self {
        Span { line, col: 0 }
    }

    /// The unknown span, used for values not read from a file.
    pub fn none() -> Self {
        Span { line: 0, col: 0 }
    }

    /// True when the span carries no position at all.
    pub fn is_none(&self) -> bool {
        self.line == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(f, "line {}, col {}", self.line, self.col)
        } else {
            write!(f, "line {}", self.line)
        }
    }
}

/// The text formats this stack parses. A format owns how its parse
/// errors open and the lint code they report under by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// The abstract workflow document.
    Dax,
    /// The transformation and replica catalog file (`--catalog`).
    Catalog,
    /// A rescue DAG.
    Rescue,
    /// A site-definitions file (`--sites`).
    SiteDef,
    /// A fault plan.
    FaultPlan,
    /// A provenance event log.
    EventLog,
    /// A `pegasus serve` request, response or journal line.
    Protocol,
}

impl Format {
    /// What the format's parse errors open with, and the lint code
    /// they report under unless the raise site states another. The
    /// three formats no lint pass reads take the code of the family
    /// their file belongs to: a catalog is planner input like the DAX;
    /// a rescue DAG and the daemon's journal are, like the event log,
    /// what a run left behind.
    fn row(self) -> (&'static str, &'static str) {
        match self {
            Format::Dax => ("DAX", "E0101"),
            Format::Catalog => ("catalog", "E0101"),
            Format::Rescue => ("rescue DAG", "E0708"),
            Format::SiteDef => ("site definition", "E0507"),
            Format::FaultPlan => ("fault plan", "E0206"),
            Format::EventLog => ("event log", "E0708"),
            Format::Protocol => ("protocol", "E0708"),
        }
    }

    /// The format's default lint code.
    pub(crate) fn code(self) -> &'static str {
        self.row().1
    }

    /// A parse error of this format under its default code.
    pub fn error(self, span: Span, reason: impl Into<String>) -> WmsError {
        self.error_as(self.code(), span, reason)
    }

    /// [`error`](Self::error) at a line, for the line-oriented formats.
    pub fn at(self, line: usize, reason: impl Into<String>) -> WmsError {
        self.error(Span::line(line), reason)
    }

    /// A parse error of this format under the code of the rule the
    /// raise site knows was broken.
    pub(crate) fn error_as(
        self,
        code: &'static str,
        span: Span,
        reason: impl Into<String>,
    ) -> WmsError {
        WmsError::Parse {
            format: self,
            span,
            code,
            reason: reason.into(),
        }
    }
}

/// Errors raised across the WMS stack.
#[derive(Debug, Clone, PartialEq)]
pub enum WmsError {
    /// A job id was declared twice.
    DuplicateJob(String),
    /// An explicit dependency references an unknown job.
    UnknownJob(String),
    /// The dependency graph contains a cycle through this job.
    CycleDetected(String),
    /// A file is declared as an output twice: by two jobs, or twice
    /// by one.
    ConflictingProducer {
        /// The logical file with two producers.
        file: String,
        /// The first producer.
        first: String,
        /// The job of the second declaration; `first` again when one
        /// job lists the file twice.
        second: String,
    },
    /// A site name (or alias) did not resolve against the site
    /// catalog or registry.
    UnknownSite {
        /// The name that failed to resolve.
        site: String,
        /// Primary names of the sites that *are* registered, sorted;
        /// empty when the resolver had no listing to offer.
        known: Vec<String>,
    },
    /// The planner could not resolve a transformation at the target
    /// site or as a stageable/installable executable.
    UnresolvableTransformation {
        /// The transformation name.
        transformation: String,
        /// The target site.
        site: String,
    },
    /// An input text was refused by the parser of its [`Format`].
    Parse {
        /// Which parser refused it.
        format: Format,
        /// Position of the offending construct; [`Span::none`] when
        /// the refusal is about the text as a whole.
        span: Span,
        /// The lint code the refusal reports under: the format's
        /// default, unless the raise site knew better.
        code: &'static str,
        /// Description of the problem.
        reason: String,
    },
    /// A tenant hit its admission quota.
    QuotaExceeded {
        /// The tenant that was refused.
        tenant: String,
        /// The quota that was hit.
        limit: usize,
    },
    /// An internal runtime invariant was violated.  These were
    /// previously `debug_assert!`s that vanished in release builds;
    /// they now surface as typed errors so callers (and the event-log
    /// sanitizer) can detect corrupted state instead of continuing on
    /// garbage.
    InvariantViolation {
        /// The invariant that was expected to hold.
        invariant: String,
        /// What was observed instead.
        detail: String,
    },
}

impl fmt::Display for WmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WmsError::DuplicateJob(id) => write!(f, "duplicate job id {id:?}"),
            WmsError::UnknownJob(id) => write!(f, "dependency references unknown job {id:?}"),
            WmsError::CycleDetected(id) => {
                write!(f, "workflow is not a DAG: cycle through job {id:?}")
            }
            WmsError::ConflictingProducer {
                file,
                first,
                second,
            } if first == second => {
                write!(
                    f,
                    "logical file {file:?} declared as an output twice by {first:?}"
                )
            }
            WmsError::ConflictingProducer {
                file,
                first,
                second,
            } => write!(
                f,
                "logical file {file:?} produced by both {first:?} and {second:?}"
            ),
            WmsError::UnknownSite { site, known } => {
                write!(f, "site {site:?} not in site catalog")?;
                if !known.is_empty() {
                    write!(f, " (known sites: {})", known.join(", "))?;
                }
                Ok(())
            }
            WmsError::UnresolvableTransformation {
                transformation,
                site,
            } => write!(
                f,
                "transformation {transformation:?} unavailable at site {site:?} and not installable"
            ),
            WmsError::Parse {
                format,
                span,
                reason,
                ..
            } => {
                write!(f, "{} parse error", format.row().0)?;
                if !span.is_none() {
                    write!(f, " at {span}")?;
                }
                write!(f, ": {reason}")
            }
            WmsError::QuotaExceeded { tenant, limit } => {
                write!(f, "tenant {tenant:?} exceeded its quota of {limit}")
            }
            WmsError::InvariantViolation { invariant, detail } => {
                write!(f, "internal invariant violated ({invariant}): {detail}")
            }
        }
    }
}

impl std::error::Error for WmsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        assert!(WmsError::DuplicateJob("split".into())
            .to_string()
            .contains("split"));
        let e = WmsError::UnknownSite {
            site: "mars".into(),
            known: vec![],
        };
        assert_eq!(e.to_string(), "site \"mars\" not in site catalog");
        let e = WmsError::UnknownSite {
            site: "mars".into(),
            known: vec!["osg".into(), "sandhills".into()],
        };
        assert_eq!(
            e.to_string(),
            "site \"mars\" not in site catalog (known sites: osg, sandhills)"
        );
        let e = WmsError::ConflictingProducer {
            file: "out.txt".into(),
            first: "a".into(),
            second: "b".into(),
        };
        let s = e.to_string();
        assert!(s.contains("out.txt") && s.contains('a') && s.contains('b'));
        assert!(Format::Dax
            .error(Span::new(12, 7), "bad tag")
            .to_string()
            .contains("line 12, col 7"));
    }

    #[test]
    fn spans_render_by_precision() {
        assert_eq!(Span::new(3, 9).to_string(), "line 3, col 9");
        assert_eq!(Span::line(3).to_string(), "line 3");
        assert!(Span::none().is_none());
        assert!(!Span::line(1).is_none());
    }

    #[test]
    fn quota_and_protocol_errors_render_their_context() {
        let q = WmsError::QuotaExceeded {
            tenant: "alice".into(),
            limit: 4,
        };
        let s = q.to_string();
        assert!(s.contains("alice") && s.contains('4'), "{s}");
        let p = Format::Protocol.error(Span::none(), "unknown verb \"submti\"");
        assert_eq!(
            p.to_string(),
            "protocol parse error: unknown verb \"submti\""
        );
        let p = Format::Protocol.error(Span::line(3), "bad n");
        assert!(p.to_string().contains("line 3"), "{p}");
    }

    #[test]
    fn every_format_opens_its_parse_errors_as_it_always_has() {
        let rendered = |format: Format, span| format.error(span, "why").to_string();
        for (format, prefix) in [
            (Format::Dax, "DAX parse error"),
            (Format::Catalog, "catalog parse error"),
            (Format::Rescue, "rescue DAG parse error"),
            (Format::SiteDef, "site definition parse error"),
            (Format::FaultPlan, "fault plan parse error"),
            (Format::EventLog, "event log parse error"),
            (Format::Protocol, "protocol parse error"),
        ] {
            assert_eq!(rendered(format, Span::none()), format!("{prefix}: why"));
            assert_eq!(
                rendered(format, Span::line(3)),
                format!("{prefix} at line 3: why")
            );
        }
        assert_eq!(
            rendered(Format::Dax, Span::new(3, 5)),
            "DAX parse error at line 3, col 5: why"
        );
    }

    #[test]
    fn invariant_violations_name_both_sides() {
        let e = WmsError::InvariantViolation {
            invariant: "executable job ids are dense".into(),
            detail: "job 4 has id 9".into(),
        };
        let s = e.to_string();
        assert!(s.contains("dense") && s.contains("id 9"));
    }
}
