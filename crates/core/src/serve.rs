//! The `pegasus serve` wire protocol, journal, and status rendering.
//!
//! This module is the transport-agnostic half of the multi-tenant
//! ensemble daemon: what the keywords and keys of its lines mean,
//! read through the one [`crate::line`] grammar that
//! [`crate::events::log`] and the fault plan share. The daemon itself
//! (sockets, threads, filesystem) lives in the umbrella crate;
//! everything here is pure string ↔ struct and therefore proptest-able
//! in isolation.
//!
//! # Protocol
//!
//! A connection opens with the server greeting line [`GREETING`].
//! Each client request is one line; each response is one `ok`/`error`
//! line, optionally followed by a counted block of raw payload lines:
//!
//! ```text
//! submit tenant=alice site=sandhills seed=7 retries=3 priority=2 n=100
//! submit tenant=bob site=osg dax=runs/blast2cap3_n300.dax
//! cancel id=3
//! trace id=3
//! run
//! status
//! rollup
//! metrics
//! ping
//! shutdown
//! ```
//!
//! Responses:
//!
//! ```text
//! ok id=4
//! ok lines=12
//! <12 raw payload lines>
//! error tenant "alice" exceeded its quota of 2
//! ```
//!
//! `tenant` and `site` are single tokens (no whitespace); `dax=` is a
//! tail field consuming the rest of the line, so paths may contain
//! spaces. Optional fields (`seed`, `retries`, `priority`, `trace`)
//! are omitted when at their defaults, which keeps rendering
//! canonical: parse ∘ render is the identity (pinned by proptest).
//! `trace=` carries a 16-hex [`TraceId`]; when absent the daemon
//! derives one from its base seed and the submission id, journals the
//! resolved value, and `trace id=<n>` renders that submission's span
//! tree.
//!
//! # Journal
//!
//! The daemon appends its decisions to a journal file so a restart
//! can rebuild the exact schedule:
//!
//! ```text
//! # pegasus serve journal v2
//! submission id=0 tenant=alice site=sandhills seed=7 trace=32a2cc2d414c217a n=100
//! submission id=1 tenant=bob site=osg priority=1 n=100
//! cancel id=1
//! round id=0 seed=12345 members=0,2,5
//! round-done id=0
//! ```
//!
//! A `round` entry records the batch *before* it runs — membership
//! and the derived round seed — so a crash mid-round leaves an open
//! `round` with no matching `round-done`. Recovery replays the
//! journal into a [`Ledger`], re-executes the interrupted round with
//! the recorded seed (deterministic engines make the re-run
//! byte-identical to the run the crash destroyed), and resumes.
//!
//! Every record is written whole, newline last, and acknowledged only
//! after that, so a final line with no newline is a write the crash
//! interrupted: [`whole_lines`] drops it before replay. Anything
//! else [`Ledger::apply`] refuses is a corrupt journal.
//!
//! # Status lines
//!
//! `status` responses render one [`StatusLine`] per submission. All
//! durations are derived from event timestamps (backend seconds) —
//! never from wall-clock reads — so a live daemon and an offline
//! replay of the same logs render byte-identical views.

use crate::ensemble::MemberState;
use crate::error::{Format, Span, WmsError};
use crate::line::{self, Field, Fields, Line, Range, Value};
use crate::statistics::WorkflowStatistics;
use crate::trace::TraceId;
use std::fmt::Write as _;

/// First line a server sends on every accepted connection.
pub const GREETING: &str = "# pegasus serve v1";

/// First line of a daemon journal file. v2 added the optional
/// `trace=` submission field; [`Ledger::replay`] still accepts
/// `JOURNAL_HEADER_V1` journals (their submissions parse with no
/// trace id, and recovery re-derives the same ids it originally
/// assigned).
pub const JOURNAL_HEADER: &str = "# pegasus serve journal v2";

/// The pre-trace journal header, accepted on replay for forward
/// migration of existing spool directories.
pub(crate) const JOURNAL_HEADER_V1: &str = "# pegasus serve journal v1";

/// Number of protein clusters in the calibrated workload. The paper's
/// run clusters 236,529 transcripts by shared protein hit; a few tens
/// of thousands of clusters is the matching order of magnitude while
/// staying cheap to partition.
pub const CALIBRATION_CLUSTERS: usize = 20_000;

/// The decompositions a generated blast2cap3 may ask for — `n=` here,
/// and every calibrated `--n` or `--sizes` entry of the binary. A chunk
/// holds at least one cluster, so past [`CALIBRATION_CLUSTERS`] the plan
/// stops growing: `n=20001` is `n=20000`'s 20,009 jobs under another
/// name.
pub const DECOMPOSITION: Range = Range::Count {
    min: 1,
    max: CALIBRATION_CLUSTERS,
};

/// Where a submitted workflow comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitSource {
    /// Plan the paper's blast2cap3 pipeline at this many chunks.
    Generated {
        /// Number of input chunks (`n` in the paper's sweeps).
        n: usize,
    },
    /// Load and plan a DAX file from this path (tail field: may
    /// contain spaces).
    Dax {
        /// Path to the DAX file, resolved daemon-side.
        path: String,
    },
}

/// A parsed `submit` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Owning tenant (single token).
    pub tenant: String,
    /// Target site handle, e.g. `sandhills` or `osg` (single token).
    pub site: String,
    /// Engine seed; `None` lets the daemon apply its default.
    pub seed: Option<u64>,
    /// Retry budget; `None` lets the daemon apply its default.
    pub retries: Option<u32>,
    /// Admission priority (higher wins); defaults to 0.
    pub priority: i32,
    /// Trace id for the workflow's spans; `None` lets the daemon
    /// derive one at admission ([`TraceId::derive`] of its base seed
    /// and the assigned id).
    pub trace: Option<TraceId>,
    /// The workflow itself.
    pub source: SubmitSource,
}

/// One client request line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Queue a workflow.
    Submit(SubmitRequest),
    /// Withdraw a queued submission by id.
    Cancel {
        /// The submission to withdraw.
        id: usize,
    },
    /// Render the span tree of a completed submission.
    Trace {
        /// The submission whose trace to render.
        id: usize,
    },
    /// Run everything currently queued as one deterministic round.
    Run,
    /// Render a [`StatusLine`] per submission.
    Status,
    /// Render the ensemble rollup CSV over all completed members.
    Rollup,
    /// Render the Prometheus exposition over all completed members.
    Metrics,
    /// Liveness check; answered with `ok`.
    Ping,
    /// Drain and stop the daemon.
    Shutdown,
}

/// `true` when `s` can travel as a single protocol token (non-empty,
/// no whitespace, no `=`). Tenants and site handles must satisfy
/// this; the daemon rejects submissions that don't.
pub(crate) fn valid_token(s: &str) -> bool {
    !s.is_empty() && !s.contains(char::is_whitespace) && !s.contains('=')
}

/// Parses the shared submission body (everything after the keyword
/// and, for journal entries, the id), fields in canonical order.
fn parse_submit_body(f: &mut Fields<'_, '_>) -> Result<SubmitRequest, WmsError> {
    let tenant: &str = f.next("tenant")?;
    if !valid_token(tenant) {
        return Err(f.err(format!("bad tenant: {tenant:?}")));
    }
    let site: &str = f.next("site")?;
    if !valid_token(site) {
        return Err(f.err(format!("bad site: {site:?}")));
    }
    let seed = f.next_opt("seed")?;
    let retries = f.next_opt("retries")?;
    let priority = f.next_opt("priority")?.unwrap_or(0);
    let trace = match f.next_opt::<&str>("trace")? {
        Some(v) => Some(v.parse::<TraceId>().map_err(|e| f.err(e))?),
        None => None,
    };
    let source = match f.next_opt::<&str>("n")? {
        Some(raw) => match raw.parse() {
            Ok(n) if DECOMPOSITION.admits(raw) => SubmitSource::Generated { n },
            _ => return Err(f.err(DECOMPOSITION.refusal("n", raw))),
        },
        None => match f.next("dax")? {
            "" => return Err(f.err("empty dax path")),
            path => SubmitSource::Dax { path: path.into() },
        },
    };
    Ok(SubmitRequest {
        tenant: tenant.into(),
        site: site.into(),
        seed,
        retries,
        priority,
        trace,
        source,
    })
}

/// Renders the shared submission body in canonical field order.
fn render_submit_body(out: &mut String, sub: &SubmitRequest) {
    write!(out, "tenant={} site={}", sub.tenant, sub.site).unwrap();
    if let Some(seed) = sub.seed {
        write!(out, " seed={seed}").unwrap();
    }
    if let Some(retries) = sub.retries {
        write!(out, " retries={retries}").unwrap();
    }
    if sub.priority != 0 {
        write!(out, " priority={}", sub.priority).unwrap();
    }
    if let Some(trace) = sub.trace {
        write!(out, " trace={trace}").unwrap();
    }
    match &sub.source {
        SubmitSource::Generated { n } => write!(out, " n={n}").unwrap(),
        SubmitSource::Dax { path } => write!(out, " dax={path}").unwrap(),
    }
}

/// Parses one request line.
///
/// # Errors
/// [`WmsError::Parse`] (no position — requests are single lines)
/// naming the offending field or verb.
pub fn parse_request(line: &str) -> Result<Request, WmsError> {
    let line = Line::split(line, 0);
    let mut buf = Vec::new();
    let f = &mut Fields::split(line.rest, Some("dax"), 0, Format::Protocol, &mut buf)?;
    let request = match line.keyword {
        "submit" => Request::Submit(parse_submit_body(f)?),
        "cancel" => Request::Cancel { id: f.next("id")? },
        "trace" => Request::Trace { id: f.next("id")? },
        "run" => Request::Run,
        "status" => Request::Status,
        "rollup" => Request::Rollup,
        "metrics" => Request::Metrics,
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        other => return Err(f.err(format!("unknown verb {other:?}"))),
    };
    f.finish()?;
    Ok(request)
}

/// Renders a request in canonical form (no trailing newline).
/// `parse_request(&render_request(r)) == Ok(r)` for every
/// well-formed request — pinned by proptest.
pub fn render_request(req: &Request) -> String {
    match req {
        Request::Submit(sub) => {
            let mut out = String::from("submit ");
            render_submit_body(&mut out, sub);
            out
        }
        Request::Cancel { id } => format!("cancel id={id}"),
        Request::Trace { id } => format!("trace id={id}"),
        Request::Run => "run".into(),
        Request::Status => "status".into(),
        Request::Rollup => "rollup".into(),
        Request::Metrics => "metrics".into(),
        Request::Ping => "ping".into(),
        Request::Shutdown => "shutdown".into(),
    }
}

/// The first line of a server response. `Lines` announces a counted
/// payload block so clients know exactly how many raw lines follow —
/// no sentinels, no ambiguity with payload content.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseHead {
    /// Success with inline `key=value` results (possibly none).
    Ok(Vec<(String, String)>),
    /// Success; `n` raw payload lines follow.
    Lines(usize),
    /// Failure; the tail is the human-readable message.
    Error(String),
}

/// Renders a response head (no trailing newline).
pub fn render_response_head(head: &ResponseHead) -> String {
    match head {
        ResponseHead::Ok(pairs) => {
            let mut out = String::from("ok");
            for (k, v) in pairs {
                write!(out, " {k}={v}").unwrap();
            }
            out
        }
        ResponseHead::Lines(n) => format!("ok lines={n}"),
        ResponseHead::Error(msg) => format!("error {msg}"),
    }
}

/// Parses a response head line.
///
/// # Errors
/// [`WmsError::Parse`] when the line is neither `ok …` nor
/// `error …`, or a result token is not `key=value`.
pub fn parse_response_head(line: &str) -> Result<ResponseHead, WmsError> {
    let line = Line::split(line, 0);
    match line.keyword {
        "error" => return Ok(ResponseHead::Error(line.rest.into())),
        "ok" => {}
        _ => {
            let reason = format!("expected ok/error response, found {:?}", line.text);
            return Err(Format::Protocol.error(Span::none(), reason));
        }
    }
    let mut buf = Vec::new();
    let f = &mut Fields::split(line.rest, None, 0, Format::Protocol, &mut buf)?;
    let head = match f.next_opt("lines")? {
        Some(n) => ResponseHead::Lines(n),
        // The results of an `ok` are whatever the verb returns: every
        // pair is taken, in order.
        None => ResponseHead::Ok(
            std::iter::from_fn(|| f.next_any())
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        ),
    };
    f.finish()?;
    Ok(head)
}

/// One entry in the daemon journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// A submission was accepted under this id.
    Submission {
        /// The id the daemon assigned.
        id: usize,
        /// The accepted request (daemon defaults already resolved or
        /// not — the journal records exactly what admission saw).
        sub: SubmitRequest,
    },
    /// A queued submission was withdrawn.
    Cancel {
        /// The withdrawn submission.
        id: usize,
    },
    /// A round is about to run: its batch and derived seed, recorded
    /// *before* execution so an interruption leaves evidence.
    RoundStarted {
        /// Round counter, starting at 0.
        round: usize,
        /// The seed this round's engines derive from.
        seed: u64,
        /// Member submission ids, in admission (id) order.
        members: Vec<usize>,
    },
    /// The round drained completely.
    RoundFinished {
        /// The completed round.
        round: usize,
    },
}

/// Renders one journal entry (no trailing newline).
pub fn render_journal_entry(entry: &JournalEntry) -> String {
    match entry {
        JournalEntry::Submission { id, sub } => {
            let mut out = format!("submission id={id} ");
            render_submit_body(&mut out, sub);
            out
        }
        JournalEntry::Cancel { id } => format!("cancel id={id}"),
        JournalEntry::RoundStarted {
            round,
            seed,
            members,
        } => {
            let ids: Vec<String> = members.iter().map(usize::to_string).collect();
            format!("round id={round} seed={seed} members={}", ids.join(","))
        }
        JournalEntry::RoundFinished { round } => format!("round-done id={round}"),
    }
}

/// Parses one journal entry line (`line` is the one-based position
/// for error reporting).
///
/// # Errors
/// [`WmsError::Parse`] naming the line and offending field.
pub fn parse_journal_entry(text: &str, line: usize) -> Result<JournalEntry, WmsError> {
    journal_entry(&Line::split(text, line), &mut Vec::new())
}

/// [`parse_journal_entry`] with the caller's field buffer, so a whole
/// journal is read through one.
fn journal_entry<'a>(line: &Line<'a>, buf: &mut Vec<Field<'a>>) -> Result<JournalEntry, WmsError> {
    let f = &mut Fields::split(line.rest, Some("dax"), line.number, Format::Protocol, buf)?;
    let entry = match line.keyword {
        "submission" => JournalEntry::Submission {
            id: f.next("id")?,
            sub: parse_submit_body(f)?,
        },
        "cancel" => JournalEntry::Cancel { id: f.next("id")? },
        "round" => {
            let (round, seed) = (f.next("id")?, f.next("seed")?);
            let raw = f.next("members")?;
            let members = f.list("members", raw)?;
            if members.is_empty() {
                return Err(f.err("round with no members"));
            }
            JournalEntry::RoundStarted {
                round,
                seed,
                members,
            }
        }
        "round-done" => JournalEntry::RoundFinished {
            round: f.next("id")?,
        },
        other => return Err(f.err(format!("unknown journal entry {other:?}"))),
    };
    f.finish()?;
    Ok(entry)
}

/// One round as reconstructed from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round counter.
    pub round: usize,
    /// The recorded round seed.
    pub seed: u64,
    /// Member submission ids.
    pub members: Vec<usize>,
    /// Whether a matching `round-done` was journaled.
    pub finished: bool,
}

/// The journal text up to and including its last newline: everything
/// but a torn final record.
pub fn whole_lines(text: &str) -> &str {
    &text[..text.rfind('\n').map_or(0, |i| i + 1)]
}

/// Where the journal last left one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// Accepted and waiting for a round.
    Queued,
    /// Withdrawn before any round claimed it.
    Cancelled,
    /// Named by the `round` entry with this id.
    Claimed(usize),
}

/// The submission lifecycle as the journal tells it: what the daemon
/// holds while it runs and what a restart rebuilds. [`Ledger::apply`]
/// is the only transition — [`Ledger::replay`] and the live daemon
/// both go through it, so a journal is legal exactly when the daemon
/// could have written it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Every accepted submission, in id order (ids are dense).
    pub submissions: Vec<SubmitRequest>,
    /// One lifecycle cell per submission.
    cells: Vec<Cell>,
    /// Rounds in start order.
    pub rounds: Vec<RoundRecord>,
}

impl Ledger {
    /// Replays journal text into a ledger: the header, then
    /// [`apply`](Self::apply) per line.
    ///
    /// # Errors
    /// [`WmsError::Parse`] naming the line of a bad header, a
    /// malformed entry, or an entry `apply` refuses — a corrupt
    /// journal must not silently reschedule the wrong work.
    pub fn replay(text: &str) -> Result<Ledger, WmsError> {
        let header = text.lines().next().map(str::trim_end);
        if header != Some(JOURNAL_HEADER) && header != Some(JOURNAL_HEADER_V1) {
            let reason = format!("expected journal header {JOURNAL_HEADER:?}");
            return Err(Format::Protocol.at(1, reason));
        }
        let mut ledger = Ledger::default();
        let mut buf = Vec::new();
        // The header is a comment to the line reader.
        for line in line::lines(text) {
            let entry = journal_entry(&line, &mut buf)?;
            ledger
                .apply(entry)
                .map_err(|reason| Format::Protocol.at(line.number, reason))?;
        }
        Ok(ledger)
    }

    /// Whether `entry` may follow the entries applied so far. The
    /// daemon asks before it writes the line; [`apply`](Self::apply)
    /// asks again before it commits.
    ///
    /// # Errors
    /// The reason, in the words the client is told, when ids are out of
    /// sequence, a cancel names a member that is not queued, a round
    /// names an unknown, cancelled, already claimed or repeated member
    /// or starts while another is open, or a `round-done` names a
    /// round that is not the open one.
    pub fn check(&self, entry: &JournalEntry) -> Result<(), String> {
        match entry {
            JournalEntry::Submission { id, .. } => {
                if *id != self.submissions.len() {
                    return Err(format!(
                        "submission id {id} out of sequence (expected {})",
                        self.submissions.len()
                    ));
                }
            }
            JournalEntry::Cancel { id } => match self.cells.get(*id) {
                Some(Cell::Queued) => {}
                Some(_) => return Err(format!("submission {id} is not queued")),
                None => return Err(format!("unknown submission {id}")),
            },
            JournalEntry::RoundStarted { round, members, .. } => {
                if *round != self.rounds.len() {
                    return Err(format!(
                        "round id {round} out of sequence (expected {})",
                        self.rounds.len()
                    ));
                }
                if let Some(open) = self.interrupted() {
                    return Err(format!(
                        "round {round} started while round {} still open",
                        open.round
                    ));
                }
                if members.is_empty() {
                    return Err("round with no members".into());
                }
                for &m in members {
                    match self.cells.get(m) {
                        Some(Cell::Queued) => {}
                        Some(_) => {
                            return Err(format!("round names submission {m}, which is not queued"))
                        }
                        None => return Err(format!("round names unknown submission {m}")),
                    }
                }
                let mut sorted = members.clone();
                sorted.sort_unstable();
                if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
                    return Err(format!("round names submission {} twice", w[0]));
                }
            }
            JournalEntry::RoundFinished { round } => {
                if self.interrupted().map(|r| r.round) != Some(*round) {
                    return Err(format!("round-done for round {round}, which is not open"));
                }
            }
        }
        Ok(())
    }

    /// The one submission-lifecycle transition: [`check`](Self::check),
    /// then commit. A refused entry leaves the ledger as it was. The
    /// entry is taken whole, so replaying a journal copies nothing.
    ///
    /// # Errors
    /// Whatever `check` refuses.
    pub fn apply(&mut self, entry: JournalEntry) -> Result<(), String> {
        self.check(&entry)?;
        match entry {
            JournalEntry::Submission { sub, .. } => {
                self.submissions.push(sub);
                self.cells.push(Cell::Queued);
            }
            JournalEntry::Cancel { id } => self.cells[id] = Cell::Cancelled,
            JournalEntry::RoundStarted {
                round,
                seed,
                members,
            } => {
                for &m in &members {
                    self.cells[m] = Cell::Claimed(round);
                }
                self.rounds.push(RoundRecord {
                    round,
                    seed,
                    members,
                    finished: false,
                });
            }
            JournalEntry::RoundFinished { .. } => {
                if let Some(open) = self.rounds.last_mut() {
                    open.finished = true;
                }
            }
        }
        Ok(())
    }

    /// The round that was started but never finished — the one a
    /// recovering daemon must re-execute with its recorded seed. At
    /// most the last round can be open (enforced by `apply`).
    pub fn interrupted(&self) -> Option<&RoundRecord> {
        self.rounds.last().filter(|r| !r.finished)
    }

    /// Submission ids still waiting for a round, in id order:
    /// accepted, not cancelled, and not claimed by any journaled round
    /// (including an interrupted one — those re-run as their own
    /// round).
    pub fn queued(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.cells.len()).filter(|&id| self.cells[id] == Cell::Queued)
    }

    /// How many of `tenant`'s submissions are queued — what the
    /// per-tenant queue quota counts.
    pub fn tenant_queued(&self, tenant: &str) -> usize {
        self.queued()
            .filter(|&id| self.submissions[id].tenant == tenant)
            .count()
    }

    /// The round whose `round` entry names submission `id`, if any.
    pub fn round_of(&self, id: usize) -> Option<&RoundRecord> {
        match self.cells.get(id) {
            Some(Cell::Claimed(round)) => self.rounds.get(*round),
            _ => None,
        }
    }

    /// The lifecycle state of submission `id`, given how its run ended
    /// (`None` while it has not run): cancelled if the journal says
    /// so, otherwise what the run says.
    ///
    /// # Panics
    /// Panics when `id` was never journaled.
    pub fn state(&self, id: usize, succeeded: Option<bool>) -> MemberState {
        match (self.cells[id], succeeded) {
            (Cell::Cancelled, _) => MemberState::Cancelled,
            (_, Some(true)) => MemberState::Succeeded,
            (_, Some(false)) => MemberState::Failed,
            (_, None) => MemberState::Queued,
        }
    }
}

/// One line of `status` output: the full lifecycle view of a
/// submission, rendered purely from journal facts and event-derived
/// times.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusLine {
    /// Submission id.
    pub id: usize,
    /// Owning tenant.
    pub tenant: String,
    /// Target site.
    pub site: String,
    /// Lifecycle state.
    pub state: MemberState,
    /// Job count, once planned (`-` before).
    pub jobs: Option<usize>,
    /// Workflow wall time in backend seconds, once run (`-` before).
    pub wall_time: Option<f64>,
    /// Mean per-job queue wait in backend seconds, once run.
    pub queue_wait: Option<f64>,
    /// Workflow name (tail field).
    pub name: String,
}

impl StatusLine {
    /// The status line of a finished member, from the statistics row
    /// of its run. Live and replayed runs fold the same stream, which
    /// is what keeps `pegasus status` against a live daemon
    /// byte-identical to an offline replay of its logs.
    pub fn of(
        row: &WorkflowStatistics,
        id: usize,
        tenant: &str,
        site: &str,
        state: MemberState,
    ) -> Self {
        StatusLine {
            id,
            tenant: tenant.into(),
            site: site.into(),
            state,
            jobs: Some(row.jobs_succeeded + row.jobs_failed + row.jobs_unready),
            wall_time: Some(row.workflow_wall_time),
            queue_wait: row.queue_wait,
            name: row.name.to_string(),
        }
    }
}

/// The canonical token for a lifecycle state.
pub(crate) fn state_token(state: MemberState) -> &'static str {
    match state {
        MemberState::Queued => "queued",
        MemberState::Cancelled => "cancelled",
        MemberState::Succeeded => "succeeded",
        MemberState::Failed => "failed",
    }
}

/// Parses a lifecycle state token.
///
/// # Errors
/// [`WmsError::Parse`] on an unknown token.
pub(crate) fn parse_state(token: &str) -> Result<MemberState, WmsError> {
    match token {
        "queued" => Ok(MemberState::Queued),
        "cancelled" => Ok(MemberState::Cancelled),
        "succeeded" => Ok(MemberState::Succeeded),
        "failed" => Ok(MemberState::Failed),
        other => {
            Err(Format::Protocol.error(Span::none(), format!("unknown member state {other:?}")))
        }
    }
}

fn opt_num<T: ToString>(v: &Option<T>) -> String {
    v.as_ref().map_or_else(|| "-".into(), T::to_string)
}

/// Renders one status line (no trailing newline).
pub fn render_status_line(s: &StatusLine) -> String {
    format!(
        "member id={} tenant={} site={} state={} jobs={} wall-time={} queue-wait={} name={}",
        s.id,
        s.tenant,
        s.site,
        state_token(s.state),
        opt_num(&s.jobs),
        opt_num(&s.wall_time),
        opt_num(&s.queue_wait),
        s.name
    )
}

/// Parses one status line. Keys this reader does not know are
/// tolerated after the ones it does (the one protocol parser that
/// does not [`finish`](Fields::finish)): a newer daemon may say more
/// about a member than an older client asks.
///
/// # Errors
/// [`WmsError::Parse`] naming the offending field.
pub fn parse_status_line(text: &str) -> Result<StatusLine, WmsError> {
    /// A value, or the `-` a member that has not run yet shows.
    fn dashed<'a, T: Value<'a>>(f: &mut Fields<'_, 'a>, key: &str) -> Result<Option<T>, WmsError> {
        match f.next(key)? {
            "-" => Ok(None),
            raw => f.parse(key, raw).map(Some),
        }
    }
    let line = Line::split(text, 0);
    if line.keyword != "member" {
        let reason = format!("expected member line, found {:?}", line.text);
        return Err(Format::Protocol.error(Span::none(), reason));
    }
    let mut buf = Vec::new();
    let f = &mut Fields::split(line.rest, Some("name"), 0, Format::Protocol, &mut buf)?;
    Ok(StatusLine {
        id: f.next("id")?,
        tenant: f.next::<&str>("tenant")?.to_string(),
        site: f.next::<&str>("site")?.to_string(),
        state: parse_state(f.next("state")?)?,
        jobs: dashed(f, "jobs")?,
        wall_time: dashed(f, "wall-time")?,
        queue_wait: dashed(f, "queue-wait")?,
        name: f.get::<&str>("name")?.to_string(),
    })
}

/// Derives the engine seed for one round from the daemon base seed
/// and the round counter — splitmix-style odd-constant mixing so
/// consecutive rounds land far apart, while staying a pure function
/// of journaled facts (recovery recomputes the identical value).
pub fn round_seed(base: u64, round: usize) -> u64 {
    base ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(tenant: &str, n: usize) -> SubmitRequest {
        SubmitRequest {
            tenant: tenant.into(),
            site: "sandhills".into(),
            seed: None,
            retries: None,
            priority: 0,
            trace: None,
            source: SubmitSource::Generated { n },
        }
    }

    #[test]
    fn requests_round_trip_through_canonical_text() {
        let reqs = vec![
            Request::Submit(SubmitRequest {
                tenant: "alice".into(),
                site: "osg".into(),
                seed: Some(7),
                retries: Some(3),
                priority: -2,
                trace: Some(TraceId::new(0xfeed_beef_0042_0007)),
                source: SubmitSource::Generated { n: 100 },
            }),
            Request::Submit(SubmitRequest {
                tenant: "bob".into(),
                site: "sandhills".into(),
                seed: None,
                retries: None,
                priority: 0,
                trace: None,
                source: SubmitSource::Dax {
                    path: "runs/with space.dax".into(),
                },
            }),
            Request::Cancel { id: 12 },
            Request::Trace { id: 4 },
            Request::Run,
            Request::Status,
            Request::Rollup,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            let text = render_request(&req);
            assert_eq!(parse_request(&text).unwrap(), req, "{text}");
        }
    }

    #[test]
    fn submit_defaults_are_omitted_from_canonical_text() {
        let text = render_request(&Request::Submit(sub("alice", 10)));
        assert_eq!(text, "submit tenant=alice site=sandhills n=10");
    }

    #[test]
    fn submit_trace_renders_between_priority_and_source() {
        let mut with_trace = sub("alice", 10);
        with_trace.trace = Some(TraceId::new(0xab));
        with_trace.priority = 2;
        let text = render_request(&Request::Submit(with_trace.clone()));
        assert_eq!(
            text,
            "submit tenant=alice site=sandhills priority=2 trace=00000000000000ab n=10"
        );
        assert_eq!(parse_request(&text).unwrap(), Request::Submit(with_trace));
    }

    #[test]
    fn legacy_v1_journals_still_replay() {
        let text = format!(
            "{JOURNAL_HEADER_V1}
{}
",
            render_journal_entry(&JournalEntry::Submission {
                id: 0,
                sub: sub("alice", 10),
            }),
        );
        let ledger = Ledger::replay(&text).unwrap();
        assert_eq!(ledger.submissions.len(), 1);
        assert_eq!(ledger.submissions[0].trace, None);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "submti tenant=a site=s n=1",
            "submit site=s tenant=a n=1", // wrong field order
            "submit tenant=a site=s n=zero",
            "submit tenant=a site=s n=0",
            "submit tenant=a site=s",
            "submit tenant= site=s n=1",
            "submit tenant=a site=s trace=zz n=1",
            "submit tenant=a site=s trace= n=1",
            "cancel id=",
            "cancel",
            "trace id=x",
            "trace",
            "run id=1",                              // a field the verb does not have
            "cancel id=1 id=2",                      // repeated field
            "submit tenant=a site=s n=1 dax=x",      // both sources
            "submit tenant=a site=s colour=red n=1", // unknown field
            "submit tenant=a site=s seed=inf n=1",
            "",
        ] {
            let err = parse_request(bad).unwrap_err();
            assert!(matches!(err, WmsError::Parse { .. }), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn a_generated_size_is_judged_by_its_range_in_the_one_sentence() {
        let at = |raw: &str| parse_request(&format!("submit tenant=a site=s n={raw}"));
        let Ok(Request::Submit(ceiling)) = at("20000") else {
            panic!("the ceiling itself is admitted");
        };
        assert_eq!(ceiling.source, SubmitSource::Generated { n: 20_000 });
        for raw in ["0", "20001", "100000000000000", "zero"] {
            let err = at(raw).unwrap_err().to_string();
            let want = format!("n must be in 1..=20000, not \"{raw}\"");
            assert!(err.ends_with(&want), "{raw}: {err}");
        }
    }

    /// A journal written before `n=` had a ceiling may hold one past it:
    /// replay refuses it at its line, as any record the daemon would
    /// not write today.
    #[test]
    fn a_journaled_size_past_the_ceiling_is_an_error_at_its_line() {
        let text = format!(
            "{JOURNAL_HEADER}\n{}\nsubmission id=1 tenant=a site=s n=100000000000000\n",
            render_journal_entry(&JournalEntry::Submission {
                id: 0,
                sub: sub("alice", 10),
            }),
        );
        match Ledger::replay(&text).unwrap_err() {
            WmsError::Parse { span, reason, .. } => {
                assert_eq!(span.line, 3);
                assert!(reason.starts_with("n must be in 1..=20000"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn response_heads_round_trip() {
        let heads = vec![
            ResponseHead::Ok(vec![]),
            ResponseHead::Ok(vec![
                ("id".into(), "4".into()),
                ("queued".into(), "2".into()),
            ]),
            ResponseHead::Lines(12),
            ResponseHead::Error("tenant \"alice\" exceeded its quota of 2".into()),
        ];
        for head in heads {
            let text = render_response_head(&head);
            assert_eq!(parse_response_head(&text).unwrap(), head, "{text}");
        }
        assert!(parse_response_head("nope").is_err());
    }

    #[test]
    fn journal_replays_into_a_ledger() {
        let mut text = String::new();
        text.push_str(JOURNAL_HEADER);
        text.push('\n');
        for entry in [
            JournalEntry::Submission {
                id: 0,
                sub: sub("alice", 10),
            },
            JournalEntry::Submission {
                id: 1,
                sub: sub("bob", 20),
            },
            JournalEntry::Submission {
                id: 2,
                sub: sub("alice", 30),
            },
            JournalEntry::Cancel { id: 1 },
            JournalEntry::RoundStarted {
                round: 0,
                seed: 99,
                members: vec![0, 2],
            },
            JournalEntry::RoundFinished { round: 0 },
            JournalEntry::Submission {
                id: 3,
                sub: sub("bob", 40),
            },
        ] {
            text.push_str(&render_journal_entry(&entry));
            text.push('\n');
        }
        let ledger = Ledger::replay(&text).unwrap();
        assert_eq!(ledger.submissions.len(), 4);
        assert_eq!(ledger.state(1, None), MemberState::Cancelled);
        assert_eq!(ledger.state(0, Some(true)), MemberState::Succeeded);
        assert_eq!(ledger.state(2, Some(false)), MemberState::Failed);
        assert_eq!(ledger.rounds.len(), 1);
        assert!(ledger.rounds[0].finished);
        assert_eq!(ledger.round_of(2), Some(&ledger.rounds[0]));
        assert_eq!(ledger.round_of(1), None);
        assert_eq!(ledger.interrupted(), None);
        assert_eq!(ledger.queued().collect::<Vec<_>>(), [3]);
        assert_eq!(ledger.tenant_queued("bob"), 1);
        assert_eq!(ledger.tenant_queued("alice"), 0);
    }

    #[test]
    fn interrupted_round_is_detected() {
        let text = format!(
            "{JOURNAL_HEADER}\n{}\n{}\n{}\n",
            render_journal_entry(&JournalEntry::Submission {
                id: 0,
                sub: sub("alice", 10),
            }),
            render_journal_entry(&JournalEntry::Submission {
                id: 1,
                sub: sub("bob", 20),
            }),
            render_journal_entry(&JournalEntry::RoundStarted {
                round: 0,
                seed: 7,
                members: vec![0, 1],
            }),
        );
        let ledger = Ledger::replay(&text).unwrap();
        let open = ledger.interrupted().expect("open round");
        assert_eq!(open.seed, 7);
        assert_eq!(open.members, vec![0, 1]);
        assert_eq!(ledger.queued().count(), 0, "open-round members are claimed");
    }

    #[test]
    fn corrupt_journals_are_rejected() {
        let hdr = JOURNAL_HEADER;
        let s = |id: usize| format!("submission id={id} tenant=a site=s n=1\n");
        // (journal, the line the error must name)
        for (bad, line) in [
            ("# wrong header\n".to_string(), 1),
            (format!("{hdr}\nsubmission id=1 tenant=a site=s n=1\n"), 2), // non-dense
            (format!("{hdr}\ncancel id=0\n"), 2),                         // unknown id
            (format!("{hdr}\nround id=0 seed=1 members=0\n"), 2),         // unknown member
            (format!("{hdr}\nround-done id=0\n"), 2),                     // never started
            (format!("{hdr}\n{}round id=1 seed=1 members=0\n", s(0)), 3), // out-of-sequence round
            // What a live daemon refuses, replay refuses at the same
            // entry: a second cancel, a cancelled member in a round, a
            // member named twice, a cancel of a claimed member, a
            // member an earlier round claimed, a second open round.
            (format!("{hdr}\n{}cancel id=0\ncancel id=0\n", s(0)), 4),
            (format!("{hdr}\n{}cancel id=0\nround id=0 seed=5 members=0\n", s(0)), 4),
            (format!("{hdr}\n{}round id=0 seed=5 members=0,0\n", s(0)), 3),
            (format!("{hdr}\n{}round id=0 seed=5 members=0\ncancel id=0\n", s(0)), 4),
            (
                format!(
                    "{hdr}\n{}{}round id=0 seed=5 members=0\nround-done id=0\nround id=1 seed=6 members=0,1\n",
                    s(0),
                    s(1)
                ),
                6,
            ),
            (
                format!(
                    "{hdr}\n{}{}round id=0 seed=5 members=0\nround id=1 seed=6 members=1\n",
                    s(0),
                    s(1)
                ),
                5,
            ),
            (format!("{hdr}\n{}round id=0 seed=5 members=0\nround-done id=1\n", s(0)), 4),
            // An unknown or a repeated field is refused where it stands.
            (format!("{hdr}\n{}cancel id=0 why=bored\n", s(0)), 3),
            (format!("{hdr}\n{}\n# note\nround id=0 seed=5 members=0 seed=6\n", s(0)), 5),
            (format!("{hdr}\nsubmission id=0 tenant=a site=s n=1 n=2\n"), 2),
            // A member list with an empty item, which no daemon writes.
            (format!("{hdr}\n{}{}round id=0 seed=5 members=0,,1\n", s(0), s(1)), 4),
        ] {
            match Ledger::replay(&bad) {
                Err(WmsError::Parse { span, .. }) => assert_eq!(span, Span::line(line), "{bad:?}"),
                other => panic!("{bad:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn a_refused_entry_leaves_the_ledger_as_it_was() {
        let mut ledger = Ledger::default();
        ledger
            .apply(JournalEntry::Submission {
                id: 0,
                sub: sub("alice", 10),
            })
            .unwrap();
        let before = ledger.clone();
        for refused in [
            JournalEntry::Submission {
                id: 2,
                sub: sub("bob", 10),
            },
            JournalEntry::Cancel { id: 1 },
            JournalEntry::RoundStarted {
                round: 0,
                seed: 1,
                members: vec![],
            },
            JournalEntry::RoundStarted {
                round: 0,
                seed: 1,
                members: vec![0, 1],
            },
            JournalEntry::RoundFinished { round: 0 },
        ] {
            ledger.apply(refused.clone()).unwrap_err();
            assert_eq!(ledger, before, "{refused:?}");
        }
    }

    #[test]
    fn status_lines_round_trip_and_tolerate_unknowns() {
        let lines = vec![
            StatusLine {
                id: 0,
                tenant: "alice".into(),
                site: "sandhills".into(),
                state: MemberState::Queued,
                jobs: None,
                wall_time: None,
                queue_wait: None,
                name: "blast2cap3 n=100".into(),
            },
            StatusLine {
                id: 3,
                tenant: "bob".into(),
                site: "osg".into(),
                state: MemberState::Succeeded,
                jobs: Some(33),
                wall_time: Some(1234.5),
                queue_wait: Some(17.25),
                name: "blast2cap3_n100".into(),
            },
        ];
        for line in lines {
            let text = render_status_line(&line);
            assert_eq!(parse_status_line(&text).unwrap(), line, "{text}");
        }
        assert!(parse_status_line("member id=0 state=meh").is_err());
        // Keys a newer daemon adds after the known ones are skipped.
        let newer = "member id=3 tenant=bob site=osg state=failed jobs=- wall-time=- \
                     queue-wait=- round=2 name=wf 1";
        let line = parse_status_line(newer).unwrap();
        assert_eq!((line.id, line.jobs, line.name.as_str()), (3, None, "wf 1"));
    }

    #[test]
    fn two_members_summarised_through_one_pool_share_their_names() {
        let log = "\
workflow-started time=0 jobs=1 site=osg name=blast2cap3_n10
job id=0 kind=compute transformation=split name=split
submitted time=0 job=0 attempt=0
started time=1 job=0 attempt=0
completed job=0 attempt=0 submitted=0 started=1 install-done=1 finished=4
workflow-finished time=4 wall-time=4 succeeded=true
";
        let run = || crate::events::replay(&crate::events::log::parse(log).unwrap()).unwrap();
        let mut names = crate::symbols::NamePool::default();
        let a = crate::statistics::summary(&run(), &mut names);
        let b = crate::statistics::summary(&run(), &mut names);
        assert!(crate::symbols::Name::ptr_eq(&a.name, &b.name));
        assert!(crate::symbols::Name::ptr_eq(&a.site, &b.site));
        assert_eq!((&*a.name, &*a.site), ("blast2cap3_n10", "osg"));
        assert!(a.per_type.is_empty(), "a summary row keeps no breakdown");
    }

    #[test]
    fn round_seed_is_stable_and_spreads() {
        assert_eq!(round_seed(42, 0), 42, "round 0 keeps the base seed");
        assert_eq!(round_seed(42, 3), round_seed(42, 3));
        assert_ne!(round_seed(42, 1), round_seed(42, 2));
        assert_ne!(round_seed(7, 1), round_seed(42, 1));
    }
}
