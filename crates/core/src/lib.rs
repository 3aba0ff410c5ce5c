#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! pegasus-wms: a workflow management system in the style of Pegasus.
//!
//! Pegasus ("Planning for Execution in Grids") maps *abstract*
//! scientific workflows — DAGs of logical tasks and files — onto
//! concrete execution platforms, submits them through Condor DAGMan,
//! retries failures, writes rescue DAGs, and reports statistics. This
//! crate rebuilds that stack for the blast2cap3 reproduction:
//!
//! * [`workflow`] — the abstract workflow model: jobs, logical files,
//!   dataflow- and explicitly-declared dependencies, DAG validation
//!   and topological analysis;
//! * [`symbols`] — interned [`symbols::JobId`]/[`symbols::FileId`]
//!   identifiers and the [`symbols::SymbolTable`] that resolves them
//!   back to names at render/log
//!   boundaries;
//! * [`graph`] — compressed sparse row (CSR) adjacency shared by the
//!   workflow, planner, and engine traversals;
//! * [`dax`] — the DAX (directed acyclic graph in XML) writer and
//!   parser, the interchange format of the paper's Fig. 2/3 DAGs;
//! * [`catalog`] — site, transformation, and replica catalogs, the
//!   information the planner consults;
//! * [`planner`] — abstract → executable planning: per-site software
//!   checks that inject download/install phases (the red rectangles of
//!   Fig. 3), stage-in/stage-out jobs, optional horizontal task
//!   clustering;
//! * [`engine`] — a DAGMan-style scheduler generic over an
//!   [`engine::ExecutionBackend`]: ready-set submission, per-job retry
//!   policy, rescue-DAG generation on unrecoverable failure;
//! * [`events`] — the provenance core: the typed, append-only
//!   [`events::WorkflowEvent`] stream the engine emits at every state
//!   transition, its line-oriented log format, and [`events::replay`]
//!   which folds a log back into an [`engine::WorkflowRun`] for offline
//!   statistics, analysis, and rescue;
//! * [`mod@line`] — the one reader of the `keyword key=value …` line
//!   grammar the event log, the serve protocol and journal, fault
//!   plans and `sites.def` are all written in;
//! * [`metrics`] — a dependency-free registry of labelled counters,
//!   gauges, and fixed-bucket histograms rendered in the Prometheus
//!   text exposition format, populated live by a
//!   [`metrics::MetricsMonitor`] or offline from an event stream;
//! * [`breakdown`] — the per-task phase profiler: folds any event
//!   stream into `queue-wait → install → kickstart → post-overhead →
//!   retry-badput` spans and per-site/per-n breakdown tables (the
//!   paper's Fig. 7–8 decomposition);
//! * [`trace`] — end-to-end span tracing: folds any event stream
//!   into a workflow → job → attempt → phase span tree keyed by a
//!   [`TraceId`], exported as a Chrome Trace Event JSON
//!   (Perfetto-loadable) or a plain-text tree;
//! * [`prof`] — engine self-profiling: flag-gated wall-clock scopes
//!   over the engine's own hot path (parse, plan, simulate, serve
//!   rounds), exported as `pegasus_engine_phase_seconds` histograms;
//! * [`lint`] — a compiler-style static analyzer: typed diagnostics
//!   with codes, severities, and file/line/col spans over workflows,
//!   fault plans, run configurations, and provenance event streams
//!   (the `pegasus lint` front-end);
//! * [`verify`] — the two-layer semantic verifier behind `pegasus
//!   verify`: an LTL-lite temporal invariant catalog (`E08xx`) over
//!   complete event streams, and whole-plan dataflow / ensemble
//!   feasibility checks (`E06xx`) over planned DAGs, plus the
//!   [`verify::StreamWalker`] that judges event logs as they are read
//!   and, flag-gated, asserts the catalog on live engine runs;
//! * [`statistics`] — pegasus-statistics equivalents: Workflow Wall
//!   Time, per-task Kickstart / Waiting / Download-Install breakdowns;
//! * [`rescue`] — rescue DAGs: the re-submittable remainder of a
//!   partially failed run;
//! * [`serve`] — the `pegasus serve` wire protocol, journal, and
//!   status rendering: the transport-agnostic half of the
//!   multi-tenant ensemble daemon (the daemon itself lives in the
//!   umbrella crate).
//!
//! Execution backends live in separate crates: `condor` runs jobs for
//! real on a local worker pool; `gridsim` simulates campus-cluster and
//! opportunistic-grid platforms.

pub mod analyzer;
pub mod breakdown;
pub mod catalog;
pub mod catalog_io;
pub(crate) mod csv;
pub mod dax;
pub mod engine;
pub mod ensemble;
pub mod error;
pub mod events;
pub mod graph;
pub mod line;
pub mod lint;
pub mod metrics;
pub mod monitor;
pub mod planner;
pub mod prelude;
pub mod prof;
pub mod rescue;
pub mod serve;
pub mod statistics;
pub mod symbols;
pub mod synthetic;
pub mod trace;
pub mod verify;
pub mod workflow;

pub use lint::{Diagnostic, Severity};
pub use trace::TraceId;
