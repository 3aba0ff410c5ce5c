//! One-stop imports for the common case.
//!
//! Every example used to import a half-dozen paths by hand; instead:
//!
//! ```
//! use pegasus_wms::prelude::*;
//!
//! let config = EngineConfig::builder().retries(3).backoff(30.0).build();
//! assert_eq!(config.retry.max_attempts, 4);
//!
//! // Every observer is an `EventSink` handed to `Engine::run`.
//! let wf = ExecutableWorkflow {
//!     name: "empty".into(),
//!     site: "local".into(),
//!     jobs: vec![],
//!     edges: vec![],
//! };
//! let mut sink = StatusMonitor::new(wf.jobs.len());
//! let mut backend = pegasus_wms::engine::scripted::ScriptedBackend::new();
//! let run = Engine::run(&mut backend, &wf, &config, &mut sink);
//! assert!(run.succeeded() && sink.percent_done() == 100.0);
//! ```

pub use crate::breakdown::{BreakdownRow, JobSpan};
pub use crate::catalog::{ReplicaCatalog, SiteCatalog, TransformationCatalog};
pub use crate::engine::{
    CompletionEvent, Engine, EngineConfig, EngineConfigBuilder, ExecutionBackend, FaultCounters,
    FaultReason, JobOutcome, JobState, NoopMonitor, RetryPolicy, WorkflowOutcome, WorkflowRun,
};
pub use crate::ensemble::{
    Ensemble, EnsembleConfig, EnsembleMonitor, EnsembleRun, MemberState, Submission,
};
pub use crate::events::{replay, rescue_from_events, EventSink, WorkflowEvent};
pub use crate::graph::Csr;
pub use crate::metrics::{MetricsMonitor, MetricsRegistry};
pub use crate::monitor::{MultiMonitor, StatusMonitor, TimelineMonitor};
pub use crate::planner::{plan, ExecutableJob, ExecutableWorkflow, JobKind, PlannerConfig};
pub use crate::rescue::RescueDag;
pub use crate::statistics::{
    compute, compute_ensemble, render_csv, render_ensemble_csv, render_summary_csv,
    EnsembleStatistics, WorkflowStatistics,
};
pub use crate::symbols::{FileId, JobId, SymbolTable};
pub use crate::workflow::{AbstractWorkflow, Job, LogicalFile};
