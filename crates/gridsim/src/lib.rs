#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! gridsim: a discrete-event simulator of distributed execution
//! platforms.
//!
//! The paper compares one workflow on two physical platforms we cannot
//! access: **Sandhills**, the University of Nebraska campus cluster,
//! and the **Open Science Grid**. This crate replaces them with
//! mechanism-level models driven by a discrete-event simulation:
//!
//! * [`dist`] — the stochastic building blocks (lognormal queue
//!   delays, exponential preemption hazards, runtime jitter);
//! * [`event`] — a deterministic time-ordered event queue;
//! * [`platform`] — the platform model: slot pool with per-slot
//!   speeds, per-job queue-delay distribution, one-time allocation
//!   (startup) delay, install-time factor, and a preemption hazard;
//! * `backend` — [`SimBackend`], which implements
//!   [`pegasus_wms::engine::ExecutionBackend`] so the same DAGMan
//!   engine that drives real thread pools drives simulated platforms;
//! * [`platforms`] — calibrated Sandhills and OSG model constructors
//!   (see DESIGN.md §4 for the calibration story);
//! * [`faults`] — seeded, scriptable fault plans (preemption storms,
//!   blackouts, stragglers, install bursts, submit-host crashes) that
//!   replay identically on this simulator and on the real `condor`
//!   pool;
//! * `faults_lint` — the fault-plan rules of `pegasus lint`
//!   (`E0201`–`W0205`), cross-checking plans against the workflow and
//!   retry policy they will run under;
//! * [`sites`] — declarative [`sites::SiteDef`] records and the
//!   interning [`sites::SiteRegistry`] every consumer routes through:
//!   one text format (`sites.def`) replaces the catalog entries, the
//!   platform constructors, and the CLI site switches;
//! * `sites_lint` — the site-definition rules of `pegasus lint`
//!   (`E0501`–`E0507`).
//!
//! The key property: nothing about the paper's *findings* is
//! hard-coded. Sandhills beating OSG, the >95 % serial-vs-workflow
//! gap, and the n = 300 optimum all emerge from queueing, install
//! overhead, preemption, and cluster-size heavy tails.

pub(crate) mod backend;
pub mod dist;
pub mod event;
pub mod faults;
pub(crate) mod faults_lint;
pub mod platform;
pub mod platforms;
pub mod sites;
pub(crate) mod sites_lint;

pub use backend::SimBackend;
pub use faults::{AttemptTiming, FaultDecision, FaultPlan, FaultScript, Scenario};
pub use faults_lint::{lint_plan, PlanLintContext};
pub use platform::PlatformModel;
pub use sites_lint::lint_sites;
