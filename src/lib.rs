#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! blast2cap3-pegasus: the umbrella crate of the reproduction.
//!
//! This crate wires the pieces together:
//!
//! * [`registry`] — binds the blast2cap3 file-based task kernels to
//!   transformation names, producing the [`condor::pool::TaskRegistry`] the
//!   local worker pool executes;
//! * [`experiment`] — the shared experiment harness: workload
//!   calibration against the paper's 100-hour serial baseline, the
//!   simulated platform runs of Figs. 4–5
//!   ([`experiment::simulate_blast2cap3`], and
//!   [`experiment::simulate_blast2cap3_ensemble`] for a sweep sharing
//!   one platform), and the real local workflow run at laptop scale
//!   ([`experiment::real_run`]);
//! * [`serve`] — the `pegasus serve` daemon runtime: a multi-tenant
//!   submission socket, journal + event-log persistence, crash
//!   recovery, and the Prometheus scrape endpoint;
//! * [`cli`] — the command-line layer of both binaries: one table of
//!   verbs per binary over one parser and one stdout writer.
//!
//! See README.md for the quickstart and EXPERIMENTS.md for the
//! paper-vs-measured record.

pub mod cli;
pub mod experiment;
pub mod registry;
pub mod serve;

pub use registry::build_registry;
