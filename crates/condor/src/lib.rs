#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! A Condor-like local execution backend.
//!
//! Pegasus submits planned jobs to HTCondor; this crate provides the
//! equivalent for local, *real* execution — and holds only what a real
//! run executes:
//!
//! * [`pool`] — [`pool::LocalPool`], a worker-thread pool that
//!   implements [`pegasus_wms::engine::ExecutionBackend`] and executes
//!   registered Rust task kernels with real wall-clock timing. Its
//!   slots are identical threads fed from one channel, so nothing is
//!   matched: a job goes to whichever worker is free. One
//!   fault-injection hook ([`pool::FaultInjector`]) exercises the
//!   engine's retry and rescue machinery, and every failure the pool
//!   reports is typed where it happens ([`pegasus_wms::engine::Failure`]);
//! * [`joblog`] — the Condor user job log: a monitor fed by the
//!   engine's event stream (live, or offline from a recorded one) and
//!   the writer for the classic text format.

pub mod joblog;
pub mod pool;
