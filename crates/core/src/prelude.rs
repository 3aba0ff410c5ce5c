//! One-stop imports for the common case: exactly the names
//! `README.md`'s quickstart uses. This is that snippet line for line
//! (a unit test holds the two texts together), the values it takes for
//! granted supplied out of sight — so a name the README uses and this
//! module does not export fails the doc build:
//!
//! ```
//! # fn main() -> Result<(), pegasus_wms::error::WmsError> {
//! # let mut backend = pegasus_wms::engine::scripted::ScriptedBackend::new();
//! # let (name, site) = ("empty".into(), "local".into());
//! # let exec = pegasus_wms::planner::ExecutableWorkflow { name, site, jobs: vec![], edges: vec![] };
//! # let execs = vec![exec.clone(), exec.clone()];
//! use pegasus_wms::prelude::*;
//!
//! let config = EngineConfig::builder()
//!     .retries(10)       // 10 retries = 11 attempts per job
//!     .backoff(30.0)     // exponential backoff, 30 s base
//!     .timeout(6_000.0)  // kill and resubmit stragglers
//!     .seed(42)
//!     .build();
//! // Every observer is an `EventSink` handed to `Engine::run`, which sees
//! // exactly the events the run records (fan several out with
//! // `MultiMonitor`; pass `NoopMonitor` when nothing listens).
//! let mut sink = StatusMonitor::new(exec.jobs.len());
//! let run = Engine::run(&mut backend, &exec, &config, &mut sink);
//! println!("{}", sink.status_line());
//!
//! // Many workflows over the same backend: the ensemble scheduler.
//! let members: Vec<Submission> = execs
//!     .into_iter()
//!     .map(|exec| Submission::new(exec, config.clone()))
//!     .collect();
//! let ensemble = Ensemble::run_to_completion(&mut backend, members, &EnsembleConfig::default())?;
//! println!("makespan {:.0}s over {} workflows",
//!          ensemble.makespan, ensemble.runs.len());
//! # assert!(run.succeeded() && ensemble.runs.len() == 2);
//! # let (mut quiet, mut both) = (NoopMonitor, MultiMonitor::new());
//! # both.push(&mut quiet);
//! # both.push(&mut sink);
//! # Ok(())
//! # }
//! ```

pub use crate::engine::{Engine, EngineConfig, NoopMonitor};
pub use crate::ensemble::{Ensemble, EnsembleConfig, Submission};
pub use crate::monitor::{MultiMonitor, StatusMonitor};
pub use crate::planner::ExecutableWorkflow;

#[cfg(test)]
mod tests {
    #[test]
    fn the_doctest_is_the_readme_quickstart() {
        let readme = include_str!("../../../README.md");
        let opening = "```rust\nuse pegasus_wms::prelude::*;\n";
        let from = readme.find(opening).expect("README imports the prelude") + "```rust\n".len();
        let quickstart = &readme[from..from + readme[from..].find("```").expect("a closing fence")];

        let docs = include_str!("prelude.rs");
        let block = docs.split("//! ```\n").nth(1).expect("the doctest");
        let shown: String = (block.lines())
            .map(|l| l.strip_prefix("//!").expect("a doc line"))
            .map(|l| l.strip_prefix(' ').unwrap_or(l))
            .filter(|l| *l != "#" && !l.starts_with("# "))
            .flat_map(|l| [l, "\n"])
            .collect();
        assert_eq!(shown, quickstart);
    }
}
