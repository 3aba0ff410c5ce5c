//! The unit tests of the FASTQ module, which lives with its one user,
//! the `assembly_pipeline` example. `cargo test` builds examples but
//! does not run their tests, and an example declared `test = true` is
//! built only as a test harness, leaving no binary for
//! `cli::examples_print_their_goldens` to run; so the module is
//! compiled a second time here, tests included.

#[path = "../examples/assembly_pipeline/fastq.rs"]
mod fastq;
