//! The shared command-line layer behind the `pegasus` binary.
//!
//! Every verb the binary accepts is declared once in the
//! `args::VERBS` table — its flags, their placeholders, and their
//! help strings — and [`args::Verb::parse`] turns raw argv into typed
//! values against that table. The binary contains no ad-hoc flag
//! handling: unknown flags are rejected, `--help` is generated from
//! the same table that drives parsing, and the global usage screen is
//! the fold of every verb's summary line.

pub mod args;
