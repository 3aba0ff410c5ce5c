//! The command-line layer of both binaries.
//!
//! A binary is a table of [`Verb`]s, each declaring its flags beside the
//! handler that reads them, and a `main` that is one call into
//! [`main`]. That call holds the usage screen, `help`, the unknown-verb
//! message, per-verb `--help` and the dispatch; [`Args`] is the one
//! parser behind every verb. Everything a verb prints on stdout goes
//! through [`emit`] (`out!`, `outln!`), and an input or output it cannot
//! use ends the process through [`or_exit`].

mod args;

pub use args::{opt, switch, Args, Flag, Verb};
use std::process::ExitCode;

/// `print!` through [`emit`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => { $crate::cli::emit(format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
#[macro_export]
macro_rules! outln {
    () => { $crate::cli::emit(format_args!("\n")) };
    ($($arg:tt)*) => { $crate::cli::emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Runs the verb `bin`'s command line names from `verbs`, the binary's
/// table: no verb is the usage screen on stderr and exit 2, `help`,
/// `--help` or `-h` the usage screen on stdout, an unknown verb or flag
/// exit 2, and `<verb> --help` the verb's generated help.
pub fn main(bin: &'static str, verbs: &[Verb]) -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().map(String::as_str) else {
        eprint!("{}", args::usage(bin, verbs));
        return ExitCode::from(2);
    };
    if matches!(cmd, "help" | "--help" | "-h") {
        out!("{}", args::usage(bin, verbs));
        return ExitCode::SUCCESS;
    }
    let Some(verb) = verbs.iter().find(|v| v.name == cmd) else {
        eprintln!("unknown subcommand {cmd:?}\n");
        eprint!("{}", args::usage(bin, verbs));
        return ExitCode::from(2);
    };
    match verb.parse(bin, &raw[1..]) {
        Err(e) => {
            eprintln!("{bin} {}: {e}", verb.name);
            ExitCode::from(2)
        }
        Ok(args) if args.help => {
            out!("{}", verb.help(bin));
            ExitCode::SUCCESS
        }
        Ok(args) => (verb.run)(&args),
    }
}

/// The value of `result`, or `<doing>: <error>` on stderr (the error
/// alone when it says what was being done itself) and exit 1: what
/// the run was given cannot be used, which is neither a usage error
/// nor a panic.
pub fn or_exit<T, E: std::fmt::Display>(doing: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        let sep = if doing.is_empty() { "" } else { ": " };
        eprintln!("{doing}{sep}{e}");
        std::process::exit(1);
    })
}

/// Writes to stdout, the one way the binaries and the daemon do, its
/// failure judged by [`stdout_written`]. Stdout is line-buffered, so a
/// line reaches its reader (the daemon's `listening` line) when written.
pub fn emit(text: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    stdout_written(std::io::stdout().write_fmt(text));
}

/// The verdict on a write to stdout: a reader that has gone away
/// (`pegasus trace | head -1`) ends the process quietly with exit 0, as
/// `yes | head` leaves `yes`; any other failure exits 1 through
/// [`or_exit`].
pub fn stdout_written(written: std::io::Result<()>) {
    match written {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        written => or_exit("cannot write to stdout", written),
    }
}

/// Reads `path` to a string, or reports `cannot read <what> <path>`
/// and exits 1.
pub fn read_or_exit(what: &str, path: &str) -> String {
    let sep = if what.is_empty() { "" } else { " " };
    let doing = format!("cannot read {what}{sep}{path}");
    or_exit(&doing, std::fs::read_to_string(path))
}

/// Writes `bytes` to `path` through [`bioseq::output::replace`], or
/// reports `cannot write <what> <path>` and exits 1.
pub fn write_or_exit(what: &str, path: impl AsRef<std::path::Path>, bytes: impl AsRef<[u8]>) {
    let path = path.as_ref();
    let doing = format!("cannot write {what} {}", path.display());
    let written = bioseq::output::replace(path, |w| std::io::Write::write_all(w, bytes.as_ref()));
    or_exit(&doing, written.and_then(|r| r))
}
