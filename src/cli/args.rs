//! Declarative argument parsing: one [`Flag`] per option, one [`Verb`]
//! per subcommand, one table of verbs per binary.
//!
//! Parsing, unknown-flag rejection, the range of every number,
//! per-verb `--help` and the usage screen are all derived from the
//! table, so a binary cannot drift from its own documentation.

use pegasus_wms::line::Range;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// One command-line option: either a boolean switch (`--quiet`) or a
/// value-carrying flag (`--seed <u64>`).
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Flag name without the `--` prefix.
    name: &'static str,
    /// Value placeholder for help text; `None` marks a boolean switch.
    placeholder: Option<&'static str>,
    /// One-line help string.
    help: &'static str,
    /// The values the flag admits — each entry's, for a comma list.
    range: Option<Range>,
    /// Whether the value is a comma-separated list.
    list: bool,
}

/// Declares a value-carrying flag.
pub const fn opt(name: &'static str, placeholder: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        placeholder: Some(placeholder),
        help,
        range: None,
        list: false,
    }
}

/// Declares a boolean switch.
pub const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        placeholder: None,
        ..opt(name, "", help)
    }
}

impl Flag {
    /// The flag admits only the values of `range`.
    pub const fn range(self, range: Range) -> Flag {
        Flag {
            range: Some(range),
            ..self
        }
    }

    /// The flag is a count in `min..=max`.
    pub const fn count(self, min: usize, max: usize) -> Flag {
        self.range(Range::Count { min, max })
    }

    /// The flag is a count of at least `min`.
    pub const fn at_least(self, min: usize) -> Flag {
        self.count(min, usize::MAX)
    }

    /// The flag is finite seconds, at least `min` (or above it, when
    /// `open`).
    pub const fn secs(self, min: f64, open: bool) -> Flag {
        self.range(Range::Secs { min, open })
    }

    /// The flag is a comma-separated list, each entry judged by the
    /// flag's range.
    pub const fn list(self) -> Flag {
        Flag { list: true, ..self }
    }

    /// `--<name> must be <range>, not "<value>"`, for the first value
    /// (or list entry) outside the flag's range.
    fn judge(&self, value: &str) -> Result<(), String> {
        let Some(range) = self.range else {
            return Ok(());
        };
        let bad = if self.list {
            value.split(',').map(str::trim).find(|v| !range.admits(v))
        } else {
            Some(value).filter(|v| !range.admits(v))
        };
        bad.map_or(Ok(()), |bad| {
            Err(range.refusal(&format!("--{}", self.name), bad))
        })
    }
}

/// One subcommand: its name, a summary for the usage screen, an
/// optional positional argument, its flag table, and the handler that
/// reads those flags.
#[derive(Debug, Clone, Copy)]
pub struct Verb {
    /// Subcommand name as typed on the command line.
    pub name: &'static str,
    /// One-line summary shown on the usage screen.
    pub summary: &'static str,
    /// Placeholder for a positional argument (e.g. `<dax>`), if the
    /// verb takes one.
    pub positional: Option<&'static str>,
    /// Every flag the verb accepts.
    pub flags: &'static [Flag],
    /// Runs the verb on its parsed command line.
    pub run: fn(&Args) -> ExitCode,
}

/// One verb's command line, parsed against its flag table. A getter
/// given a value it cannot use exits 2 through [`Args::bail`].
#[derive(Debug)]
pub struct Args {
    bin: &'static str,
    verb: &'static str,
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
    /// `true` when `--help`/`-h` appeared anywhere.
    pub(super) help: bool,
}

impl Args {
    /// Reports `<bin> <verb>: <msg>` and a pointer at the verb's
    /// `--help` on stderr, and exits 2: the invocation is unusable.
    pub fn bail(&self, msg: &str) -> ! {
        let (bin, verb) = (self.bin, self.verb);
        eprintln!("{bin} {verb}: {msg}");
        eprintln!("(see `{bin} {verb} --help`)");
        std::process::exit(2);
    }

    /// The raw value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// The value of a required flag.
    pub fn require(&self, key: &str) -> &str {
        self.get(key)
            .unwrap_or_else(|| self.bail(&format!("missing required --{key}")))
    }

    /// `--key` parsed as `T`, or `default` when absent.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.parsed_opt(key).unwrap_or(default)
    }

    /// `--key` parsed as `T` when present.
    pub fn parsed_opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).map(|v| self.parse(key, v))
    }

    /// The entries of the comma list `--key`, each parsed as `T`, when
    /// present.
    pub fn parsed_list<T: std::str::FromStr>(&self, key: &str) -> Option<Vec<T>> {
        let list = self.get(key)?;
        Some(list.split(',').map(|v| self.parse(key, v.trim())).collect())
    }

    /// `v` of `--key` parsed as `T`: a value its flag's range admitted
    /// always parses, so this refuses only a flag that declares none.
    fn parse<T: std::str::FromStr>(&self, key: &str, v: &str) -> T {
        let bad = || self.bail(&format!("bad value for --{key}: {v:?}"));
        v.parse().unwrap_or_else(|_| bad())
    }

    /// `true` when the boolean switch `--key` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.switches.iter().any(|f| f == key)
    }

    /// Positional arguments in order of appearance.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

impl Verb {
    /// Parses raw arguments (everything after the verb name) against
    /// this verb's flag table.
    ///
    /// # Errors
    /// Unknown flags, value flags missing their value, a value outside
    /// its flag's range, and positional arguments given to a verb that
    /// declares none. Each message ends with a pointer at the verb's
    /// `--help`.
    pub(super) fn parse(&self, bin: &'static str, raw: &[String]) -> Result<Args, String> {
        let see = format!("(see `{bin} {} --help`)", self.name);
        let mut args = Args {
            bin,
            verb: self.name,
            values: BTreeMap::new(),
            switches: Vec::new(),
            positionals: Vec::new(),
            help: false,
        };
        let mut raw = raw.iter();
        while let Some(a) = raw.next() {
            if a == "--help" || a == "-h" {
                args.help = true;
            } else if let Some(key) = a.strip_prefix("--") {
                match self.flags.iter().find(|f| f.name == key) {
                    None => return Err(format!("unknown flag --{key} {see}")),
                    Some(f) if f.placeholder.is_some() => {
                        let Some(value) = raw.next() else {
                            return Err(format!("missing value for --{key} {see}"));
                        };
                        f.judge(value)
                            .map_err(|refusal| format!("{refusal}\n{see}"))?;
                        args.values.insert(key.to_string(), value.clone());
                    }
                    Some(_) => args.switches.push(key.to_string()),
                }
            } else if self.positional.is_some() {
                args.positionals.push(a.clone());
            } else {
                return Err(format!("unexpected argument {a:?} {see}"));
            }
        }
        Ok(args)
    }

    /// The generated help screen for this verb: usage line, summary, and
    /// a two-column flag table.
    pub(super) fn help(&self, bin: &str) -> String {
        let mut out = format!("usage: {bin} {}", self.name);
        if let Some(p) = self.positional {
            let _ = write!(out, " {p}");
        }
        if !self.flags.is_empty() {
            out.push_str(" [flags]");
        }
        let _ = writeln!(out, "\n\n{}\n", self.summary);
        let rendered: Vec<(String, &Flag)> = self
            .flags
            .iter()
            .map(|f| match f.placeholder {
                Some(p) => (format!("--{} <{p}>", f.name), f),
                None => (format!("--{}", f.name), f),
            })
            .collect();
        let width = rendered.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (left, f) in rendered {
            let _ = write!(out, "  {left:<width$}  {}", f.help);
            if let Some(range) = f.range {
                let _ = write!(out, " [{range}]");
            }
            out.push('\n');
        }
        out
    }
}

/// The usage screen of `bin`: one summary line per verb of its table.
pub(super) fn usage(bin: &str, verbs: &[Verb]) -> String {
    let mut out = format!("usage: {bin} <verb> [flags]  ({bin} <verb> --help for details)\n\n");
    let width = verbs.iter().map(|v| v.name.len()).max().unwrap_or(0);
    for v in verbs {
        let _ = writeln!(out, "  {:<width$}  {}", v.name, v.summary);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(_: &Args) -> ExitCode {
        ExitCode::SUCCESS
    }

    const LINT: Verb = Verb {
        name: "lint",
        summary: "static analysis",
        positional: Some("<dax>"),
        flags: &[
            opt("deny", "spec", "escalate lints"),
            opt("format", "text|json", "diagnostic output format"),
        ],
        run: done,
    };
    const RUN: Verb = Verb {
        name: "run",
        summary: "execute a workflow",
        positional: None,
        flags: &[
            opt("dax", "file", "abstract workflow to run"),
            opt("seed", "u64", "deterministic seed"),
            opt("slots", "n", "slot budget"),
            switch("quiet", "suppress progress"),
            switch("ascii", "print levels"),
        ],
        run: done,
    };
    const TABLE: &[Verb] = &[LINT, RUN];

    fn parse(verb: &Verb, args: &[&str]) -> Result<Args, String> {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        verb.parse("tool", &raw)
    }

    #[test]
    fn value_flags_switches_and_positionals_parse() {
        let p = parse(
            &TABLE[0],
            &["--deny", "warnings", "wf.dax", "--format", "json"],
        )
        .unwrap();
        assert_eq!(p.get("deny"), Some("warnings"));
        assert_eq!(p.get("format"), Some("json"));
        assert_eq!(p.positionals(), ["wf.dax"]);

        let p = parse(&TABLE[1], &["--dax", "a.dax", "--quiet", "--seed", "7"]).unwrap();
        assert!(p.flag("quiet"));
        assert!(!p.flag("ascii"));
        assert_eq!(p.require("dax"), "a.dax");
        assert_eq!(p.parsed("seed", 0u64), 7);
        assert_eq!(p.parsed("retries", 3u32), 3);
        assert_eq!(p.parsed_opt::<usize>("slots"), None);
        assert!(!p.help);
    }

    #[test]
    fn unknown_flags_and_stray_positionals_are_rejected() {
        let err = parse(&TABLE[1], &["--bogus", "1"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert!(err.contains("tool run --help"), "{err}");
        let err = parse(&TABLE[1], &["stray"]).unwrap_err();
        assert!(err.contains("stray"), "{err}");
        let err = parse(&TABLE[1], &["--dax"]).unwrap_err();
        assert!(err.contains("missing value"), "{err}");
    }

    const BOUNDED: Verb = Verb {
        name: "generate",
        summary: "bounded numbers",
        positional: None,
        flags: &[
            opt("n", "clusters", "size").count(1, 1_000_000),
            opt("sizes", "n,n,...", "sweep")
                .range(pegasus_wms::serve::DECOMPOSITION)
                .list(),
            opt("cluster", "k", "factor").at_least(1),
            opt("backoff", "secs", "base").secs(0.0, false),
            opt("timeout", "secs", "limit").secs(0.0, true),
            opt("seed", "u64", "seed"),
        ],
        run: done,
    };

    /// Each bound is itself admitted and one past it is refused, in the
    /// one sentence, before any handler runs: no run at the bound is
    /// needed to know it is inclusive.
    #[test]
    fn each_bound_is_admitted_and_one_past_it_is_refused() {
        for (flag, admitted, refused) in [
            (
                "n",
                &["1", "1000000"][..],
                &["0", "1000001", "1e6", "-1", ""][..],
            ),
            (
                "sizes",
                &["1", "20000", "10, 100,300"],
                &["0", "20001", "10,,5", "10,0"],
            ),
            (
                "cluster",
                &["1", "18446744073709551615"],
                &["0", "18446744073709551616"],
            ),
            (
                "backoff",
                &["0", "1e3", "0.5"],
                &["-1", "-0.001", "nan", "inf"],
            ),
            (
                "timeout",
                &["1e-9", "60"],
                &["0", "-0", "-5", "NaN", "infinity"],
            ),
        ] {
            let key = format!("--{flag}");
            for v in admitted {
                let args = parse(&BOUNDED, &[&key, v]).unwrap_or_else(|e| panic!("{key} {v}: {e}"));
                assert_eq!(args.get(flag), Some(*v));
            }
            let range = BOUNDED
                .flags
                .iter()
                .find(|f| f.name == flag)
                .unwrap()
                .range
                .unwrap();
            for v in refused {
                let err = parse(&BOUNDED, &[&key, v]).unwrap_err();
                let bad = v
                    .split(',')
                    .map(str::trim)
                    .find(|e| !range.admits(e))
                    .unwrap();
                let want =
                    format!("{key} must be {range}, not {bad:?}\n(see `tool generate --help`)");
                assert_eq!(err, want, "{key} {v}");
            }
        }
        let args = parse(&BOUNDED, &["--sizes", "10, 100,300", "--seed", "nan"]).unwrap();
        assert_eq!(args.parsed_list::<usize>("sizes"), Some(vec![10, 100, 300]));
        let help = BOUNDED.help("tool");
        for shown in [
            "size [in 1..=1000000]",
            "sweep [in 1..=20000]",
            "factor [>= 1]",
        ] {
            assert!(help.contains(shown), "{help}");
        }
        assert!(
            help.contains("base [>= 0]") && help.contains("limit [> 0]"),
            "{help}"
        );
        assert!(help.contains("  --seed <u64>       seed\n"), "{help}");
    }

    #[test]
    fn help_is_generated_from_the_flag_table() {
        let verb = &TABLE[1];
        let help = verb.help("tool");
        assert!(help.starts_with("usage: tool run [flags]\n"), "{help}");
        for f in verb.flags {
            assert!(
                help.contains(&format!("--{}", f.name)),
                "help misses {}",
                f.name
            );
            assert!(help.contains(f.help), "help misses text for {}", f.name);
        }
        assert!(parse(verb, &["--quiet", "-h"]).unwrap().help);
        let usage = usage("tool", TABLE);
        assert!(usage.starts_with("usage: tool <verb>"), "{usage}");
        for v in TABLE {
            assert!(usage.contains(v.summary), "usage misses {}", v.name);
        }
    }
}
