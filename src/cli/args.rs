//! Declarative argument parsing for the `pegasus` binary.
//!
//! One `Flag` per option, one [`Verb`] per subcommand, one global
//! `VERBS` table. Parsing, unknown-flag rejection, per-verb
//! `--help`, and the global usage screen are all derived from the
//! table, so the binary cannot drift from its own documentation.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One command-line option: either a boolean switch (`--quiet`) or a
/// value-carrying flag (`--seed <u64>`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flag {
    /// Flag name without the `--` prefix.
    pub(crate) name: &'static str,
    /// Value placeholder for help text; `None` marks a boolean switch.
    pub(crate) placeholder: Option<&'static str>,
    /// One-line help string.
    pub(crate) help: &'static str,
}

/// Declares a value-carrying flag.
pub(crate) const fn opt(name: &'static str, placeholder: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        placeholder: Some(placeholder),
        help,
    }
}

/// Declares a boolean switch.
pub(crate) const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        placeholder: None,
        help,
    }
}

/// One subcommand: its name, a summary for the usage screen, an
/// optional positional argument, and its flag table.
#[derive(Debug, Clone, Copy)]
pub struct Verb {
    /// Subcommand name as typed on the command line.
    pub name: &'static str,
    /// One-line summary shown on the global usage screen.
    pub(crate) summary: &'static str,
    /// Placeholder for a positional argument (e.g. `<dax>`), if the
    /// verb takes one.
    pub(crate) positional: Option<&'static str>,
    /// Every flag the verb accepts.
    pub(crate) flags: &'static [Flag],
}

/// Parsed arguments for one verb: values, switches, and positionals,
/// with typed fallible getters.
#[derive(Debug, Default)]
pub struct Parsed {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    /// Positional arguments in order of appearance.
    pub positionals: Vec<String>,
    /// `true` when `--help`/`-h` appeared anywhere.
    pub help: bool,
}

impl Parsed {
    /// The raw value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// The value of a required flag.
    ///
    /// # Errors
    /// When the flag was not given.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Parses `--key` into `T`, falling back to `default` when absent.
    ///
    /// # Errors
    /// When the value is present but does not parse as `T`.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }

    /// Parses `--key` into `Some(T)` when present, `None` otherwise.
    ///
    /// # Errors
    /// When the value is present but does not parse as `T`.
    pub fn parsed_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }

    /// `true` when the boolean switch `--key` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.switches.iter().any(|f| f == key)
    }
}

impl Verb {
    fn lookup(&self, name: &str) -> Option<&Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// Parses raw arguments (everything after the verb name) against
    /// this verb's flag table.
    ///
    /// # Errors
    /// Unknown flags, value flags missing their value, and positional
    /// arguments given to a verb that declares none. Each message ends
    /// with a pointer at the verb's `--help`.
    pub fn parse(&self, raw: &[String]) -> Result<Parsed, String> {
        let mut parsed = Parsed::default();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if a == "--help" || a == "-h" {
                parsed.help = true;
                i += 1;
                continue;
            }
            if let Some(key) = a.strip_prefix("--") {
                match self.lookup(key) {
                    None => {
                        return Err(format!(
                            "unknown flag --{key} (see `pegasus {} --help`)",
                            self.name
                        ))
                    }
                    Some(f) if f.placeholder.is_some() => {
                        let Some(value) = raw.get(i + 1) else {
                            return Err(format!(
                                "missing value for --{key} (see `pegasus {} --help`)",
                                self.name
                            ));
                        };
                        parsed.values.insert(key.to_string(), value.clone());
                        i += 2;
                    }
                    Some(_) => {
                        parsed.switches.push(key.to_string());
                        i += 1;
                    }
                }
            } else if self.positional.is_some() {
                parsed.positionals.push(a.clone());
                i += 1;
            } else {
                return Err(format!(
                    "unexpected argument {a:?} (see `pegasus {} --help`)",
                    self.name
                ));
            }
        }
        Ok(parsed)
    }

    /// The auto-generated help screen for this verb: usage line,
    /// summary, and a two-column flag table.
    pub fn help(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "usage: pegasus {}", self.name);
        if let Some(p) = self.positional {
            let _ = write!(out, " {p}");
        }
        if !self.flags.is_empty() {
            let _ = write!(out, " [flags]");
        }
        let _ = writeln!(out, "\n\n{}\n", self.summary);
        let rendered: Vec<(String, &str)> = self
            .flags
            .iter()
            .map(|f| {
                let left = match f.placeholder {
                    Some(p) => format!("--{} <{p}>", f.name),
                    None => format!("--{}", f.name),
                };
                (left, f.help)
            })
            .collect();
        let width = rendered.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (left, help) in rendered {
            let _ = writeln!(out, "  {left:<width$}  {help}");
        }
        out
    }
}

/// Shared flag declarations reused across verbs.
mod common {
    use super::{opt, switch, Flag};

    pub(crate) const SEED: Flag = opt("seed", "u64", "deterministic seed (default 20140519)");
    pub(crate) const RETRIES: Flag = opt("retries", "n", "retry budget per job");
    pub(crate) const BACKOFF: Flag = opt("backoff", "secs", "exponential retry backoff base");
    pub(crate) const TIMEOUT: Flag = opt("timeout", "secs", "per-attempt timeout");
    pub(crate) const SITE: Flag = opt(
        "site",
        "name",
        "target site name or alias (built-ins: sandhills|osg|osg_prestaged)",
    );
    pub(crate) const SITES: Flag = opt(
        "sites",
        "file",
        "site definitions file replacing the built-in sites",
    );
    pub(crate) const SIZES: Flag = opt(
        "sizes",
        "n,n,...",
        "decomposition sweep (default 10,100,300,500)",
    );
    pub(crate) const OUT: Flag = opt("out", "file", "write output to a file instead of stdout");
    pub(crate) const QUIET: Flag = switch("quiet", "suppress progress and tables");
    pub(crate) const CATALOG: Flag = opt(
        "catalog",
        "file",
        "transformation/replica catalog replacing the built-ins",
    );
    pub(crate) const FROM_EVENTS: Flag = opt(
        "from-events",
        "file,...",
        "recompute offline from event logs",
    );
    pub(crate) const ADDR: Flag = opt("addr", "host:port", "daemon protocol address");
    pub(crate) const PROFILE: Flag = switch(
        "profile",
        "collect engine self-profiling scopes (summary on stderr)",
    );
}

/// Every subcommand of the `pegasus` binary, in usage-screen order.
pub(crate) const VERBS: &[Verb] = &[
    Verb {
        name: "generate-dax",
        summary: "emit the blast2cap3 Fig. 2 workflow as a DAX file",
        positional: None,
        flags: &[
            opt("n", "clusters", "decomposition size (default 300)"),
            common::OUT,
            switch(
                "calibrated",
                "use chunk costs calibrated to the 100-hour baseline",
            ),
            common::SEED,
        ],
    },
    Verb {
        name: "generate-workload",
        summary: "emit a synthetic benchmark workflow as a DAX file",
        positional: None,
        flags: &[
            opt("shape", "name", "montage|cybershake|epigenomics|ligo"),
            opt("size", "n", "workflow size (default 20)"),
            common::OUT,
        ],
    },
    Verb {
        name: "catalogs",
        summary: "dump the built-in transformation/replica catalogs",
        positional: None,
        flags: &[common::OUT],
    },
    Verb {
        name: "plan",
        summary: "map a DAX onto a site (pegasus-plan)",
        positional: None,
        flags: &[
            opt("dax", "file", "abstract workflow to plan"),
            common::SITE,
            common::SITES,
            opt("cluster", "k", "horizontal clustering factor"),
            switch(
                "data-reuse",
                "elide jobs whose outputs exist in the replica catalog",
            ),
            switch("cleanup", "append cleanup jobs"),
            opt("dot", "file", "write the planned DAG as Graphviz dot"),
            switch("ascii", "print the planned DAG as ASCII levels"),
            common::CATALOG,
            common::PROFILE,
        ],
    },
    Verb {
        name: "run",
        summary: "execute a planned workflow on a simulated platform (pegasus-run)",
        positional: None,
        flags: &[
            opt("dax", "file", "abstract workflow to run"),
            common::SITE,
            common::SITES,
            common::SEED,
            common::RETRIES,
            common::BACKOFF,
            common::TIMEOUT,
            opt("fault-plan", "file", "scripted fault plan for the backend"),
            opt("resume", "rescue", "resume from a rescue DAG"),
            opt("rescue-out", "file", "rescue DAG path on failure"),
            opt("timeline", "csv", "write the concurrency timeline"),
            opt("events", "file", "write the provenance event log"),
            opt("metrics", "prom", "write the Prometheus exposition"),
            switch(
                "verify",
                "shadow-verify the live event stream against the temporal invariant catalog",
            ),
            common::QUIET,
            common::CATALOG,
            common::PROFILE,
        ],
    },
    Verb {
        name: "statistics",
        summary: "statistics of a run in CSV, live or --from-events",
        positional: None,
        flags: &[
            opt("dax", "file", "abstract workflow to run"),
            common::SITE,
            common::SITES,
            common::SEED,
            common::RETRIES,
            common::BACKOFF,
            common::TIMEOUT,
            opt("fault-plan", "file", "scripted fault plan for the backend"),
            common::FROM_EVENTS,
            common::CATALOG,
        ],
    },
    Verb {
        name: "analyze",
        summary: "pegasus-analyzer report offline from an event log",
        positional: None,
        flags: &[common::FROM_EVENTS],
    },
    Verb {
        name: "ensemble",
        summary: "run the decomposition sweep as one ensemble",
        positional: None,
        flags: &[
            common::SITE,
            common::SITES,
            common::SIZES,
            common::SEED,
            common::RETRIES,
            common::BACKOFF,
            common::TIMEOUT,
            opt("slots", "n", "global slot budget across members"),
            common::OUT,
            opt("metrics", "prom", "write the Prometheus exposition"),
            common::QUIET,
            common::PROFILE,
        ],
    },
    Verb {
        name: "breakdown",
        summary: "Fig. 7-8 per-task phase decomposition, live or --from-events",
        positional: None,
        flags: &[
            common::SITE,
            common::SITES,
            common::SIZES,
            common::SEED,
            common::RETRIES,
            common::BACKOFF,
            common::TIMEOUT,
            common::OUT,
            opt("events-dir", "dir", "also write one event log per member"),
            common::FROM_EVENTS,
            switch("json", "emit the breakdown as JSON instead of CSV"),
            common::QUIET,
        ],
    },
    Verb {
        name: "trace",
        summary: "span tree / Chrome trace of a run, live or from event logs",
        positional: None,
        flags: &[
            common::SITE,
            common::SITES,
            opt(
                "n",
                "clusters",
                "decomposition size for a live run (default 100)",
            ),
            common::SEED,
            common::RETRIES,
            common::BACKOFF,
            common::TIMEOUT,
            opt("fault-plan", "file", "scripted fault plan for the backend"),
            common::FROM_EVENTS,
            opt(
                "events-dir",
                "dir",
                "fold every member event log of a serve state directory",
            ),
            opt("events", "file", "also write the live run's event log"),
            opt("format", "text|chrome", "output format (default text)"),
            common::OUT,
            common::QUIET,
        ],
    },
    Verb {
        name: "metrics",
        summary: "Prometheus exposition: live sweep, --from-events, or --scrape",
        positional: None,
        flags: &[
            common::SITE,
            common::SITES,
            common::SIZES,
            common::SEED,
            common::RETRIES,
            common::BACKOFF,
            common::TIMEOUT,
            common::OUT,
            common::FROM_EVENTS,
            opt(
                "scrape",
                "host:port",
                "HTTP GET /metrics from a running daemon",
            ),
        ],
    },
    Verb {
        name: "lint",
        summary: "static analysis of a DAX plus fault plans, configs, event logs",
        positional: Some("<dax>"),
        flags: &[
            opt(
                "dax",
                "file",
                "the DAX to lint (alternative to the positional)",
            ),
            opt("format", "text|json", "diagnostic output format"),
            opt("deny", "spec", "escalate lints: warnings, codes, or names"),
            opt("allow", "spec", "silence lints by code or name"),
            common::SITE,
            common::SITES,
            common::CATALOG,
            opt("fault-plan", "file,...", "fault plans to lint"),
            opt("events", "file,...", "event logs to sanitize"),
            common::RETRIES,
            common::BACKOFF,
            common::TIMEOUT,
            opt("slots", "n", "slot budget for the feasibility pass"),
            opt("fan-limit", "n", "fan-in/out threshold (default 500)"),
            opt(
                "explain",
                "code",
                "print extended help for a rule code or name",
            ),
            switch("list", "list every registered rule with its default level"),
        ],
    },
    Verb {
        name: "verify",
        summary: "semantic verification: temporal invariants over event logs, dataflow over plans",
        positional: Some("<events-or-dir>"),
        flags: &[
            opt(
                "dax",
                "file",
                "verify the planned dataflow of this DAX (layer 2)",
            ),
            common::SITE,
            common::SITES,
            common::CATALOG,
            common::FROM_EVENTS,
            opt(
                "events-dir",
                "dir",
                "verify every member event log of a serve state directory",
            ),
            opt("format", "text|json", "diagnostic output format"),
            opt(
                "deny",
                "spec",
                "escalate findings: warnings, codes, or names",
            ),
            opt("allow", "spec", "silence findings by code or name"),
            opt("slots", "n", "slot capacity for the concurrency sweep"),
            opt(
                "storage-limit",
                "bytes",
                "storage bound for the footprint sweep",
            ),
            common::SEED,
            common::RETRIES,
            common::BACKOFF,
            common::TIMEOUT,
            opt("fault-plan", "file", "scripted fault plan for the live run"),
            opt(
                "n",
                "clusters",
                "decomposition size for a live run (default 100)",
            ),
            opt("events", "file", "also write the live run's event log"),
            common::QUIET,
        ],
    },
    Verb {
        name: "serve",
        summary: "multi-tenant ensemble daemon with journal, recovery, and /metrics",
        positional: None,
        flags: &[
            common::ADDR,
            opt("metrics-addr", "host:port", "HTTP /metrics scrape address"),
            opt(
                "dir",
                "dir",
                "state directory (journal + member event logs)",
            ),
            common::SITES,
            common::SEED,
            common::RETRIES,
            opt("slots", "n", "global slot budget per round"),
            opt("tenant-slots", "n", "per-tenant in-flight job quota"),
            opt("tenant-active", "n", "per-tenant queued-submission quota"),
            opt(
                "crash-after-members",
                "n",
                "test hook: abort after n member completions",
            ),
        ],
    },
    Verb {
        name: "submit",
        summary: "submit workflows to a serve daemon (and run/cancel/shutdown)",
        positional: None,
        flags: &[
            common::ADDR,
            opt("tenant", "name", "tenant the submission is accounted to"),
            common::SITE,
            opt(
                "n",
                "clusters",
                "submit a generated blast2cap3 of this size",
            ),
            opt(
                "dax",
                "file",
                "submit this DAX file (lint-checked at admission)",
            ),
            common::SEED,
            common::RETRIES,
            opt("priority", "i32", "admission priority (higher first)"),
            opt("trace", "hex", "trace id keying this workflow's spans"),
            opt("cancel", "id", "cancel a queued submission"),
            switch("run", "run every queued submission as one batch of rounds"),
            switch("shutdown", "stop the daemon"),
        ],
    },
    Verb {
        name: "status",
        summary: "member table from a live daemon (--addr) or its directory (--dir)",
        positional: None,
        flags: &[
            common::ADDR,
            opt("dir", "dir", "render offline from a daemon state directory"),
            switch("rollup", "print the ensemble rollup CSV instead"),
            switch("metrics", "print the Prometheus exposition instead"),
            opt("trace", "id", "print the span tree of one member instead"),
        ],
    },
];

/// Looks a verb up by name.
pub fn find(name: &str) -> Option<&'static Verb> {
    VERBS.iter().find(|v| v.name == name)
}

/// The global usage screen: one summary line per verb, generated from
/// `VERBS`.
pub fn usage() -> String {
    let mut out =
        String::from("usage: pegasus <verb> [flags]  (pegasus <verb> --help for details)\n\n");
    let width = VERBS.iter().map(|v| v.name.len()).max().unwrap_or(0);
    for v in VERBS {
        let _ = writeln!(out, "  {:<width$}  {}", v.name, v.summary);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn value_flags_switches_and_positionals_parse() {
        let verb = find("lint").unwrap();
        let p = verb
            .parse(&argv(&["--deny", "warnings", "wf.dax", "--format", "json"]))
            .unwrap();
        assert_eq!(p.get("deny"), Some("warnings"));
        assert_eq!(p.get("format"), Some("json"));
        assert_eq!(p.positionals, vec!["wf.dax"]);

        let verb = find("run").unwrap();
        let p = verb
            .parse(&argv(&["--dax", "a.dax", "--site", "osg", "--quiet"]))
            .unwrap();
        assert!(p.flag("quiet"));
        assert!(!p.flag("ascii"));
        assert_eq!(p.require("dax").unwrap(), "a.dax");
    }

    #[test]
    fn unknown_flags_and_stray_positionals_are_rejected() {
        let verb = find("run").unwrap();
        let err = verb.parse(&argv(&["--bogus", "1"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert!(err.contains("pegasus run --help"), "{err}");
        let err = verb.parse(&argv(&["stray"])).unwrap_err();
        assert!(err.contains("stray"), "{err}");
        let err = verb.parse(&argv(&["--dax"])).unwrap_err();
        assert!(err.contains("missing value"), "{err}");
    }

    #[test]
    fn typed_getters_report_bad_values() {
        let verb = find("serve").unwrap();
        let p = verb.parse(&argv(&["--seed", "not-a-number"])).unwrap();
        assert!(p.parsed("seed", 0u64).is_err());
        assert_eq!(p.parsed("retries", 3u32).unwrap(), 3);
        assert_eq!(p.parsed_opt::<usize>("slots").unwrap(), None);
        let p = verb.parse(&argv(&["--slots", "8"])).unwrap();
        assert_eq!(p.parsed_opt::<usize>("slots").unwrap(), Some(8));
    }

    #[test]
    fn help_is_generated_from_the_flag_table() {
        let verb = find("serve").unwrap();
        let help = verb.help();
        for f in verb.flags {
            assert!(
                help.contains(&format!("--{}", f.name)),
                "help misses {}",
                f.name
            );
            assert!(help.contains(f.help), "help misses text for {}", f.name);
        }
        let p = verb.parse(&argv(&["--help"])).unwrap();
        assert!(p.help);
        let usage = usage();
        for v in VERBS {
            assert!(usage.contains(v.name), "usage misses {}", v.name);
        }
    }

    #[test]
    fn every_verb_name_and_flag_is_unique() {
        for (i, v) in VERBS.iter().enumerate() {
            assert!(
                VERBS.iter().skip(i + 1).all(|w| w.name != v.name),
                "duplicate verb {}",
                v.name
            );
            for (j, f) in v.flags.iter().enumerate() {
                assert!(
                    v.flags.iter().skip(j + 1).all(|g| g.name != f.name),
                    "duplicate flag --{} on {}",
                    f.name,
                    v.name
                );
            }
        }
    }
}
