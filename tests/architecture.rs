//! The source tree's architecture rules, one row each: the PR that set
//! it, what it keeps, the paths it reads (relative to the workspace
//! root, where this test runs; `/*/` is every entry of a directory,
//! `!` leaves a path out and `file#Title` reads only the section a
//! `// Title` banner opens) and the `|`-separated literals it refuses.
//! Each row carries a witness, a line or entry the rule must refuse, so
//! a rule that can no longer fail fails itself.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use Expect::{Absent, Exactly, Holds};

#[derive(Clone, Copy)]
enum Expect {
    /// No line holds a needle.
    Absent,
    /// Each path holds exactly this many lines with each needle.
    Exactly(usize),
    /// The path is a directory holding exactly these entries.
    Holds(&'static str),
}

/// A needle counts only where no identifier character touches it.
const WORD: u8 = 1;
/// Only the lines before a file's first `#[cfg(test)]` count.
const BEFORE_TESTS: u8 = 2;
/// Lines that open with `//` do not count.
const NO_COMMENTS: u8 = 4;

type S = &'static str;
/// (PR, rule, paths, needles, expectation, flags, witness)
type Rule = (u32, S, S, S, Expect, u8, S);

const EVERYWHERE: &str = "crates src tests examples";

#[rustfmt::skip]
const RULES: &[Rule] = &[
    (10, "every first-party root forbids unsafe code", "src/lib.rs src/bin/pegasus/main.rs src/bin/blast2cap3.rs crates/*/src/lib.rs", "#![forbid(unsafe_code)]", Exactly(1), 0, "#![forbid(unsafe_code)]"),
    (12, "no unsafe anywhere", "src crates", "unsafe", Absent, WORD, "let b = unsafe { *p };"),
    (12, "EventSink is the only observer hook", EVERYWHERE, "WorkflowMonitor|MonitorSink|NoopSink|run_with_sink|EnsembleMonitor|fn member_events", Absent, 0, "impl WorkflowMonitor for Probe {}"),
    (13, "one stream walker", "crates src tests", "mod events_pass|fn times_ordered", Absent, 0, "mod events_pass;"),
    (15, "one submission lifecycle", EVERYWHERE, "Ensemble::new|SubmissionId|DaemonMember|with_tenant_active|NoopEnsembleMonitor|with_trace(", Absent, 0, "let e = Ensemble::new(4);"),
    (15, "one plan per round: its definition and the one call", "src/serve.rs", "plan_member(", Exactly(2), 0, "let p = plan_member(&sub, &reg)?;"),
    (16, "the daemon retains no member run", "src/serve.rs", "load_runs|Vec<Option<WorkflowRun>>", Absent, 0, "runs: Vec<Option<WorkflowRun>>,"),
    (17, "one figure binary beside the ledger", "crates/bench/src/bin", "", Holds("ledger"), 0, "fig4.rs"),
    (17, "one thing that times: no bench targets", "crates/bench", "", Holds("Cargo.toml src tests"), 0, "benches"),
    (17, "wms-bench declares no target by hand", "crates/bench/Cargo.toml", "[[bin]]|[[bench]]", Absent, 0, "[[bench]]"),
    (17, "no Criterion-style bench", EVERYWHERE, "criterion_group!|criterion_main!|bench_function", Absent, 0, "criterion_group!(benches, parse);"),
    (18, "one key=value tokenizer", "crates/core/src crates/gridsim/src !crates/core/src/line.rs", "split_once('=')|fn fields", Absent, 0, "let (k, v) = tok.split_once('=')?;"),
    (18, "the retired line readers stay gone", EVERYWHERE, "struct Cursor|fn def_spans|fn scenario_spans|fn split_tail", Absent, 0, "struct Cursor<'a> {"),
    (20, "phases are derived, not stored per attempt", "crates/core/src/trace.rs", "Vec<Phase>|fn label(", Absent, 0, "phases: Vec<Phase>,"),
    (20, "no parallel failure vectors", EVERYWHERE, "failure_kinds|failure_reasons", Absent, 0, "failure_kinds: Vec<FaultReason>,"),
    (21, "the event-log writer formats through line::Writer", "crates/core/src/events.rs", "writeln!", Absent, 0, "writeln!(out, \"done {t}\")?;"),
    (22, "no failure string is classified", EVERYWHERE, "fn classify(|FaultReason::classify", Absent, 0, "let r = FaultReason::classify(&text);"),
    (22, "no failure built from a string literal", EVERYWHERE, "JobOutcome::Failure(\"", Absent, 0, "JobOutcome::Failure(\"preempted\".into())"),
    (22, "the wire prefixes are spelled once, in FaultReason::WIRE", "crates/core/src", "=> \"preempted\"|=> \"evicted\"|=> \"install\"|=> \"timeout\"|=> \"error\"|\
        starts_with(\"preempted\"|starts_with(\"evicted\"|starts_with(\"install\"|starts_with(\"timeout\"|starts_with(\"error\"|\
        \"preempted\" => FaultReason|\"evicted\" => FaultReason|\"install\" => FaultReason|\"timeout\" => FaultReason|\"error\" => FaultReason",
        Absent, 0, "\"timeout\" => FaultReason::Timeout,"),
    (22, "no detail is formatted around a wire prefix", "crates/core/src crates/gridsim/src crates/condor/src src", "format!(\"preempted:|format!(\"evicted:|format!(\"install:|format!(\"timeout:|format!(\"error:|\
        format!(\"preempted\"|format!(\"evicted\"|format!(\"install\"|format!(\"timeout\"|format!(\"error\"", Absent, 0, "format!(\"timeout:{secs}\")"),
    (22, "no ClassAd matcher or legacy injector", EVERYWHERE, "mod classad|mod matchmaker|FailureInjector|with_failure_injector", Absent, 0, "mod matchmaker;"),
    (22, "crates/condor/src holds the pool and the job log", "crates/condor/src", "", Holds("joblog.rs lib.rs pool.rs"), 0, "classad.rs"),
    (23, "no lint code is picked by reading a message", "crates/*/src src", "reason.contains(|reason.starts_with(", Absent, BEFORE_TESTS, "if reason.contains(\"duplicate\") {"),
    (23, "the retired parse variants stay gone", EVERYWHERE, "classify_parse_error|syntax_diagnostic|MakeError|fn parse_err(|fn replay_err(|\
        DaxParse|RescueParse|SiteDefParse|FaultPlanParse|EventLogParse|ProtocolParse", Absent, 0, "WmsError::DaxParse(msg) => {"),
    (23, "one preflight: admission calls the library's two halves", "src/serve.rs", "dax_findings(|plan_findings(", Exactly(1), 0, "let f = dax_findings(&wf, &opts);"),
    (23, "one preflight: check_plan has one caller", "src", "check_plan(", Exactly(1), 0, "let f = verify::check_plan(wf, exec, rc, site, p, df);"),
    (23, "vendor/ holds proptest + rand", "vendor", "", Holds("proptest rand"), 0, "crossbeam"),
    (24, "graph.rs keeps its Kahn queue", "crates/core/src/graph.rs", "VecDeque<", Exactly(1), 0, "let mut seen: VecDeque<JobId> = VecDeque::new();"),
    (24, "no graph walk outside graph.rs", "crates/core/src/workflow.rs crates/core/src/planner.rs crates/core/src/lint src/bin", "VecDeque", Absent, 0, "let mut queue = VecDeque::new();"),
    (24, "the retired dataflow derivations stay gone", "crates src", "fn find_cycle|fn producers|fn used_as|fn kahn", Absent, 0, "fn producers(wf: &AbstractWorkflow) -> Vec<JobId> {"),
    (24, "no name-keyed dataflow copy", "crates/core/src/lint/dax_pass.rs crates/core/src/verify.rs", "BTreeMap<&str|BTreeSet<&str", Absent, 0, "let mut made: BTreeMap<&str, JobId> = BTreeMap::new();"),
    (25, "the catalog file describes no site and reads no INI", "crates/core/src/catalog_io.rs", "SiteCatalog|fn parse_list|fn parse_bool|strip_prefix('[')", Absent, 0, "if let Some(name) = line.strip_prefix('[') {"),
    (25, "no second comma-list reader", "crates src", "fn parse_list", Absent, 0, "fn parse_list(s: &str) -> Vec<String> {"),
    (25, "the CLI builds no site catalog of its own", "src/bin/pegasus", "SiteCatalog|Site::new", Absent, 0, "let site = Site::new(\"osg\", 4);"),
    (25, "--catalog is declared by plan, run, statistics, lint and verify", "src/bin/pegasus", "common::CATALOG", Exactly(5), 0, "common::CATALOG,"),
    (26, "no owned job builder", EVERYWHERE, "struct Job", Absent, WORD, "pub struct Job {"),
    (26, "one way to put a job in a workflow", EVERYWHERE, "struct LogicalFile|fn add_job(|fn add_jobs(|fn job_spec|to_logical|Vec<Job>", Absent, 0, "pub fn add_job(&mut self, job: Job) {"),
    (27, "every library root warns on unreachable pub", "src/lib.rs crates/core/src/lib.rs crates/gridsim/src/lib.rs crates/condor/src/lib.rs \
        crates/bioseq/src/lib.rs crates/cap3/src/lib.rs crates/blastx/src/lib.rs crates/blast2cap3/src/lib.rs", "#![warn(unreachable_pub)]", Exactly(1), 0, "#![warn(unreachable_pub)]"),
    (27, "what the narrowing deleted stays deleted", EVERYWHERE, "cluster_streaming|simulate_reads|assemble_fastq|consensus_weighted|FastqReader|with_throttle|\
        fn utilisation|execution_intervals|InvariantSpec|TemporalClass|SANDHILLS_SLOTS|OSG_SLOTS", Absent, 0, "let reads = simulate_reads(&genome, 30);"),
    (28, "the alphabet is a table, not a search", "crates/bioseq/src/alphabet.rs", "binary_search", Absent, BEFORE_TESTS, "let i = ALPHABET.binary_search(&b).ok()?;"),
    (28, "the word index is direct-addressed", "crates/blastx/src/seed.rs", "HashMap", Absent, BEFORE_TESTS, "let mut words: HashMap<u32, Vec<u32>> = HashMap::new();"),
    (28, "BLOSUM62 is a pair table", "crates/blastx/src/matrix.rs", "binary_search|to_ascii_uppercase|OnceLock", Absent, BEFORE_TESTS, "let a = a.to_ascii_uppercase();"),
    (29, "one scheduling loop waits on a backend", "crates/core/src", ".wait_any()", Exactly(1), BEFORE_TESTS, "let ev = backend.wait_any();"),
    (29, "no per-job admission scan", "crates/core/src/ensemble.rs", "struct Pending|next_seq|submit_jobs|owner|Unobserved", Absent, 0, "struct Pending { seq: u64 }"),
    (30, "stdout is written through cli::emit", "src crates/bench/src/main.rs crates/bench/src/lib.rs crates/bench/src/figures", "println!|print!(", Absent, WORD | BEFORE_TESTS | NO_COMMENTS, "println!(\"{report}\");"),
    (30, "no binary parses or dispatches by hand", "src/bin", "struct Args|fn usage|match verb.name|unhandled verb", Absent, 0, "match verb.name {"),
    (30, "the daemon has no stdout writer of its own", "src/serve.rs", "fn say", Absent, 0, "fn say(line: &str) {"),
    (30, "statistics runs no live path beside its fold", "src/bin", "csv_only", Absent, 0, "if csv_only {"),
    (30, "the library holds no binary's verb table", "src/cli", "const VERBS", Absent, 0, "pub const VERBS: &[Verb] = &[];"),
    (31, "every dependency is first-party or vendored", "Cargo.lock", "source =", Absent, 0, "source = \"registry+https://github.com/rust-lang/crates.io-index\""),
    (32, "the event writer and the lifecycle fold cannot panic", "crates/core/src/line.rs crates/core/src/events.rs", ".expect(|.unwrap()|panic!(", Absent, BEFORE_TESTS, "let end = ev.termination().expect(\"a terminal event\");"),
    (33, "one real executor: no unstaged plan, run_pipeline or real_local_run beside it", "src crates/bench/src/figures tests examples !src/experiment.rs",
        "stage_data = false|blast2cap3::pipeline|run_pipeline|real_local_run", Absent, 0, "let out = real_local_run(10, 5, 2, 42);"),
    (33, "one real executor: plan_local is the one unstaged plan", "src/experiment.rs", "stage_data = false", Exactly(1), 0, "cfg.stage_data = false;"),
    (35, "one event-log writer: no hand-built header or headerless chunk", EVERYWHERE, "render_log_header|render_log_comment|log::append", Absent, 0, "let body = events::log::append(&run.events);"),
    (35, "one event-log writer: the daemon keeps no writer type of its own", EVERYWHERE, "LogMonitor", Absent, WORD, "struct LogMonitor<W: Write> {"),
    (37, "the transcriptome is indexed, never copied", "crates/blast2cap3/src", "make_transcript_dict", Absent, 0, "let dict = make_transcript_dict(transcripts);"),
    (37, "no file kernel reads a whole input", "crates/blast2cap3/src/files.rs", "read_file(", Absent, BEFORE_TESTS, "let contigs = fasta::read_file(workdir.join(names::joined(i)))"),
    (38, "a setting has a caller, and FASTA has one reader", EVERYWHERE,
        "gapped_rescore|banded_align|parse_protein_str|write_protein_file|backoff_factor|max_backoff|default_chunk_seconds|family_size_shape",
        Absent, WORD, "gapped_rescore: true,"),
    (39, "gridsim states each rule once", "crates src tests", "DAY_WIDTH|peak_buckets|SIM_CALENDAR_OCCUPANCY|check_probabilities", Absent, WORD, "const DAY_WIDTH: f64 = 64.0;"),
    (39, "gridsim states each rule once: the lint judges a site file", "crates/gridsim/src", "duplicate site name", Absent, WORD,
        "let reason = format!(\"duplicate site name {:?}\", def.name);"),
    (43, "one setup from flags to a simulated run: the folded entries stay gone", EVERYWHERE,
        "simulate_blast2cap3_at|simulate_blast2cap3_ensemble_at|engine_config_from|fault_script_from|fn event_log", Absent, WORD,
        "let out = simulate_blast2cap3_at(&registry, site, n, seed, &cfg, script);"),
    (43, "one setup from flags to a simulated run: simulation arms the fault plan", "src/bin/pegasus/main.rs",
        "FaultScript::new(|with_faults(|submit_host_crash_after", Exactly(1), 0, "backend = backend.with_faults(script);"),
    (43, "one setup from flags to a simulated run: no verb arms a fault plan itself", "src/bin/pegasus !src/bin/pegasus/main.rs",
        "FaultScript::new(|with_faults(|submit_host_crash_after", Absent, 0, "cfg.crash_after_events = script.submit_host_crash_after();"),
    (44, "one judge per run fact: the slot budget against the width is the ensemble check's", "crates src", "W0305|slot-budget-below-width", Absent, 0,
        "code: \"W0305\","),
    (44, "one judge per run fact: the site registry judges a site name", "crates/core/src/lint", "not in site catalog", Absent, 0,
        "format!(\"site {name:?} not in site catalog\"),"),
    (44, "one judge per run fact: one concurrency sweep sorts ends before starts", "crates/core/src", "a.1.cmp(&b.1)", Exactly(1), BEFORE_TESTS,
        ".then(a.1.cmp(&b.1))"),
    (45, "one code per stream clause: the walker's second codes stay gone", "crates src tests", "E0701|E0702|E0703|E0704|E0705|E0706|W0709", Absent, WORD,
        "const HEADER: Rule = (\"E0807\", \"E0701\");"),
    (47, "every number from the command line is judged by its flag's range", "src/bin", "fn at_least_one|must be at least", Absent, 0,
        "args.bail(\"families must be at least 1\");"),
    (48, "the DAX writer and line::Writer write numbers through line's routines", "crates/core/src/dax.rs#Writing crates/core/src/line.rs#Writing",
        "write!(|writeln!(|format!(", Absent, 0, "let _ = writeln!(out, \"\\\" runtime=\\\"{}\\\">\", job.runtime_hint);"),
    (49, "the binaries and the daemon read event logs only through the reader", "src",
        "log::parse(|log::parse_lines(|read_or_exit(\"event log\"", Absent, 0, "let stream = events::log::parse(&text)?;"),
    (50, "one job lifecycle: the stream judge keeps no state machine beside the record apply advances", "crates/core/src/verify.rs",
        "struct JobState|struct Attempt", Absent, WORD | BEFORE_TESTS, "struct JobState {"),
    (51, "one way to write a whole file: nothing outside bioseq::output and the daemon's two logs opens a file to write",
        "src crates/*/src !crates/bioseq/src/output.rs !src/serve.rs !crates/bench/src/bin/ledger", "fs::write(|File::create(|OpenOptions", Absent, BEFORE_TESTS,
        "std::fs::write(path, bytes)?;"),
    (51, "one way to write a whole file: the daemon creates its member logs and opens its journal, nothing else", "src/serve.rs",
        "File::create(|OpenOptions::new(", Exactly(1), BEFORE_TESTS, "let f = File::create(dir.join(\"status\"))?;"),
    (52, "one way to simulate the paper's workflow from the library, and FASTQ lives with its one user", "crates src tests",
        "simulate_blast2cap3_with|ExperimentOutcome|EnsembleOutcome|sim_backend_for|plan_blast2cap3|simulate_fastq_reads|pub mod fastq", Absent, WORD,
        "let exec = plan_blast2cap3(\"osg\", 40, SEED);"),
    (53, "a fold holds what it reads: a run keeps one failure table, no job record a Vec of its own", "crates/core/src", "Vec<FailedAttempt>", Absent,
        BEFORE_TESTS, "    pub failures: Vec<FailedAttempt>,"),
    (53, "a fold holds what it reads: a trace keeps one attempt table, no track a Vec of its own", "crates/core/src/trace.rs#Tracks", "Vec<", Absent, 0,
        "    pub attempts: Vec<AttemptSpan>,"),
    (54, "one scheduler per member: the round's member holds the scheduling state, with no message layer beside it", "crates/core/src",
        "WorkflowExecution|EventResponse|RetryRequest|take_initial_ready", Absent, WORD, "let exec = WorkflowExecution::new(wf, config, backend.now());"),
    (55, "a finished run states each fact once: its rescue, fault tally and service row are derived, never kept beside it", EVERYWHERE,
        "WorkflowOutcome|MemberSummary|record_reason", Absent, WORD, "Some(WorkflowOutcome::Failed(rescue)) => rescue.to_text(),"),
];

/// The sorted entry names of a directory.
fn entries(dir: &Path) -> Vec<String> {
    let read = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{dir:?}: {e}"));
    let mut names: Vec<String> = read
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// The section of `text` a `// <title>` banner opens — from the line
/// after the banner's closing rule to the next banner or the tests —
/// and the number of lines before it; `None` without such a banner.
fn section<'t>(text: &'t str, title: &str) -> Option<(&'t str, usize)> {
    let banner = format!("\n// {title}\n");
    let open = text.find(&banner)? + banner.len();
    let body = open + text[open..].find('\n')? + 1;
    let rest = &text[body..];
    let end = ["\n// ---", "\n#[cfg(test)]"]
        .iter()
        .filter_map(|marker| rest.find(marker))
        .min()
        .map_or(rest.len(), |at| at + 1);
    Some((&rest[..end], text[..body].lines().count()))
}

fn expand(spec: &str) -> Vec<PathBuf> {
    match spec.split_once("/*/") {
        Some((dir, rest)) => entries(Path::new(dir))
            .iter()
            .map(|e| Path::new(dir).join(e).join(rest))
            .collect(),
        None => vec![PathBuf::from(spec)],
    }
}

/// Every file at or under `path` but the excluded ones and this one,
/// which spells every needle.
fn files(path: &Path, excluded: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    if path == Path::new(file!()) || excluded(path) {
        return;
    }
    if path.is_dir() {
        for entry in entries(path) {
            files(&path.join(entry), excluded, out);
        }
    } else {
        out.push(path.to_path_buf());
    }
}

fn hits(flags: u8, line: &str, needle: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let word = |at: usize| {
        !ident(line[..at].chars().next_back()) && !ident(line[at + needle.len()..].chars().next())
    };
    let comment = flags & NO_COMMENTS != 0 && line.trim_start().starts_with("//");
    let mut at = line.match_indices(needle).map(|(at, _)| at);
    !comment && at.any(|at| flags & WORD == 0 || word(at))
}

/// What is wrong with the tree under one rule, one finding a line.
fn violations(rule: &Rule, texts: &mut HashMap<PathBuf, String>) -> Vec<String> {
    let paths = rule.2;
    let (excluded, specs): (Vec<&str>, Vec<&str>) =
        paths.split(' ').partition(|s| s.starts_with('!'));
    let excluded = |p: &Path| excluded.iter().any(|x| p.starts_with(&x[1..]));
    let mut found = Vec::new();
    for spec in specs {
        let (spec, title) = match spec.split_once('#') {
            Some((spec, title)) => (spec, Some(title)),
            None => (spec, None),
        };
        for path in expand(spec) {
            found.extend(path_violations(rule, &path, title, &excluded, texts));
        }
    }
    found
}

/// What is wrong with one path under one rule: with a `title`, only
/// that section of the file is read.
fn path_violations(
    rule: &Rule,
    path: &Path,
    title: Option<&str>,
    excluded: &dyn Fn(&Path) -> bool,
    texts: &mut HashMap<PathBuf, String>,
) -> Vec<String> {
    let &(_, _, _, needles, expect, flags, _) = rule;
    let (at, mut under) = (path.display(), Vec::new());
    let k = match expect {
        _ if !path.exists() => return vec![format!("{at} does not exist")],
        Holds(want) if entries(path).join(" ") != want => {
            return vec![format!("{at} holds {:?}, want `{want}`", entries(path))];
        }
        Holds(_) => return Vec::new(),
        Absent => 0,
        Exactly(k) => k,
    };
    files(path, excluded, &mut under);
    let mut found = Vec::new();
    for needle in needles.split('|') {
        let mut lines = Vec::new();
        for file in &under {
            let text = texts
                .entry(file.clone())
                .or_insert_with(|| std::fs::read_to_string(file).unwrap_or_default());
            let code = match flags & BEFORE_TESTS {
                0 => text.as_str(),
                _ => text.split("#[cfg(test)]").next().unwrap(),
            };
            let (code, skipped) = match title {
                None => (code, 0),
                Some(title) => match section(code, title) {
                    Some(section) => section,
                    None => return vec![format!("{at} has no `// {title}` section")],
                },
            };
            for (n, line) in code.lines().enumerate() {
                if hits(flags, line, needle) {
                    let n = skipped + n + 1;
                    lines.push(format!("\n  {}:{n}: {}", file.display(), line.trim()));
                }
            }
        }
        if lines.len() != k {
            let have = format!("{} lines with `{needle}`", lines.len());
            found.push(format!("{at}: {have}, want {k}:{}", lines.concat()));
        }
    }
    found
}

#[test]
fn every_rule_holds_and_refuses_its_witness() {
    let (mut texts, mut report) = (HashMap::new(), Vec::new());
    for rule @ &(pr, name, _, needles, expect, flags, witness) in RULES {
        let refused = match expect {
            Holds(entries) => !entries.split(' ').any(|e| e == witness),
            _ => needles.split('|').any(|n| hits(flags, witness, n)),
        };
        if !refused {
            report.push(format!("PR {pr} `{name}`: its witness `{witness}` passes"));
        }
        for finding in violations(rule, &mut texts) {
            report.push(format!("PR {pr} `{name}`: {finding}"));
        }
    }
    assert!(report.is_empty(), "{}", report.join("\n"));
}

/// The out-of-line module a `mod x;` line declares, whatever its
/// visibility.
fn out_of_line_mod(line: &str) -> Option<&str> {
    let words: Vec<&str> = line.trim().strip_suffix(';')?.split_whitespace().collect();
    match words[..] {
        [.., "mod", name] => Some(name),
        _ => None,
    }
}

/// The non-test lines of each `.rs` file under `tree`: the lines before
/// its first `#[cfg(test)]`, except that a `#[cfg(test)]` over an
/// out-of-line `mod x;` is skipped with that line, and the file or
/// directory such a line reaches counts 0.
fn non_test_lines(tree: &str) -> Vec<(PathBuf, usize)> {
    let mut under = Vec::new();
    files(Path::new(tree), &|_| false, &mut under);
    under.retain(|f| f.extension().is_some_and(|e| e == "rs"));
    let (mut counts, mut test_only) = (Vec::new(), Vec::new());
    for file in under {
        let text = std::fs::read_to_string(&file).unwrap();
        let (mut lines, mut n) = (text.lines(), 0);
        while let Some(line) = lines.next() {
            if line.contains("#[cfg(test)]") {
                let Some(name) = lines.next().and_then(out_of_line_mod) else {
                    break;
                };
                // `a/b.rs` declares `a/b/x`; `lib.rs`, `main.rs` and
                // `mod.rs` declare their directory's `x`.
                let stem = file.file_stem().unwrap();
                let dir = match stem.to_str() {
                    Some("lib" | "main" | "mod") => file.parent().unwrap().to_path_buf(),
                    _ => file.with_extension(""),
                };
                test_only.push(dir.join(name));
                continue;
            }
            n += 1;
        }
        counts.push((file, n));
    }
    for (file, n) in &mut counts {
        if test_only
            .iter()
            .any(|m| file.starts_with(m) || *file == m.with_extension("rs"))
        {
            *n = 0;
        }
    }
    counts
}

/// The trees the size table reads; the ledger's share of the bench
/// crate is shown apart.
const SIZED: &[&str] = &[
    "crates/core/src",
    "crates/gridsim/src",
    "src",
    "crates/bioseq/src",
    "crates/blastx/src",
    "crates/blast2cap3/src",
    "crates/cap3/src",
    "crates/condor/src",
    "crates/bench/src",
    "crates/bench/src/bin/ledger",
];

#[test]
fn the_line_counter_skips_a_test_module_declared_out_of_line() {
    let core = non_test_lines("crates/core/src");
    let of = |name: &str| core.iter().find(|(f, _)| f.ends_with(name)).unwrap().1;
    assert_eq!(
        of("dax/oracle.rs"),
        0,
        "a file reached only from a #[cfg(test)] mod line"
    );
    assert!(
        of("dax.rs") > 21,
        "dax.rs is counted past its `#[cfg(test)] mod oracle;`"
    );
    assert_eq!(out_of_line_mod("#[cfg(test)] mod tests {"), None);
    assert_eq!(out_of_line_mod("pub(crate) mod oracle;"), Some("oracle"));
}

/// Prints the non-test lines of each tree (`cargo test --test
/// architecture size_table -- --nocapture`).
#[test]
fn size_table() {
    for tree in SIZED {
        let total: usize = non_test_lines(tree).iter().map(|(_, n)| n).sum();
        println!("{tree:<28} {total:>6}");
    }
}
