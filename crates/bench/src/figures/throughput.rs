//! Million-job throughput harness for the interned-id engine.
//!
//! Builds the paper's Fig. 2 workflow at large `n`, round-trips it
//! through the DAX text format (exercising intern-on-parse), plans it
//! against the paper catalogs, and simulates it on the Sandhills
//! platform model — timing every stage and reporting jobs/second
//! planned and events/second simulated, plus a peak-RSS proxy read
//! from `/proc/self/status`.
//!
//! Two modes:
//!
//! * default: sweep the given sizes and write
//!   `target/experiments/BENCH_throughput.json` (the committed
//!   `BENCH_throughput.json` at the repo root is a blessed copy of
//!   this output; see EXPERIMENTS.md E15 for regeneration).
//! * `--check <baseline.json> --n <N>`: run one size and exit
//!   non-zero when DAX megabytes/sec parsed, planned jobs/sec or
//!   simulated events/sec fall below `--min-ratio` (default 0.7,
//!   i.e. a >30% regression) of the baseline entry for the same
//!   `n`, or when the peak resident set rises above 1.15 times it —
//!   the CI throughput gate. The check also asserts the tracing-off contract: the
//!   measured run (profiling disabled, the default) must leave the
//!   self-profiler empty — every `prof::scope` on the hot path is a
//!   no-op — while a second profiled run of the same size must
//!   collect samples, proving the flag (not dead instrumentation)
//!   is what keeps the default path free.
//!
//! No verb reproduces it; it stays until the ledger absorbs it.

use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::experiment::{builtin_registry, registry_catalogs};
use pegasus_wms::dax;
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor};
use pegasus_wms::planner::{plan, PlannerConfig};
use std::process::ExitCode;
use std::time::Instant;
use wms_bench::write_experiment_file;

/// One measured size.
struct Row {
    n: usize,
    dax_bytes: usize,
    parse_seconds: f64,
    dax_mb_per_sec_parsed: f64,
    jobs_planned: usize,
    plan_seconds: f64,
    jobs_per_sec_planned: f64,
    events: usize,
    simulate_seconds: f64,
    events_per_sec_simulated: f64,
    total_seconds: f64,
    peak_rss_kb: u64,
}

/// How far above the committed row's peak resident set a `--check`
/// run may land: memory does not jitter the way a rate on a shared
/// runner does, so its allowance is tighter than `--min-ratio`.
const MAX_RSS_RATIO: f64 = 1.15;

/// Peak resident set size in kB (`VmHWM` from `/proc/self/status`);
/// 0 where the proc filesystem is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn measure(n: usize, seed: u64) -> Row {
    let wall = Instant::now();

    // Synthetic DAX: the Fig. 2 shape at `n` clusters, written out and
    // parsed back so the interning parser is on the measured path.
    let params = WorkflowParams::with_n(n);
    let text = dax::to_dax(&build_workflow(&params));
    let dax_bytes = text.len();

    let t = Instant::now();
    let wf = dax::from_dax(&text).expect("generated DAX parses");
    let parse_seconds = t.elapsed().as_secs_f64();
    drop(text);

    // Built outside the timed region: `plan_seconds` is the planner alone.
    let registry = builtin_registry();
    let sandhills = registry.resolve("sandhills").expect("built-in site");
    let (sites, tc, rc) = registry_catalogs(registry);
    let cfg = PlannerConfig::for_site(registry.catalog_name(sandhills));
    let t = Instant::now();
    let exec = plan(&wf, &sites, &tc, &rc, &cfg).expect("planning succeeds");
    let plan_seconds = t.elapsed().as_secs_f64();
    let jobs_planned = exec.jobs.len();
    drop(wf);

    let mut backend = registry.backend(sandhills, seed);
    let engine_cfg = EngineConfig::builder().retries(3).seed(seed).build();
    let t = Instant::now();
    let run = Engine::run(&mut backend, &exec, &engine_cfg, &mut NoopMonitor);
    let simulate_seconds = t.elapsed().as_secs_f64();
    assert!(run.succeeded(), "throughput run must succeed (n={n})");
    let events = run.events.len();

    Row {
        n,
        dax_bytes,
        parse_seconds,
        dax_mb_per_sec_parsed: dax_bytes as f64 / 1e6 / parse_seconds.max(1e-9),
        jobs_planned,
        plan_seconds,
        jobs_per_sec_planned: jobs_planned as f64 / plan_seconds.max(1e-9),
        events,
        simulate_seconds,
        events_per_sec_simulated: events as f64 / simulate_seconds.max(1e-9),
        total_seconds: wall.elapsed().as_secs_f64(),
        peak_rss_kb: peak_rss_kb(),
    }
}

fn render_json(seed: u64, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"wms-bench throughput\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"site\": \"sandhills\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"dax_bytes\": {}, \"parse_seconds\": {:.3}, \
             \"dax_mb_per_sec_parsed\": {:.0}, \
             \"jobs_planned\": {}, \"plan_seconds\": {:.3}, \"jobs_per_sec_planned\": {:.0}, \
             \"events\": {}, \"simulate_seconds\": {:.3}, \"events_per_sec_simulated\": {:.0}, \
             \"total_seconds\": {:.3}, \"peak_rss_kb\": {}}}{}\n",
            r.n,
            r.dax_bytes,
            r.parse_seconds,
            r.dax_mb_per_sec_parsed,
            r.jobs_planned,
            r.plan_seconds,
            r.jobs_per_sec_planned,
            r.events,
            r.simulate_seconds,
            r.events_per_sec_simulated,
            r.total_seconds,
            r.peak_rss_kb,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pulls `"key": <number>` out of the baseline entry for `n`. The
/// baseline is this figure's own output, so a flat scan of the one
/// matching line is all the JSON parsing needed.
fn baseline_value(json: &str, n: usize, key: &str) -> Option<f64> {
    let line = json.lines().find(|l| l.contains(&format!("\"n\": {n},")))?;
    let at = line.find(&format!("\"{key}\": "))?;
    let rest = &line[at + key.len() + 4..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

pub fn run(args: &[String]) -> ExitCode {
    let seed: u64 = arg_value(args, "--seed")
        .map(|v| v.parse().expect("--seed takes an integer"))
        .unwrap_or(42);

    if let Some(baseline_path) = arg_value(args, "--check") {
        let n: usize = arg_value(args, "--n")
            .map(|v| v.parse().expect("--n takes an integer"))
            .unwrap_or(10_000);
        let min_ratio: f64 = arg_value(args, "--min-ratio")
            .map(|v| v.parse().expect("--min-ratio takes a float"))
            .unwrap_or(0.7);
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let row = measure(n, seed);
        // Tracing-off overhead gate: the run above executed with
        // profiling disabled, so the instrumented scopes (dax.parse,
        // plan, graph.csr, engine.run) must have recorded nothing.
        let leaked = pegasus_wms::prof::take_samples();
        assert!(
            leaked.is_empty(),
            "profiling is off but the run recorded {} samples: {leaked:?}",
            leaked.len()
        );
        // Counter-check that the instrumentation is alive when armed:
        // a profiled re-run of the same size must produce samples.
        pegasus_wms::prof::set_enabled(true);
        let profiled = measure(n, seed);
        pegasus_wms::prof::set_enabled(false);
        let samples = pegasus_wms::prof::take_samples();
        assert!(
            samples.iter().any(|(l, _)| *l == "engine.run"),
            "profiled run must sample engine.run, got {samples:?}"
        );
        outln!(
            "tracing-off contract ok: 0 samples unprofiled, {} profiled \
             (simulate {:.3}s off vs {:.3}s on)",
            samples.len(),
            row.simulate_seconds,
            profiled.simulate_seconds
        );
        outln!(
            "n={n}: parsed {:.0} MB/s ({:.3}s), planned {:.0} jobs/s (plan {:.3}s), \
             simulated {:.0} events/s ({:.3}s), peak RSS {} kB",
            row.dax_mb_per_sec_parsed,
            row.parse_seconds,
            row.jobs_per_sec_planned,
            row.plan_seconds,
            row.events_per_sec_simulated,
            row.simulate_seconds,
            row.peak_rss_kb
        );
        let mut ok = true;
        // Rates must stay above a floor, the resident set (read after
        // the first run, before the profiled one adds to it) below a
        // ceiling: each a factor on the baseline.
        for (key, measured) in [
            ("dax_mb_per_sec_parsed", row.dax_mb_per_sec_parsed),
            ("jobs_per_sec_planned", row.jobs_per_sec_planned),
            ("events_per_sec_simulated", row.events_per_sec_simulated),
            ("peak_rss_kb", row.peak_rss_kb as f64),
        ] {
            let Some(base) = baseline_value(&baseline, n, key) else {
                outln!("baseline has no {key} for n={n}; skipping");
                continue;
            };
            let is_ceiling = key == "peak_rss_kb";
            let limit = base * if is_ceiling { MAX_RSS_RATIO } else { min_ratio };
            let within = if is_ceiling {
                measured <= limit
            } else {
                measured >= limit
            };
            let (side, verdict) = (
                if is_ceiling { "ceiling" } else { "floor" },
                if within { "ok" } else { "REGRESSION" },
            );
            outln!("  {key}: {measured:.0} vs baseline {base:.0} ({side} {limit:.0}) {verdict}");
            ok &= within;
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let sizes: Vec<usize> = arg_value(args, "--sizes")
        .unwrap_or_else(|| "10000,1000000".into())
        .split(',')
        .map(|v| v.trim().parse().expect("--sizes takes integers"))
        .collect();
    let mut rows = Vec::new();
    for n in sizes {
        let row = measure(n, seed);
        outln!(
            "n={:>8}: dax {:>4} MB parsed in {:>6.2}s | {:>8} jobs planned in {:>6.2}s \
             ({:>9.0} jobs/s) | {:>8} events simulated in {:>6.2}s ({:>9.0} ev/s) | \
             total {:>6.2}s, peak RSS {} MB",
            row.n,
            row.dax_bytes / 1_000_000,
            row.parse_seconds,
            row.jobs_planned,
            row.plan_seconds,
            row.jobs_per_sec_planned,
            row.events,
            row.simulate_seconds,
            row.events_per_sec_simulated,
            row.total_seconds,
            row.peak_rss_kb / 1024,
        );
        rows.push(row);
    }
    let json = render_json(seed, &rows);
    let path = write_experiment_file("BENCH_throughput.json", &json);
    outln!("wrote {}", path.display());
    ExitCode::SUCCESS
}
