//! What the four workloads share: the measuring protocol, the span
//! recorder of the traced run, seeded input generation, the output
//! digest, and the result line.
//!
//! Every layer is timed from outside, around calls to its public
//! functions; nothing here reaches into the program.

use crate::json::{self, Value};
use pegasus_wms::prof;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of a run that names none (the week of IPDPSW 2014, as in the
/// rest of the repository).
pub const DEFAULT_SEED: u64 = 20_140_519;

// ---------------------------------------------------------------- inputs

/// SplitMix64: the one generator behind every seeded input, so a seed
/// means the same inputs on every machine and toolchain.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for one purpose: `stream` keeps the chunk costs, the
    /// backend seed and the fault-script seed independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// `n` heavy-tailed chunk costs in reference seconds: Pareto with
/// shape 1.3 (the family-size law of the repository's own
/// calibration) from 30 s, capped at 6000 s — OSG's preemption hazard
/// has a mean of 20 000 busy seconds, so a longer chunk may never
/// finish there and no workload may fail an operation.
pub fn heavy_tailed_costs(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix::new(seed, 1);
    (0..n)
        .map(|_| {
            let pareto = 30.0 / rng.unit().powf(1.0 / 1.3);
            (pareto.min(6000.0) * 1000.0).round() / 1000.0
        })
        .collect()
}

/// FNV-1a, 64 bit, continued from `hash` so several outputs fold into
/// one digest.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The FNV-1a offset basis: the digest of no output.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

// ------------------------------------------------------------ speedometer

/// Seconds [`kernel_seconds`] takes on a quiet machine of the class
/// the benchmark was written on. It only fixes the unit of `setup_s`:
/// a machine that is uniformly faster or slower scales it by one
/// factor, which no comparison between commits sees.
const KERNEL_REFERENCE_S: f64 = 0.090;

/// A fixed piece of work, owned by the benchmark so that no change to
/// the program can move it, timed to read how fast the machine is
/// right now. Half of it is arithmetic over a buffer that fits the
/// cache, half is hashing, allocation and sorting over a few
/// megabytes: one thread in this process, as the set-ups are.
///
/// It corrects `setup_s` and nothing else. That metric must not shift
/// by more than its bound between two sets of runs, and this class of
/// machine drifts by more for a quarter of an hour at a time; every
/// other time is reported as the clock read it.
fn kernel_seconds() -> f64 {
    let start = Instant::now();
    let mut rng = SplitMix::new(7, 7);
    let mut buffer = vec![0u8; 1 << 18];
    let mut hash = FNV_BASIS;
    for _ in 0..96 {
        for word in buffer.chunks_exact_mut(8) {
            word.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        hash = fnv1a(hash, &buffer);
    }
    for _ in 0..4 {
        let mut seen: std::collections::HashMap<String, usize> = Default::default();
        let mut text = String::new();
        for i in 0..40_000usize {
            let key = format!("job_{i}_{}", rng.next_u64() % 1000);
            text.push_str(&key);
            text.push(' ');
            *seen.entry(key).or_default() += i;
        }
        let mut tokens: Vec<&str> = text.split_whitespace().collect();
        tokens.sort_unstable();
        hash ^= tokens.iter().map(|t| seen[*t] + t.len()).sum::<usize>() as u64;
    }
    std::hint::black_box(hash);
    start.elapsed().as_secs_f64()
}

// ------------------------------------------------------------- statistics

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value at quantile `q` of `values`, nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The statistic timings are reported by: on a shared machine the
/// noise only ever adds time.
pub fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

fn slowest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(0.0, f64::max)
}

/// `fastest / median / slowest over n`, for the summary line.
fn describe(seconds: &[f64]) -> String {
    format!(
        "fastest {:.4} s, median {:.4} s, slowest {:.4} s of {}",
        fastest(seconds),
        median(seconds),
        slowest(seconds),
        seconds.len()
    )
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, or of this
/// process for `None`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ------------------------------------------------------------------ spans

/// One timed call into a layer.
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The set-up or repetition this span belongs to.
    pub unit: u32,
    /// 0 is the thread driving the workload; pool workers count from 1.
    pub thread: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// In-memory span store of the traced run. While `tracing` is off
/// every call is a no-op that reads no clock and stores nothing, so
/// the untraced repetitions measure the program alone.
pub struct Recorder {
    pub tracing: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    unit: u32,
}

/// Handle of an open span; `None` while tracing is off.
pub type SpanId = Option<usize>;

impl Recorder {
    fn new() -> Self {
        Recorder {
            tracing: false,
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.tracing {
            return None;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            unit: self.unit,
            thread: 0,
        });
        self.open.push(self.spans.len() - 1);
        self.open.last().copied()
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end = Instant::now();
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Adds a span that was timed elsewhere (a pool worker thread),
    /// under the innermost open span.
    pub fn adopt(&mut self, name: &'static str, start: Instant, end: Instant, thread: u32) {
        if self.tracing {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: self.open.last().copied(),
                unit: self.unit,
                thread,
            });
        }
    }

    /// Seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Per set-up or repetition that contains spans called `name`,
    /// their summed seconds.
    fn unit_sums(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.unit).or_default() += s.seconds();
        }
        sums.into_values().collect()
    }

    /// Time spent in `name` in the set-up or repetition that spent the
    /// least there; 0 if none entered it.
    pub fn fastest_seconds(&self, name: &str) -> f64 {
        let sums = self.unit_sums(name);
        if sums.is_empty() {
            0.0
        } else {
            fastest(&sums)
        }
    }

    /// Chrome Trace Event JSON (Perfetto-loadable): complete events on
    /// one track per thread, `args` naming repetition and parent.
    fn render_chrome(&self, workload: &str) -> String {
        let Some(epoch) = self.spans.iter().map(|s| s.start).min() else {
            return "{\"traceEvents\":[]}\n".into();
        };
        let us = |t: Instant| (t - epoch).as_secs_f64() * 1e6;
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
            json::quote(&format!("ledger {workload}"))
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"name\":{},\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{id},\"parent\":{parent},\"unit\":{}}}}}",
                json::quote(s.name),
                us(s.start),
                us(s.end) - us(s.start),
                s.thread,
                s.unit,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Seconds the traced run spends recording one span and one `prof`
/// sample, each measured over ten thousand of them. A traced and an
/// untraced repetition differ by nothing else, and by far less than
/// two repetitions of either kind differ on a shared machine, so the
/// overhead is counted up from these instead of read off a difference.
fn recording_costs() -> (f64, f64) {
    const CALLS: u32 = 10_000;
    let mut scratch = Recorder::new();
    scratch.tracing = true;
    let start = Instant::now();
    for _ in 0..CALLS {
        let id = scratch.open("harness.calibration");
        scratch.close(id);
    }
    let per_span = start.elapsed().as_secs_f64() / f64::from(CALLS);
    prof::set_enabled(true);
    let start = Instant::now();
    for _ in 0..CALLS {
        drop(prof::scope("ledger.calibration"));
    }
    let per_sample = start.elapsed().as_secs_f64() / f64::from(CALLS);
    prof::set_enabled(false);
    prof::take_samples();
    (per_span, per_sample)
}

// ------------------------------------------------------------ BENCHMARK.json

/// One declared metric.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `Some` for end-to-end metrics only.
    pub bound: Option<f64>,
    pub lower_is_better: bool,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads: it is the
/// one place metric names, units and bounds are written down.
#[derive(Default)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads `BENCHMARK.json` from the working directory, which the
    /// benchmark is run from the root of the checkout to find.
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
            format!("cannot read BENCHMARK.json (run ledger from the repository root): {e}")
        })?;
        let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .map_or(&[][..], Value::items)
                .iter()
                .filter_map(|m| {
                    Some(MetricSpec {
                        name: m.get("name")?.as_str()?.to_string(),
                        unit: m.get("unit")?.as_str()?.to_string(),
                        bound: m.get("bound").and_then(Value::as_f64),
                        lower_is_better: m.get("better")?.as_str()? == "lower",
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json has no run_seconds")?,
            workloads: doc
                .get("workloads")
                .map_or(&[][..], Value::items)
                .iter()
                .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        })
    }
}

// --------------------------------------------------------------- protocol

/// How a workload is repeated.
pub struct Protocol {
    /// Set-ups timed before the first repetition; `setup_s` is the
    /// fastest, at reference speed.
    pub setups: usize,
    /// One untimed repetition first, so caches and the allocator are
    /// warm. Off where a repetition starts a fresh process anyway.
    pub warm_up: bool,
    /// Repetitions of the untraced run at least; the `--seconds`
    /// budget adds more.
    pub min_reps: usize,
    /// Repetitions of the traced run, all traced.
    pub traced_reps: usize,
    /// A repetition uses its state up, so each needs its own set-up.
    pub setup_per_rep: bool,
}

/// A `prof` label of the program and the harness span that times the
/// same call from outside.
pub type ProfPair = (&'static str, &'static str);

/// One workload: set-up, the timed user journey, and the untimed
/// check of what the journey returned.
pub trait Workload {
    /// What set-up leaves behind for the repetitions.
    type State;
    /// What one repetition hands to its check.
    type Output;

    const PROTOCOL: Protocol;
    /// `prof` scopes the program is known to carry in set-up and in
    /// the journey, each with the harness span around the same call;
    /// the traced run checks that the two agree.
    const PROF_SETUP: &'static [ProfPair] = &[];
    const PROF_JOURNEY: &'static [ProfPair] = &[];

    fn setup(&mut self, b: &mut Bench) -> Self::State;

    /// The timed part. Calls into layers go through [`Bench::span`].
    fn journey(&mut self, b: &mut Bench, state: &mut Self::State) -> Self::Output;

    /// Untimed: counts every correctness check into `b` and returns
    /// the digest of the outputs.
    fn check(&mut self, b: &mut Bench, state: &Self::State, out: Self::Output) -> u64;

    /// Traced run only, after the last repetition: counts and derived
    /// per-layer metrics, and any measuring done outside the journey.
    fn layers(&mut self, b: &mut Bench, state: &mut Self::State);
}

/// The context a workload runs in: seed, recorder, checks, metrics,
/// and the scratch directory that is removed on every exit path.
pub struct Bench {
    spec: Spec,
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    seconds: f64,
    pub rec: Recorder,
    /// Work per repetition, in the workload's own unit.
    pub units: f64,
    /// `Some` where the process doing the work is not this one.
    pub peak_rss_mb: Option<f64>,
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    scratch: PathBuf,
    /// Wall-clock `prof` samples per traced set-up or repetition.
    prof_units: Vec<Vec<(&'static str, f64)>>,
}

impl Bench {
    pub fn new(spec: Spec, workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Self {
        let scratch = output_dir().join(format!("work-{}-{workload}", std::process::id()));
        Bench {
            spec,
            workload,
            seed,
            traced,
            seconds,
            rec: Recorder::new(),
            units: 0.0,
            peak_rss_mb: None,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            digest: None,
            scratch,
            prof_units: Vec::new(),
        }
    }

    /// A seed for one purpose, derived from the run's seed.
    pub fn subseed(&self, stream: u64) -> u64 {
        SplitMix::new(self.seed, stream).next_u64()
    }

    /// The scratch directory of this process and workload, created on
    /// first use and removed when the `Bench` drops.
    pub fn scratch(&self) -> &Path {
        std::fs::create_dir_all(&self.scratch).expect("create the scratch directory");
        &self.scratch
    }

    /// Times `f` as one call into layer `name` when tracing.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.rec.open(name);
        let out = f();
        self.rec.close(id);
        out
    }

    /// Counts one attempted operation and whether it failed.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("ledger: {}: FAILED check: {what}", self.workload);
        }
    }

    /// Counts operations checked in bulk, such as protocol replies.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// A metric set earlier, 0 if it was not.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// `name` = work ÷ seconds, 0 while the seconds are unmeasured.
    pub fn rate(&mut self, name: &str, work: f64, seconds: f64) {
        self.metric(name, if seconds > 0.0 { work / seconds } else { 0.0 });
    }

    fn begin_unit(&mut self, tracing: bool) {
        self.rec.unit += 1;
        self.rec.tracing = tracing;
        prof::set_enabled(tracing);
    }

    /// Ends a set-up or repetition: disarms `prof` and holds the
    /// tracing-off contract — no sample may exist unless tracing was
    /// on, and when it was, each scope the program is known to carry
    /// must have sampled the time the harness read around it.
    fn end_unit(&mut self, expect_prof: &[ProfPair]) {
        let tracing = self.rec.tracing;
        self.rec.tracing = false;
        prof::set_enabled(false);
        let samples = prof::take_samples();
        if tracing {
            for (label, span) in expect_prof {
                let inner: f64 = samples
                    .iter()
                    .filter(|(l, _)| l == label)
                    .map(|(_, seconds)| seconds)
                    .sum();
                let outer: f64 = self
                    .rec
                    .spans
                    .iter()
                    .filter(|s| s.unit == self.rec.unit && s.name == *span)
                    .map(Span::seconds)
                    .sum();
                self.check(
                    &format!("prof scope {label} within 5 % of span {span}"),
                    inner > 0.0 && (outer - inner).abs() <= 0.05 * outer,
                );
            }
            self.prof_units.push(samples);
        } else {
            self.check("untraced run left no prof samples", samples.is_empty());
        }
    }

    /// Runs `w` by its protocol and prints the result.
    pub fn run<W: Workload>(mut self, mut w: W) -> Report {
        let p = W::PROTOCOL;
        let mut setups: Vec<f64> = Vec::new();
        let mut state = None;
        // One speed reading before the first set-up and one after
        // each; the first also pays for the kernel's page faults.
        kernel_seconds();
        let mut readings = vec![kernel_seconds()];
        let mut timed_setup = |b: &mut Bench, w: &mut W, state: &mut Option<W::State>| {
            // The previous state goes first: two alive at once would
            // double the peak resident set.
            *state = None;
            b.begin_unit(b.traced);
            let start = Instant::now();
            let id = b.rec.open("setup");
            *state = Some(w.setup(b));
            b.rec.close(id);
            let seconds = start.elapsed().as_secs_f64();
            eprintln!(
                "ledger: {}: set-up {}: {seconds:.4} s",
                b.workload,
                setups.len() + 1
            );
            setups.push(seconds);
            b.end_unit(W::PROF_SETUP);
            readings.push(kernel_seconds());
        };
        for _ in 0..p.setups {
            timed_setup(&mut self, &mut w, &mut state);
        }
        if p.warm_up {
            self.begin_unit(false);
            let st = state.as_mut().expect("set-up ran");
            let out = w.journey(&mut self, st);
            self.end_unit(&[]);
            self.digest = Some(w.check(&mut self, st, out));
        }

        // Every repetition of the traced run is traced: it exists for
        // its spans, and stops as soon as it has enough of them.
        let tracing = self.traced;
        let (per_span, per_sample) = if tracing {
            recording_costs()
        } else {
            (0.0, 0.0)
        };
        let mut walls: Vec<f64> = Vec::new();
        let mut own_rss_mb = None;
        let (mut unattributed, mut overhead) = (Vec::new(), Vec::new());
        let started = Instant::now();
        loop {
            let enough = if tracing {
                walls.len() >= p.traced_reps
            } else {
                walls.len() >= p.min_reps && started.elapsed().as_secs_f64() >= self.seconds
            };
            if enough {
                break;
            }
            if p.setup_per_rep && !walls.is_empty() {
                timed_setup(&mut self, &mut w, &mut state);
            }
            let st = state.as_mut().expect("set-up ran");
            self.begin_unit(tracing);
            let first_span = self.rec.spans.len();
            let start = Instant::now();
            let root = self.rec.open("journey");
            let out = w.journey(&mut self, st);
            self.rec.close(root);
            let wall = start.elapsed().as_secs_f64();
            self.end_unit(W::PROF_JOURNEY);
            if let Some(root) = root {
                let attributed: f64 = self
                    .rec
                    .spans
                    .iter()
                    .filter(|s| s.parent == Some(root) && s.thread == 0)
                    .map(Span::seconds)
                    .sum();
                unattributed.push((wall - attributed) / wall);
                let spans = (self.rec.spans.len() - first_span) as f64;
                let samples = self.prof_units.last().map_or(0, Vec::len) as f64;
                overhead.push((spans * per_span + samples * per_sample) / wall);
            }
            // The used-up state of a `setup_per_rep` workload stays
            // until the next set-up replaces it: `layers` measures on
            // what the last repetition left.
            let digest = w.check(&mut self, st, out);
            let first = *self.digest.get_or_insert(digest);
            self.check("output digest repeats across repetitions", digest == first);
            eprintln!(
                "ledger: {}: repetition {} {}: {wall:.4} s",
                self.workload,
                walls.len() + 1,
                if tracing { "traced" } else { "untraced" },
            );
            walls.push(wall);
            // Read after a fixed number of repetitions, not at exit: a
            // fast machine fits more of them into `--seconds`, and the
            // high-water mark creeps up with each.
            if walls.len() == p.min_reps {
                own_rss_mb = Some(peak_rss_mb(None));
            }
        }

        if tracing {
            self.begin_unit(true);
            w.layers(&mut self, state.as_mut().expect("set-up ran"));
            self.end_unit(&[]);
            // The benchmark's own validity, held as checks: the stage
            // spans must account for the journey, and recording them
            // must not be what the traced run measures.
            let (unattributed, overhead) = (median(&unattributed), slowest(&overhead));
            self.check(
                "journey time outside every stage span <= 5 %",
                unattributed <= 0.05,
            );
            self.check("tracing overhead <= 5 %", overhead <= 0.05);
            self.metric("harness.unattributed_share", unattributed);
            self.metric("harness.trace_overhead_share", overhead);
        }
        // Dropping the state first stops a daemon it may hold.
        drop(state);
        let wall_s = fastest(&walls);
        self.metric("wall_s", wall_s);
        self.rate("units_per_s", self.units, wall_s);
        // A set-up can be shorter than a speed reading, so pairing each
        // with its own two readings would add more noise than it
        // removes: the fastest set-up at the fastest speed seen while
        // setting up.
        let slowdown = fastest(&readings) / KERNEL_REFERENCE_S;
        self.metric("setup_s", fastest(&setups) / slowdown);
        let rss = self.peak_rss_mb.or(own_rss_mb);
        self.metric("peak_rss_mb", rss.unwrap_or_else(|| peak_rss_mb(None)));
        println!(
            "{}: seed {} | repetitions: {} | set-ups: {} at {slowdown:.3} times the reference reading | \
             {} of {} checks failed",
            self.workload,
            self.seed,
            describe(&walls),
            describe(&setups),
            self.failed,
            self.attempted,
        );
        self.finish()
    }

    /// Turns spans, `prof` samples and workload metrics into the
    /// declared metric set and prints it.
    fn finish(mut self) -> Report {
        let spec = std::mem::take(&mut self.spec);
        let declared = if self.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        if self.traced {
            // `<layer>.<call>_s` is the time in spans named
            // `<layer>.<call>` of the repetition fastest there;
            // `prof.<label>_s` likewise for the program's own scopes.
            for m in declared {
                let Some(stem) = m.name.strip_suffix("_s") else {
                    continue;
                };
                if let Some(label) = stem.strip_prefix("prof.") {
                    let sums: Vec<f64> = self
                        .prof_units
                        .iter()
                        .filter(|u| u.iter().any(|(l, _)| *l == label))
                        .map(|u| u.iter().filter(|(l, _)| *l == label).map(|(_, s)| s).sum())
                        .collect();
                    let seconds = if sums.is_empty() { 0.0 } else { fastest(&sums) };
                    self.metrics.entry(m.name.clone()).or_insert(seconds);
                } else if !self.metrics.contains_key(&m.name) {
                    let seconds = self.rec.fastest_seconds(stem);
                    self.metrics.insert(m.name.clone(), seconds);
                }
            }
            let path = output_dir().join(format!("{}.trace.json", self.workload));
            std::fs::create_dir_all(output_dir()).expect("create the output directory");
            std::fs::write(&path, self.rec.render_chrome(self.workload))
                .expect("write the Chrome trace");
            println!("trace written to {}", path.display());
        }
        for name in self.metrics.keys() {
            let known = spec
                .end_to_end
                .iter()
                .chain(&spec.per_layer)
                .any(|m| m.name == *name);
            assert!(known, "metric {name} is not declared in BENCHMARK.json");
        }

        // By name with its unit, everything this run measured: the
        // untraced run has `wall_s` and the counts too, though its
        // result carries the end-to-end metrics only.
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            match self.metrics.get(&m.name) {
                Some(value) if *value != 0.0 && value.is_finite() => {
                    println!("  {:<34} {value:>16.6} {}", m.name, m.unit);
                }
                _ => {}
            }
        }
        let mut fields = Vec::new();
        for m in declared {
            // A layer this workload never enters reads 0.
            let value = self.metrics.get(&m.name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(&m.name),
                json::quote(&m.unit)
            ));
        }
        let digest = self.digest.unwrap_or(FNV_BASIS);
        println!("  {:<34} {digest:>16x}", "output_digest");
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        Report {
            record: format!(
                "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"output_digest\": \"{digest:x}\", \
                 \"result\": {result}}}",
                json::quote(self.workload),
                self.seed,
                u8::from(self.traced),
            ),
            result,
        }
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// What one workload run leaves: the contract's result line, and the
/// same wrapped with workload, seed and digest for `--out` files.
pub struct Report {
    pub result: String,
    pub record: String,
}

/// Where traces and scratch directories go: `ledger/` in the cargo
/// target directory the binary was built into, so nothing is written
/// outside the checkout and `.gitignore` already covers it.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("no current_exe: {e}")));
    exe.parent()
        .and_then(Path::parent)
        .unwrap_or_else(|| fail("the ledger binary is not inside a cargo target directory"))
        .join("ledger")
}

/// A harness error (not a failed check): message, no result, exit 2.
pub fn fail(msg: &str) -> ! {
    eprintln!("ledger: {msg}");
    std::process::exit(2);
}
