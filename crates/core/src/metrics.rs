//! A dependency-free metrics registry with a Prometheus text surface.
//!
//! Production workflow stacks (Pegasus's dashboard, the Montage-scale
//! and WaaS platform studies) compare platforms through per-phase,
//! per-site metric surfaces. This module is that surface for the
//! reproduction: typed counters, gauges, and fixed-bucket histograms
//! with `site`/`n`/`phase`/`reason` labels, rendered in the Prometheus
//! text exposition format — no client library, no serde.
//!
//! Two ways to populate a [`MetricsRegistry`]:
//!
//! * live: pass a [`MetricsMonitor`] (an [`EventSink`]) to
//!   [`Engine::run`] — every submission, termination, and retry lands
//!   as a labelled observation with near-zero overhead;
//! * offline: [`record_events`] feeds a recorded
//!   [`crate::events::WorkflowEvent`] stream (a live run's `events`
//!   field, one ensemble member, or a parsed `--events` log) to the
//!   *same* sink, so the rendered exposition is byte-identical to what
//!   the live wiring produced under the same seed.
//!
//! Rendering is fully deterministic: families sort by name, series by
//! label set, and numbers use Rust's shortest round-tripping float
//! format.
//!
//! [`Engine::run`]: crate::engine::Engine::run

use crate::error::WmsError;
use crate::events::{self, EventSink, WorkflowEvent};
use crate::planner::JobKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonically increasing total.
    Counter,
    /// Last-written value.
    Gauge,
    /// Fixed-bucket distribution with sum and count.
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One histogram series: cumulative-style bucket counts (stored
/// per-bucket, cumulated at render time), plus sum and count.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct HistogramState {
    /// Upper bounds of the finite buckets, as the family declared them.
    bounds: Vec<f64>,
    /// Observations per bucket; one extra slot for `+Inf`.
    counts: Vec<u64>,
    /// Sum of all observed values.
    pub(crate) sum: f64,
    /// Number of observations.
    pub(crate) count: u64,
}

#[derive(Debug, Clone)]
enum Series {
    Scalar(f64),
    Histogram(HistogramState),
}

#[derive(Debug, Clone)]
struct MetricFamily {
    help: String,
    kind: MetricKind,
    /// Upper bounds of the finite buckets (histograms only).
    buckets: Vec<f64>,
    /// Where each series lives in the registry's `cells`, keyed by
    /// its sorted label set.
    series: BTreeMap<Vec<(String, String)>, usize>,
}

/// The registry: a set of named metric families, each holding labelled
/// series. All mutation panics on kind mismatches or undeclared names
/// — metric names are static program structure, not runtime data, so
/// a mismatch is a bug worth failing loudly on.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, MetricFamily>,
    /// Every series' state, in creation order: a cell's position is a
    /// handle that stays valid as series are added, which is what
    /// lets [`MetricsMonitor`] look each of its series up once.
    cells: Vec<Series>,
}

fn label_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut key: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    key.sort();
    key
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn declare(&mut self, name: &str, help: &str, kind: MetricKind, buckets: &[f64]) {
        let fam = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| MetricFamily {
                help: help.to_string(),
                kind,
                buckets: buckets.to_vec(),
                series: BTreeMap::new(),
            });
        assert_eq!(
            fam.kind, kind,
            "metric {name} re-declared with a different kind"
        );
    }

    /// Declares a counter family (idempotent).
    ///
    /// # Panics
    /// Panics if `name` is already declared with a different kind.
    pub fn declare_counter(&mut self, name: &str, help: &str) {
        self.declare(name, help, MetricKind::Counter, &[]);
    }

    /// Declares a gauge family (idempotent).
    ///
    /// # Panics
    /// Panics if `name` is already declared with a different kind.
    pub fn declare_gauge(&mut self, name: &str, help: &str) {
        self.declare(name, help, MetricKind::Gauge, &[]);
    }

    /// Declares a histogram family with the given finite bucket upper
    /// bounds (a `+Inf` bucket is implicit). Idempotent.
    ///
    /// # Panics
    /// Panics if `name` is already declared with a different kind, or
    /// if `buckets` is empty or not strictly increasing.
    pub(crate) fn declare_histogram(&mut self, name: &str, help: &str, buckets: &[f64]) {
        assert!(!buckets.is_empty(), "histogram {name} needs buckets");
        assert!(
            buckets.windows(2).all(|w| w[0] < w[1]),
            "histogram {name} buckets must be strictly increasing"
        );
        self.declare(name, help, MetricKind::Histogram, buckets);
    }

    /// Resolves a series of a declared family to its cell, creating it
    /// at zero on first touch — the one place a name and a label set
    /// are looked up; every mutation goes through the cell.
    fn series(&mut self, name: &str, kind: MetricKind, labels: &[(&str, &str)]) -> usize {
        let fam = self
            .families
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} not declared"));
        assert_eq!(fam.kind, kind, "metric {name} is not a {kind:?}");
        let cell = *fam
            .series
            .entry(label_key(labels))
            .or_insert(self.cells.len());
        if cell == self.cells.len() {
            self.cells.push(match kind {
                MetricKind::Histogram => Series::Histogram(HistogramState {
                    bounds: fam.buckets.clone(),
                    counts: vec![0; fam.buckets.len() + 1],
                    ..Default::default()
                }),
                MetricKind::Counter | MetricKind::Gauge => Series::Scalar(0.0),
            });
        }
        cell
    }

    /// The value in `cell`, a counter or gauge series.
    fn scalar(&mut self, cell: usize) -> &mut f64 {
        match &mut self.cells[cell] {
            Series::Scalar(v) => v,
            Series::Histogram(_) => unreachable!("counter and gauge families hold scalars"),
        }
    }

    /// [`scalar`](Self::scalar) of the series whose cell `slot`
    /// caches, resolved by name the first time.
    fn scalar_at(
        &mut self,
        slot: &mut Option<usize>,
        name: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
    ) -> &mut f64 {
        let cell = *slot.get_or_insert_with(|| self.series(name, kind, labels));
        self.scalar(cell)
    }

    fn observe_at(&mut self, cell: usize, v: f64) {
        let Series::Histogram(h) = &mut self.cells[cell] else {
            unreachable!("histogram families hold histograms")
        };
        let idx = h.bounds.iter().position(|&ub| v <= ub);
        h.counts[idx.unwrap_or(h.bounds.len())] += 1;
        h.sum += v;
        h.count += 1;
    }

    /// Adds `v` to a counter series.
    ///
    /// # Panics
    /// Panics if `name` is undeclared or not a counter.
    pub fn add(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        *self.scalar_at(&mut None, name, MetricKind::Counter, labels) += v;
    }

    /// Increments a counter series by one.
    ///
    /// # Panics
    /// Panics if `name` is undeclared or not a counter.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)]) {
        self.add(name, labels, 1.0);
    }

    /// Sets a gauge series.
    ///
    /// # Panics
    /// Panics if `name` is undeclared or not a gauge.
    pub fn set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        *self.scalar_at(&mut None, name, MetricKind::Gauge, labels) = v;
    }

    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Series> {
        let cell = self.families.get(name)?.series.get(&label_key(labels))?;
        Some(&self.cells[*cell])
    }

    /// Reads back a counter or gauge series, if it exists.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.get(name, labels)? {
            Series::Scalar(v) => Some(*v),
            Series::Histogram(_) => None,
        }
    }

    /// Records one observation into a histogram series.
    ///
    /// # Panics
    /// Panics if `name` is undeclared or not a histogram.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let cell = self.series(name, MetricKind::Histogram, labels);
        self.observe_at(cell, v);
    }

    /// Reads back a histogram series, if it exists.
    pub(crate) fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramState> {
        match self.get(name, labels)? {
            Series::Histogram(h) => Some(h),
            Series::Scalar(_) => None,
        }
    }

    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) of a histogram series by
    /// linear interpolation inside the bucket holding the target rank
    /// — the same estimate `histogram_quantile()` computes in PromQL.
    /// Observations in the `+Inf` bucket clamp to the largest finite
    /// bound. `None` when the series is missing or empty.
    pub fn quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        let fam = self.families.get(name)?;
        let h = self.histogram(name, labels)?;
        if h.count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * h.count as f64;
        let mut seen = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c;
            if (next as f64) >= rank {
                let last_finite = *fam.buckets.last().expect("histograms have buckets");
                if i == fam.buckets.len() {
                    return Some(last_finite);
                }
                let lower = if i == 0 { 0.0 } else { fam.buckets[i - 1] };
                let upper = fam.buckets[i];
                let into = (rank - seen as f64) / c as f64;
                return Some(lower + (upper - lower) * into.clamp(0.0, 1.0));
            }
            seen = next;
        }
        fam.buckets.last().copied()
    }

    /// Renders every family in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` headers, one sample per line, histogram
    /// series expanded into cumulative `_bucket{le=...}` samples plus
    /// `_sum` and `_count`. Deterministic: families sort by name,
    /// series by label set.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.exposition_name());
            for (labels, &cell) in &fam.series {
                match &self.cells[cell] {
                    Series::Scalar(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                    }
                    Series::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, &c) in h.counts.iter().enumerate() {
                            cum += c;
                            let le = fam
                                .buckets
                                .get(i)
                                .map(|b| b.to_string())
                                .unwrap_or_else(|| "+Inf".to_string());
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                render_labels(labels, Some(&le))
                            );
                        }
                        let _ =
                            writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum);
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels, None),
                            h.count
                        );
                    }
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Phase-duration histogram buckets, in seconds: ×2 geometric from 30 s
/// to ~34 h, spanning OSG queue waits (median 600 s) down at one end
/// and n = 10 kickstart chunks (~10 h) at the other.
pub(crate) const PHASE_BUCKETS: [f64; 13] = [
    30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1920.0, 3840.0, 7680.0, 15360.0, 30720.0, 61440.0,
    122880.0,
];

/// Derives the `n` label for a workflow: the decomposition size from a
/// `..._n<digits>` name suffix (the sweep's `blast2cap3_n300` naming
/// convention), falling back to the job count for workflows outside
/// the sweep.
pub fn n_label(workflow_name: &str, jobs: usize) -> String {
    workflow_name
        .rsplit_once("_n")
        .and_then(|(_, digits)| digits.parse::<usize>().ok())
        .map(|n| n.to_string())
        .unwrap_or_else(|| jobs.to_string())
}

/// The standard workflow metric names.
pub mod names {
    /// Counter `{site,n}`: attempts handed to the backend.
    pub const SUBMITTED: &str = "pegasus_jobs_submitted_total";
    /// Counter `{site,n}`: jobs that completed successfully.
    pub const COMPLETIONS: &str = "pegasus_job_completions_total";
    /// Counter `{site,n,reason}`: failed attempts by typed fault
    /// reason (`preempted`, `evicted`, `install`, `timeout`, `error`).
    pub const FAILURES: &str = "pegasus_job_failures_total";
    /// Counter `{site,n,reason}`: retries scheduled, by the reason of
    /// the failure being retried.
    pub const RETRIES: &str = "pegasus_retries_total";
    /// Counter `{site,n}`: cumulative backoff delay inserted before
    /// retries, in seconds.
    pub const BACKOFF_WAIT: &str = "pegasus_backoff_wait_seconds_total";
    /// Gauge `{site,n}`: attempts currently in flight.
    pub const IN_FLIGHT: &str = "pegasus_jobs_in_flight";
    /// Histogram `{site,n,phase}`: per-phase durations of successful
    /// compute-job attempts (`phase` ∈ `queue_wait` | `install` |
    /// `kickstart`), in seconds.
    pub const PHASE_SECONDS: &str = "pegasus_phase_seconds";
    /// Gauge `{site,n}`: Workflow Wall Time of the finished run.
    pub const WALL_TIME: &str = "pegasus_workflow_wall_time_seconds";
    /// Counter `{site,n,outcome}`: finished workflows by outcome
    /// (`success` | `failed`).
    pub const WORKFLOWS: &str = "pegasus_workflows_total";
    /// Histogram `{phase}`: wall-clock seconds the engine itself spent
    /// in each internal phase (`dax.parse`, `plan`, `engine.run`, …).
    /// Populated only under `--profile` via [`crate::prof::export`].
    pub(crate) const ENGINE_PHASE_SECONDS: &str = "pegasus_engine_phase_seconds";
    /// Gauge: simulator event-queue depth at the end of a run.
    pub const SIM_QUEUE_DEPTH: &str = "pegasus_sim_event_queue_depth";
    /// Gauge: peak simulator event-queue depth over a run.
    pub const SIM_QUEUE_PEAK: &str = "pegasus_sim_event_queue_peak_depth";
    /// Counter: events scheduled into the simulator queue over a run.
    pub const SIM_EVENTS_SCHEDULED: &str = "pegasus_sim_events_scheduled_total";
}

/// An [`EventSink`] that lands every engine event in a
/// [`MetricsRegistry`] as labelled counters, gauges, and phase
/// histograms. Constructing one declares the full
/// [standard metric set](names) (idempotently), so several monitors —
/// one per ensemble member, or one per sweep point — can share a
/// registry.
pub struct MetricsMonitor<'a> {
    registry: &'a mut MetricsRegistry,
    site: String,
    n: String,
    /// Whether each `workflow-started` header sets `site` and `n`.
    from_header: bool,
    /// Job roles by id, from the current run's manifest: only compute
    /// jobs feed the phase histograms.
    kinds: Vec<JobKind>,
    series: Handles,
}

/// The series a monitor has touched, each resolved against the
/// registry on first touch — so a series still exists only once an
/// event lands in it, and every later event skips the lookup.
#[derive(Default)]
struct Handles {
    submitted: Option<usize>,
    in_flight: Option<usize>,
    completions: Option<usize>,
    backoff_wait: Option<usize>,
    wall_time: Option<usize>,
    /// By outcome: failed, success.
    workflows: [Option<usize>; 2],
    /// `queue_wait`, `install`, `kickstart`.
    phases: [Option<usize>; 3],
    /// By [`FaultReason`] discriminant.
    failures: [Option<usize>; 5],
    retries: [Option<usize>; 5],
}

impl<'a> MetricsMonitor<'a> {
    /// Wraps `registry`, labelling every sample with `site` and `n`.
    pub fn new(registry: &'a mut MetricsRegistry, site: &str, n: &str) -> Self {
        registry.declare_counter(names::SUBMITTED, "Attempts handed to the backend.");
        registry.declare_counter(names::COMPLETIONS, "Jobs that completed successfully.");
        registry.declare_counter(names::FAILURES, "Failed attempts by typed fault reason.");
        registry.declare_counter(names::RETRIES, "Retries scheduled, by failure reason.");
        registry.declare_counter(
            names::BACKOFF_WAIT,
            "Cumulative backoff delay before retries, in seconds.",
        );
        registry.declare_gauge(names::IN_FLIGHT, "Attempts currently in flight.");
        registry.declare_histogram(
            names::PHASE_SECONDS,
            "Per-phase durations of successful compute attempts, in seconds.",
            &PHASE_BUCKETS,
        );
        registry.declare_gauge(
            names::WALL_TIME,
            "Workflow Wall Time of the finished run, in seconds.",
        );
        registry.declare_counter(names::WORKFLOWS, "Finished workflows by outcome.");
        MetricsMonitor {
            registry,
            site: site.to_string(),
            n: n.to_string(),
            from_header: false,
            kinds: Vec::new(),
            series: Handles::default(),
        }
    }

    /// Wraps `registry`, labelling every sample with the `site` of the
    /// stream's `workflow-started` header and the `n` of its name and
    /// `jobs=` ([`n_label`]): a recorded stream, labelled as it is read.
    pub fn labelled_by_header(registry: &'a mut MetricsRegistry) -> Self {
        MetricsMonitor {
            from_header: true,
            ..MetricsMonitor::new(registry, "", "")
        }
    }
}

impl EventSink for MetricsMonitor<'_> {
    fn event(&mut self, ev: &WorkflowEvent) {
        use MetricKind::{Counter, Gauge, Histogram};
        let [site, n] = [("site", self.site.as_str()), ("n", self.n.as_str())];
        let registry = &mut *self.registry;
        let series = &mut self.series;
        match ev {
            // A further run on the same sink brings its own manifest,
            // and its own labels when they are the header's.
            WorkflowEvent::WorkflowStarted {
                name, site, jobs, ..
            } => {
                self.kinds.clear();
                if self.from_header {
                    let n = n_label(name, *jobs as usize);
                    (self.site, self.n, self.series) = (site.to_string(), n, Handles::default());
                }
            }
            WorkflowEvent::JobDeclared { kind, .. } => self.kinds.push(*kind),
            WorkflowEvent::Submitted { .. } => {
                let labels = [site, n];
                *registry.scalar_at(&mut series.submitted, names::SUBMITTED, Counter, &labels) +=
                    1.0;
                *registry.scalar_at(&mut series.in_flight, names::IN_FLIGHT, Gauge, &labels) += 1.0;
            }
            WorkflowEvent::RetryScheduled {
                backoff, reason, ..
            } => {
                let labels = [site, n, ("reason", reason.prefix())];
                let slot = &mut series.retries[*reason as usize];
                *registry.scalar_at(slot, names::RETRIES, Counter, &labels) += 1.0;
                let slot = &mut series.backoff_wait;
                *registry.scalar_at(slot, names::BACKOFF_WAIT, Counter, &[site, n]) += *backoff;
            }
            WorkflowEvent::WorkflowFinished {
                succeeded,
                wall_time,
                ..
            } => {
                let slot = &mut series.wall_time;
                *registry.scalar_at(slot, names::WALL_TIME, Gauge, &[site, n]) = *wall_time;
                let outcome = if *succeeded { "success" } else { "failed" };
                let labels = [site, n, ("outcome", outcome)];
                let slot = &mut series.workflows[usize::from(*succeeded)];
                *registry.scalar_at(slot, names::WORKFLOWS, Counter, &labels) += 1.0;
            }
            _ => {
                let Some(end) = ev.termination() else { return };
                let slot = &mut series.in_flight;
                *registry.scalar_at(slot, names::IN_FLIGHT, Gauge, &[site, n]) += -1.0;
                if let Some((reason, _)) = end.failure {
                    let labels = [site, n, ("reason", reason.prefix())];
                    let slot = &mut series.failures[reason as usize];
                    *registry.scalar_at(slot, names::FAILURES, Counter, &labels) += 1.0;
                    return;
                }
                let slot = &mut series.completions;
                *registry.scalar_at(slot, names::COMPLETIONS, Counter, &[site, n]) += 1.0;
                if self.kinds.get(end.job.idx()) == Some(&JobKind::Compute) {
                    let times = end.times;
                    let phases = [
                        ("queue_wait", times.waiting()),
                        ("install", times.install()),
                        ("kickstart", times.kickstart()),
                    ];
                    for (slot, (phase, seconds)) in series.phases.iter_mut().zip(phases) {
                        let labels = [site, n, ("phase", phase)];
                        let cell = *slot.get_or_insert_with(|| {
                            registry.series(names::PHASE_SECONDS, Histogram, &labels)
                        });
                        registry.observe_at(cell, seconds);
                    }
                }
            }
        }
    }
}

/// Feeds a recorded event stream to a [`MetricsMonitor`] over
/// `registry`, labelled from the stream's own header — the offline
/// twin of passing one to a live run. It is the same sink the engine
/// drives, so under the same seed the rendered exposition is
/// byte-identical to the live wiring's.
///
/// # Errors
/// Returns [`WmsError::Parse`], before touching `registry`,
/// when the stream is not a valid engine emission (no header first,
/// undeclared or out-of-order jobs).
pub fn record_events(
    registry: &mut MetricsRegistry,
    stream: &[WorkflowEvent],
) -> Result<(), WmsError> {
    events::validate(stream)?;
    MetricsMonitor::labelled_by_header(registry).events(stream);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::scripted::ScriptedBackend;
    use crate::engine::{Engine, EngineConfig, RetryPolicy};
    use crate::planner::{ExecutableJob, ExecutableWorkflow};

    fn registry_with_histogram() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.declare_histogram("h", "test", &[1.0, 10.0, 100.0]);
        r
    }

    #[test]
    fn counters_and_gauges_accumulate_per_label_set() {
        let mut r = MetricsRegistry::new();
        r.declare_counter("c", "test counter");
        r.declare_gauge("g", "test gauge");
        r.inc("c", &[("site", "osg")]);
        r.inc("c", &[("site", "osg")]);
        r.inc("c", &[("site", "sandhills")]);
        r.set("g", &[], 7.5);
        r.set("g", &[], 2.5);
        assert_eq!(r.value("c", &[("site", "osg")]), Some(2.0));
        assert_eq!(r.value("c", &[("site", "sandhills")]), Some(1.0));
        assert_eq!(r.value("g", &[]), Some(2.5));
        // Label order is irrelevant: keys sort internally.
        let mut r2 = MetricsRegistry::new();
        r2.declare_counter("c", "t");
        r2.inc("c", &[("a", "1"), ("b", "2")]);
        r2.inc("c", &[("b", "2"), ("a", "1")]);
        assert_eq!(r2.value("c", &[("a", "1"), ("b", "2")]), Some(2.0));
    }

    #[test]
    fn histogram_buckets_sum_count_and_quantiles() {
        let mut r = registry_with_histogram();
        for v in [0.5, 5.0, 5.0, 50.0, 500.0] {
            r.observe("h", &[], v);
        }
        let h = r.histogram("h", &[]).unwrap();
        assert_eq!(h.count, 5);
        assert!((h.sum - 560.5).abs() < 1e-9);
        // Median rank 2.5 lands in the (1, 10] bucket.
        let p50 = r.quantile("h", &[], 0.5).unwrap();
        assert!(p50 > 1.0 && p50 <= 10.0, "{p50}");
        // The +Inf observation clamps to the largest finite bound.
        assert_eq!(r.quantile("h", &[], 1.0), Some(100.0));
        assert_eq!(r.quantile("h", &[], 0.99), Some(100.0));
        assert_eq!(r.quantile("h", &[("x", "y")], 0.5), None);
        assert_eq!(registry_with_histogram().quantile("h", &[], 0.5), None);
    }

    #[test]
    fn render_is_valid_exposition_and_deterministic() {
        let mut r = MetricsRegistry::new();
        r.declare_counter("b_total", "second family");
        r.declare_counter("a_total", "first family");
        r.inc("b_total", &[("site", "osg"), ("n", "10")]);
        r.inc("a_total", &[]);
        r.declare_histogram("h", "hist", &[1.0, 2.0]);
        r.observe("h", &[("q", "z\"x")], 1.5);
        let text = r.render();
        // Families render name-sorted; labels render key-sorted.
        let a = text.find("a_total").unwrap();
        let b = text.find("b_total").unwrap();
        assert!(a < b);
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("b_total{n=\"10\",site=\"osg\"} 1"));
        assert!(text.contains("# TYPE h histogram"));
        assert!(text.contains("h_bucket{q=\"z\\\"x\",le=\"1\"} 0"));
        assert!(text.contains("h_bucket{q=\"z\\\"x\",le=\"2\"} 1"));
        assert!(text.contains("h_bucket{q=\"z\\\"x\",le=\"+Inf\"} 1"));
        assert!(text.contains("h_sum{q=\"z\\\"x\"} 1.5"));
        assert!(text.contains("h_count{q=\"z\\\"x\"} 1"));
        assert_eq!(text, r.render(), "rendering must be stable");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_panics() {
        MetricsRegistry::new().inc("nope", &[]);
    }

    #[test]
    fn n_label_parses_sweep_names() {
        assert_eq!(n_label("blast2cap3_n300", 9), "300");
        assert_eq!(n_label("montage", 42), "42");
        assert_eq!(n_label("weird_nxyz", 3), "3");
    }

    fn chain() -> ExecutableWorkflow {
        let job = |id: usize, name: &str, runtime: f64, install: f64| ExecutableJob {
            id: crate::workflow::JobId::new(id),
            name: name.into(),
            transformation: name.into(),
            kind: JobKind::Compute,
            args: Default::default(),
            runtime_hint: runtime,
            install_hint: install,
        };
        ExecutableWorkflow {
            name: "chain_n3".into(),
            site: "test".into(),
            jobs: vec![
                job(0, "a", 10.0, 0.0),
                job(1, "b", 20.0, 3.0),
                job(2, "c", 5.0, 0.0),
            ],
            edges: vec![
                (
                    crate::workflow::JobId::new(0),
                    crate::workflow::JobId::new(1),
                ),
                (
                    crate::workflow::JobId::new(1),
                    crate::workflow::JobId::new(2),
                ),
            ],
        }
    }

    #[test]
    fn live_monitor_and_offline_record_render_identically() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("b".into(), 0));
        let cfg = EngineConfig::builder()
            .policy(RetryPolicy::exponential(3, 7.0))
            .build();
        let mut live = MetricsRegistry::new();
        let run = {
            let mut mon = MetricsMonitor::new(&mut live, "test", "3");
            Engine::run(&mut be, &wf, &cfg, &mut mon)
        };
        assert!(run.succeeded());

        let labels = [("site", "test"), ("n", "3")];
        assert_eq!(live.value(names::SUBMITTED, &labels), Some(4.0));
        assert_eq!(live.value(names::COMPLETIONS, &labels), Some(3.0));
        assert_eq!(live.value(names::IN_FLIGHT, &labels), Some(0.0));
        assert_eq!(
            live.value(
                names::FAILURES,
                &[("site", "test"), ("n", "3"), ("reason", "error")]
            ),
            Some(1.0)
        );
        assert_eq!(
            live.value(
                names::WORKFLOWS,
                &[("site", "test"), ("n", "3"), ("outcome", "success")]
            ),
            Some(1.0)
        );
        let h = live
            .histogram(
                names::PHASE_SECONDS,
                &[("site", "test"), ("n", "3"), ("phase", "kickstart")],
            )
            .unwrap();
        assert_eq!(h.count, 3);

        let mut offline = MetricsRegistry::new();
        record_events(&mut offline, &run.events).unwrap();
        assert_eq!(offline.render(), live.render());

        // And through the text log too, the full --from-events path.
        let mut from_log = MetricsRegistry::new();
        let parsed = events::log::parse(&events::log::write(&run.events)).unwrap();
        record_events(&mut from_log, &parsed).unwrap();
        assert_eq!(from_log.render(), live.render());
    }

    #[test]
    fn phase_histogram_splits_waiting_install_kickstart() {
        let mut r = MetricsRegistry::new();
        let mut mon = MetricsMonitor::new(&mut r, "s", "1");
        let text = "job id=0 kind=compute transformation=b name=b\n\
                    completed job=0 attempt=0 submitted=0 started=100 install-done=130 finished=530\n";
        for ev in events::log::parse(text).unwrap() {
            mon.event(&ev);
        }
        for (phase, want) in [
            ("queue_wait", 100.0),
            ("install", 30.0),
            ("kickstart", 400.0),
        ] {
            let h = r
                .histogram(
                    names::PHASE_SECONDS,
                    &[("site", "s"), ("n", "1"), ("phase", phase)],
                )
                .unwrap();
            assert_eq!(h.count, 1, "{phase}");
            assert!((h.sum - want).abs() < 1e-9, "{phase}: {}", h.sum);
        }
    }
}
