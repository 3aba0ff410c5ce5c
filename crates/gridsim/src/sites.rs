//! Declarative site definitions and the site registry.
//!
//! The paper's central object is the *execution site* — the Sandhills
//! campus cluster vs. the Open Science Grid — yet for seven PRs the
//! codebase modelled sites as bare strings with `match site { ... }`
//! dispatch copied across the experiment driver, the serve daemon,
//! and the CLI, plus three disconnected representations (the catalog
//! [`Site`], the [`crate::platforms`] constructor functions, and CLI
//! string switches) kept in sync by hand.
//!
//! This module fuses them into one model:
//!
//! * [`SiteDef`] — a single declarative record holding a site's name,
//!   aliases, catalog properties (shared filesystem, CPU speed,
//!   pre-staged replicas) and every [`PlatformModel`] knob (slots,
//!   queue-delay distribution, startup delay, install factor,
//!   preemption, jitter, churn), parsed from a line-oriented text
//!   format in the fault-plan idiom (`sites.def`) with round-trip
//!   parse/render and line-numbered errors;
//! * [`SiteRegistry`] — an interning table ([`SiteId`] per def) that
//!   every consumer routes through: name → id resolution over names
//!   *and* aliases, platform/backend construction, site-catalog and
//!   replica-catalog synthesis, the `--site both` sweep, and the
//!   "does this platform need fault handling" predicate.
//!
//! The built-in definitions ([`SiteRegistry::builtin`]) are where the
//! paper's platforms are defined — [`crate::platforms`] looks them up
//! by name — and their catalog entries are `assert_eq!`-identical to
//! [`pegasus_wms::catalog::paper_catalogs`]; every committed golden
//! pins their values — while `pegasus run --sites my_sites.def
//! --site my-cluster` executes a never-before-seen platform with zero
//! code changes.

use crate::backend::SimBackend;
use crate::dist::{sample_standard_normal, Dist};
use crate::platform::{ChurnModel, PlatformModel, SlotSpec};
use pegasus_wms::catalog::{ReplicaCatalog, Site, SiteCatalog};
use pegasus_wms::error::{Format, Span, WmsError};
use pegasus_wms::line::{self, Fields, Range};
use pegasus_wms::lint::Severity;
use pegasus_wms::symbols::{SiteId, SymbolTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// How a site's slot speeds are generated.
///
/// Stored in the ergonomic parameterisation (median/sigma, like
/// [`Dist::lognormal_median`]) so a parsed definition renders back to
/// the exact text it came from.
#[derive(Debug, Clone, PartialEq)]
pub enum SpeedSpec {
    /// Every slot runs at the same relative speed.
    Fixed(f64),
    /// Per-slot speeds drawn from a lognormal with the given median
    /// and sigma, seeded by the platform seed — the OSG heterogeneous
    /// pool.
    LognormalMedian {
        /// Median relative slot speed.
        median: f64,
        /// Sigma of the underlying normal.
        sigma: f64,
    },
}

impl SpeedSpec {
    /// Materialises the slot pool, consuming the rng in declaration
    /// order (one draw per slot for the lognormal case).
    fn slots(&self, count: usize, rng: &mut StdRng) -> Vec<SlotSpec> {
        match *self {
            SpeedSpec::Fixed(speed) => vec![SlotSpec { speed }; count],
            SpeedSpec::LognormalMedian { median, sigma } => (0..count)
                .map(|_| SlotSpec {
                    speed: (median.ln() + sigma * sample_standard_normal(rng)).exp(),
                })
                .collect(),
        }
    }
}

/// The execution slots a site may declare, judged by `E0504`, and the
/// slot budgets the binaries take (`--slots`, `--tenant-slots`). The
/// backend holds one slot record per slot: a run on 10^6 slots peaks at
/// 18.8 MB and on 10^7 at 156 MB (10.1 MB on 64), and no budget can
/// use more slots than the largest site has.
pub const SLOTS: Range = Range::Count {
    min: 1,
    max: 1_000_000,
};

/// One declarative site definition: everything the planner, the
/// simulator, and the catalogs need to know about an execution site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteDef {
    /// Primary site name (a single whitespace-free token).
    pub(crate) name: String,
    /// Alternative names that resolve to this site.
    pub aliases: Vec<String>,
    /// When set, this def is a *variant* of another site: it shares
    /// that site's catalog entry (and platform handle) instead of
    /// contributing its own, like `osg_prestaged` sharing the `osg`
    /// catalog. Variants are excluded from the `--site both` sweep.
    pub catalog_site: Option<String>,
    /// Number of execution slots, in [`SLOTS`].
    pub slots: usize,
    /// Slot speed generator.
    pub speed: SpeedSpec,
    /// Per-job queue delay distribution.
    pub queue_delay: Dist,
    /// One-time pool allocation delay (seconds).
    pub startup_delay: f64,
    /// Multiplier on job install hints (0 disables install phases).
    pub install_time_factor: f64,
    /// Preemption hazard rate per busy second.
    pub preemption_rate: f64,
    /// Lognormal sigma on execution durations.
    pub runtime_jitter_sigma: f64,
    /// Fixed per-task service seconds.
    pub task_overhead: f64,
    /// Optional slot availability churn.
    pub churn: Option<ChurnModel>,
    /// Whether worker nodes share a filesystem with the submit host.
    pub shared_fs: bool,
    /// Relative CPU speed for the site-catalog entry.
    pub cpu_speed: f64,
    /// Submit-host ↔ site bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Software packages maintained on the site's worker nodes.
    pub packages: Vec<String>,
    /// Logical files pre-staged at this site (registered into the
    /// replica catalog under the site's catalog handle).
    pub replicas: Vec<String>,
    /// Where [`parse_defs`] read this definition.
    pub(crate) read_at: ReadAt,
}

/// The lines a definition was read from: its `site` header, then the
/// first line of every key. Empty for a definition built in code.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReadAt(Vec<(String, Span)>);

impl PartialEq for ReadAt {
    /// Where a definition was read from is not part of its value.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl SiteDef {
    /// A definition with the given name and the format's defaults:
    /// one reference-speed slot, no delays, no faults, install factor
    /// 1, no shared filesystem, default bandwidth.
    pub fn new(name: impl Into<String>) -> Self {
        SiteDef {
            name: name.into(),
            aliases: Vec::new(),
            catalog_site: None,
            slots: 1,
            speed: SpeedSpec::Fixed(1.0),
            queue_delay: Dist::Fixed(0.0),
            startup_delay: 0.0,
            install_time_factor: 1.0,
            preemption_rate: 0.0,
            runtime_jitter_sigma: 0.0,
            task_overhead: 0.0,
            churn: None,
            shared_fs: false,
            cpu_speed: 1.0,
            bandwidth_bps: 100.0e6,
            packages: Vec::new(),
            replicas: Vec::new(),
            read_at: ReadAt::default(),
        }
    }

    /// The first line that set `key` (`"site"` is the header), the
    /// header's when the file never set it, unknown for a definition
    /// built in code.
    pub(crate) fn span(&self, key: &str) -> Span {
        let lines = &self.read_at.0;
        let set = lines.iter().find(|(k, _)| k == key).or(lines.first());
        set.map_or_else(Span::none, |(_, span)| *span)
    }
}

/// Splits a two-number `a,b` value.
fn parse_pair<'a>(f: &Fields<'_, 'a>, raw: &'a str, key: &str) -> Result<(f64, f64), WmsError> {
    let (a, b) = raw
        .split_once(',')
        .ok_or_else(|| f.err(format!("{key} expects two comma-separated numbers")))?;
    Ok((f.parse(key, a)?, f.parse(key, b)?))
}

/// Parses the `kind:args` distribution syntax:
/// `fixed:X`, `uniform:LO,HI`, `exponential:RATE`,
/// `lognormal:MU,SIGMA`, or the sugar `lognormal-median:MEDIAN,SIGMA`.
fn parse_dist<'a>(f: &Fields<'_, 'a>, raw: &'a str, key: &str) -> Result<Dist, WmsError> {
    let (kind, args) = raw
        .split_once(':')
        .ok_or_else(|| f.err(format!("{key} expects kind:args, got {raw:?}")))?;
    match kind {
        "fixed" => Ok(Dist::Fixed(f.parse(key, args)?)),
        "uniform" => {
            let (lo, hi) = parse_pair(f, args, key)?;
            Ok(Dist::Uniform(lo, hi))
        }
        "exponential" => Ok(Dist::Exponential(f.parse(key, args)?)),
        "lognormal" => {
            let (mu, sigma) = parse_pair(f, args, key)?;
            Ok(Dist::LogNormal(mu, sigma))
        }
        "lognormal-median" => {
            let (median, sigma) = parse_pair(f, args, key)?;
            Ok(Dist::lognormal_median(median, sigma))
        }
        other => Err(f.err(format!("unknown distribution kind {other:?} for {key}"))),
    }
}

/// Renders a distribution in the syntax [`parse_dist`] accepts.
/// `{}` on `f64` prints the shortest string that round-trips, so
/// `parse_dist(render_dist(d)) == d` for finite parameters.
fn render_dist(d: &Dist) -> String {
    match *d {
        Dist::Fixed(v) => format!("fixed:{v}"),
        Dist::Uniform(lo, hi) => format!("uniform:{lo},{hi}"),
        Dist::Exponential(rate) => format!("exponential:{rate}"),
        Dist::LogNormal(mu, sigma) => format!("lognormal:{mu},{sigma}"),
    }
}

fn parse_speed<'a>(f: &Fields<'_, 'a>, raw: &'a str) -> Result<SpeedSpec, WmsError> {
    if let Some(args) = raw.strip_prefix("lognormal-median:") {
        let (median, sigma) = parse_pair(f, args, "speed")?;
        Ok(SpeedSpec::LognormalMedian { median, sigma })
    } else {
        Ok(SpeedSpec::Fixed(f.parse("speed", raw)?))
    }
}

fn render_speed(s: &SpeedSpec) -> String {
    match *s {
        SpeedSpec::Fixed(v) => format!("{v}"),
        SpeedSpec::LognormalMedian { median, sigma } => {
            format!("lognormal-median:{median},{sigma}")
        }
    }
}

/// A site name or alias: one whitespace-free token without the
/// characters the text format itself uses.
fn check_name(name: &str, what: &str, line: usize) -> Result<(), WmsError> {
    if name.is_empty() {
        return Err(Format::SiteDef.at(line, format!("{what} must not be empty")));
    }
    if let Some(bad) = name
        .chars()
        .find(|c| c.is_whitespace() || "=,#".contains(*c))
    {
        let reason = format!("{what} {name:?} contains reserved character {bad:?}");
        return Err(Format::SiteDef.at(line, reason));
    }
    Ok(())
}

/// Parses the line-oriented `sites.def` format without any
/// cross-definition checks (duplicate names and aliases survive, so
/// the lint pass can see and report them):
///
/// ```text
/// # comments and blank lines are ignored
/// site sandhills
/// aliases=campus,hcc
/// slots=64 speed=1
/// queue-delay=lognormal-median:20,0.8
/// startup-delay=600 install-factor=0 jitter=0.05 task-overhead=90
/// shared-fs=true packages=python,biopython,cap3
/// ```
///
/// Every non-blank line after a `site <name>` header is a run of
/// whitespace-separated `key=value` fields applied to that site;
/// repeating a key overrides the earlier value. Each definition keeps
/// the lines it was read from, for the lint pass to point at.
pub fn parse_defs(text: &str) -> Result<Vec<SiteDef>, WmsError> {
    let mut defs: Vec<SiteDef> = Vec::new();
    let mut buf = Vec::new();
    for line in line::lines(text) {
        let (at, number) = (Span::line(line.number), line.number);
        if line.keyword == "site" {
            check_name(line.rest, "site name", number)?;
            let mut def = SiteDef::new(line.rest);
            def.read_at.0.push(("site".into(), at));
            defs.push(def);
            continue;
        }
        let Some(def) = defs.last_mut() else {
            let reason = format!("{:?} before any `site <name>` header", line.keyword);
            return Err(Format::SiteDef.at(number, reason));
        };
        let f = &mut Fields::split(line.text, None, number, Format::SiteDef, &mut buf)?;
        // Any subset of the keys, in any order, a later one winning.
        while let Some((key, value)) = f.next_any() {
            match key {
                "aliases" => {
                    def.aliases = f.list(key, value)?;
                    for a in &def.aliases {
                        check_name(a, "alias", number)?;
                    }
                }
                "catalog-site" => {
                    check_name(value, key, number)?;
                    def.catalog_site = Some(value.to_string());
                }
                "slots" => def.slots = f.parse(key, value)?,
                "speed" => def.speed = parse_speed(f, value)?,
                "queue-delay" => def.queue_delay = parse_dist(f, value, key)?,
                "startup-delay" => def.startup_delay = f.parse(key, value)?,
                "install-factor" => def.install_time_factor = f.parse(key, value)?,
                "preemption-rate" => def.preemption_rate = f.parse(key, value)?,
                "jitter" => def.runtime_jitter_sigma = f.parse(key, value)?,
                "task-overhead" => def.task_overhead = f.parse(key, value)?,
                "churn" => {
                    let (mean_up, mean_down) = parse_pair(f, value, key)?;
                    def.churn = Some(ChurnModel { mean_up, mean_down });
                }
                "shared-fs" => def.shared_fs = f.parse(key, value)?,
                "cpu-speed" => def.cpu_speed = f.parse(key, value)?,
                "bandwidth" => def.bandwidth_bps = f.parse(key, value)?,
                "packages" => def.packages = f.list(key, value)?,
                "replicas" => def.replicas = f.list(key, value)?,
                other => return Err(f.err(format!("unknown site field {other:?}"))),
            }
            if !def.read_at.0.iter().any(|(k, _)| k == key) {
                def.read_at.0.push((key.to_string(), at));
            }
        }
        f.finish()?;
    }
    Ok(defs)
}

/// Renders definitions back into the text format — the inverse of
/// [`parse_defs`] up to whitespace, comments and distribution sugar
/// (a `lognormal-median:` queue delay renders in `lognormal:` form,
/// which parses back to the identical distribution).
pub fn render_defs(defs: &[SiteDef]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, def) in defs.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = writeln!(out, "site {}", def.name);
        if !def.aliases.is_empty() {
            let _ = writeln!(out, "aliases={}", def.aliases.join(","));
        }
        if let Some(target) = &def.catalog_site {
            let _ = writeln!(out, "catalog-site={target}");
        }
        let _ = writeln!(
            out,
            "slots={} speed={}",
            def.slots,
            render_speed(&def.speed)
        );
        let _ = writeln!(out, "queue-delay={}", render_dist(&def.queue_delay));
        let _ = writeln!(
            out,
            "startup-delay={} install-factor={} preemption-rate={} jitter={} task-overhead={}",
            def.startup_delay,
            def.install_time_factor,
            def.preemption_rate,
            def.runtime_jitter_sigma,
            def.task_overhead
        );
        if let Some(churn) = def.churn {
            let _ = writeln!(out, "churn={},{}", churn.mean_up, churn.mean_down);
        }
        let _ = writeln!(
            out,
            "shared-fs={} cpu-speed={} bandwidth={}",
            def.shared_fs, def.cpu_speed, def.bandwidth_bps
        );
        if !def.packages.is_empty() {
            let _ = writeln!(out, "packages={}", def.packages.join(","));
        }
        if !def.replicas.is_empty() {
            let _ = writeln!(out, "replicas={}", def.replicas.join(","));
        }
    }
    out
}

/// The built-in definitions: the paper's two platforms plus the two
/// OSG variants — the one statement of their numbers, which
/// [`crate::platforms`] looks up by name — knob-for-knob identical to
/// [`pegasus_wms::catalog::paper_catalogs`].
pub(crate) const BUILTIN_SITES_DEF: &str = "\
# Built-in sites: the paper's two platforms and the OSG variants.
# Calibration story in DESIGN.md \u{a7}4; the values are pinned by the
# byte goldens of tests/interning_equivalence.rs on both sites.

site sandhills
slots=64 speed=1
queue-delay=lognormal-median:20,0.8
startup-delay=600 install-factor=0 preemption-rate=0 jitter=0.05 task-overhead=90
shared-fs=true cpu-speed=1 bandwidth=100000000
packages=python,biopython,cap3

site osg
slots=150 speed=lognormal-median:1.35,0.15
queue-delay=lognormal-median:600,1
startup-delay=0 install-factor=1 preemption-rate=0.00005 jitter=0.15 task-overhead=5
shared-fs=false cpu-speed=1.35 bandwidth=100000000

# \u{a7}VII future-work variant: software pre-staged on the OSG nodes.
site osg_prestaged
catalog-site=osg
slots=150 speed=lognormal-median:1.35,0.15
queue-delay=lognormal-median:600,1
startup-delay=0 install-factor=0 preemption-rate=0.00005 jitter=0.15 task-overhead=5

# Eviction as explicit slot churn instead of the per-job hazard.
site osg_churning
catalog-site=osg
slots=150 speed=lognormal-median:1.35,0.15
queue-delay=lognormal-median:600,1
startup-delay=0 install-factor=1 preemption-rate=0 jitter=0.15 task-overhead=5
churn=21600,3600
";

/// An interned, resolved set of site definitions: the single source
/// of truth every consumer (planner config, simulation backends, the
/// serve daemon, CLI sweeps, lint) routes through.
#[derive(Debug, Clone, Default)]
pub struct SiteRegistry {
    defs: Vec<SiteDef>,
    names: SymbolTable<SiteId>,
    lookup: HashMap<String, SiteId>,
}

impl SiteRegistry {
    /// Builds a registry from parsed definitions, refusing them with
    /// the first error [`crate::lint_sites`] finds: its code, its line
    /// and its message. The lint is the one judge of a site file, so
    /// what it passes holds no duplicate name or alias.
    pub fn from_defs(defs: Vec<SiteDef>) -> Result<Self, WmsError> {
        let findings = crate::lint_sites(&defs, "");
        if let Some(d) = findings.into_iter().find(|d| d.severity == Severity::Error) {
            return Err(WmsError::Parse {
                format: Format::SiteDef,
                span: d.span,
                code: d.code,
                reason: format!("{} [{}]", d.message, d.code),
            });
        }
        let mut names = SymbolTable::with_capacity(defs.len());
        let mut lookup = HashMap::new();
        for (idx, def) in defs.iter().enumerate() {
            let id: SiteId = names.intern(&def.name);
            debug_assert_eq!(id, SiteId::new(idx));
            lookup.insert(def.name.clone(), id);
            for alias in &def.aliases {
                lookup.insert(alias.clone(), id);
            }
        }
        Ok(SiteRegistry {
            defs,
            names,
            lookup,
        })
    }

    /// Parses a `sites.def` text into a registry.
    pub fn parse(text: &str) -> Result<Self, WmsError> {
        Self::from_defs(parse_defs(text)?)
    }

    /// The built-in registry: `sandhills`, `osg`, `osg_prestaged`,
    /// `osg_churning`.
    pub fn builtin() -> Self {
        Self::parse(BUILTIN_SITES_DEF).expect("built-in site definitions parse")
    }

    /// Resolves a site name or alias to its id, or a typed
    /// [`WmsError::UnknownSite`] listing the registered names.
    pub fn resolve(&self, name: &str) -> Result<SiteId, WmsError> {
        self.lookup.get(name).copied().ok_or_else(|| {
            let mut known: Vec<String> = self.defs.iter().map(|d| d.name.clone()).collect();
            known.sort();
            WmsError::UnknownSite {
                site: name.to_string(),
                known,
            }
        })
    }

    /// The definition behind an id.
    pub(crate) fn get(&self, id: SiteId) -> &SiteDef {
        &self.defs[id.idx()]
    }

    /// The primary name behind an id.
    pub fn name(&self, id: SiteId) -> &str {
        self.names.resolve(id)
    }

    /// The catalog handle a site plans and reports under: its own
    /// name, or — for variants — the end of its `catalog-site` chain.
    pub fn catalog_name(&self, id: SiteId) -> &str {
        let mut def = &self.defs[id.idx()];
        // The chain length is bounded by the def count; a cycle (which
        // the lint allows: every target names a site) degrades to the
        // last name seen rather than hanging.
        for _ in 0..self.defs.len() {
            let Some(target) = &def.catalog_site else {
                return &def.name;
            };
            match self.lookup.get(target) {
                Some(&next) if !std::ptr::eq(&self.defs[next.idx()], def) => {
                    def = &self.defs[next.idx()];
                }
                // A self-referential target: take the declared handle
                // at face value.
                _ => return target,
            }
        }
        &def.name
    }

    /// Definitions in file order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SiteId, &SiteDef)> {
        self.defs
            .iter()
            .enumerate()
            .map(|(i, d)| (SiteId::new(i), d))
    }

    /// The sites a `--site both` sweep visits: every non-variant
    /// definition, in file order — `[sandhills, osg]` for the
    /// built-ins, exactly the historical sweep.
    pub fn sweep(&self) -> Vec<SiteId> {
        self.iter()
            .filter(|(_, d)| d.catalog_site.is_none())
            .map(|(id, _)| id)
            .collect()
    }

    /// Whether runs on this site exercise fault handling (a nonzero
    /// preemption hazard or slot churn) — drives retry-policy lint.
    pub fn faults_active(&self, id: SiteId) -> bool {
        let def = self.get(id);
        def.preemption_rate > 0.0 || def.churn.is_some()
    }

    /// Builds the platform model for one site. The model's handle is
    /// the site's *catalog* name, so variants report under their base
    /// site (`osg_prestaged` is an `osg` to every report).
    pub fn platform(&self, id: SiteId, seed: u64) -> PlatformModel {
        let def = self.get(id);
        let mut rng = StdRng::seed_from_u64(seed);
        PlatformModel {
            name: self.catalog_name(id).to_string(),
            slots: def.speed.slots(def.slots, &mut rng),
            queue_delay: def.queue_delay.clone(),
            startup_delay: def.startup_delay,
            install_time_factor: def.install_time_factor,
            preemption_rate: def.preemption_rate,
            runtime_jitter_sigma: def.runtime_jitter_sigma,
            task_overhead: def.task_overhead,
            churn: def.churn,
        }
    }

    /// Builds a seeded simulation backend for one site.
    pub fn backend(&self, id: SiteId, seed: u64) -> SimBackend {
        SimBackend::new(self.platform(id, seed), seed)
    }

    /// Synthesises the site catalog: one entry per non-variant
    /// definition (variants share their base site's entry). For the
    /// built-ins this equals `paper_catalogs().0`.
    pub fn site_catalog(&self) -> SiteCatalog {
        let mut catalog = SiteCatalog::new();
        for (_, def) in self.iter().filter(|(_, d)| d.catalog_site.is_none()) {
            let mut site = Site::new(&def.name)
                .with_shared_fs(def.shared_fs)
                .with_cpu_speed(def.cpu_speed);
            site.bandwidth_bps = def.bandwidth_bps;
            for pkg in &def.packages {
                site = site.with_package(pkg);
            }
            catalog.add(site);
        }
        catalog
    }

    /// Registers every definition's pre-staged files into `rc`, under
    /// the definition's catalog handle.
    pub fn register_replicas(&self, rc: &mut ReplicaCatalog) {
        for (id, def) in self.iter() {
            for file in &def.replicas {
                rc.register(file.clone(), self.catalog_name(id));
            }
        }
    }

    /// Renders the registry's definitions back to text.
    pub fn to_text(&self) -> String {
        render_defs(&self.defs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_catalog_matches_paper_catalogs() {
        let reg = SiteRegistry::builtin();
        let built = reg.site_catalog();
        let (paper, _) = pegasus_wms::catalog::paper_catalogs();
        let mut names = built.names();
        names.sort();
        let mut expected = paper.names();
        expected.sort();
        assert_eq!(names, expected);
        for name in &names {
            assert_eq!(built.get(name), paper.get(name), "{name}");
        }
    }

    #[test]
    fn variants_share_the_base_catalog_handle() {
        let reg = SiteRegistry::builtin();
        let pre = reg.resolve("osg_prestaged").unwrap();
        assert_eq!(reg.catalog_name(pre), "osg");
        assert_eq!(reg.name(pre), "osg_prestaged");
        let sh = reg.resolve("sandhills").unwrap();
        assert_eq!(reg.catalog_name(sh), "sandhills");
    }

    #[test]
    fn sweep_visits_the_non_variants_in_order() {
        let reg = SiteRegistry::builtin();
        let names: Vec<&str> = reg.sweep().into_iter().map(|id| reg.name(id)).collect();
        assert_eq!(names, vec!["sandhills", "osg"]);
    }

    #[test]
    fn faults_active_tracks_hazard_and_churn() {
        let reg = SiteRegistry::builtin();
        assert!(!reg.faults_active(reg.resolve("sandhills").unwrap()));
        assert!(reg.faults_active(reg.resolve("osg").unwrap()));
        assert!(reg.faults_active(reg.resolve("osg_prestaged").unwrap()));
        assert!(reg.faults_active(reg.resolve("osg_churning").unwrap()));
    }

    #[test]
    fn unknown_site_error_lists_registered_names() {
        let reg = SiteRegistry::builtin();
        let err = reg.resolve("mars").unwrap_err();
        let WmsError::UnknownSite { site, known } = err else {
            panic!("wrong variant");
        };
        assert_eq!(site, "mars");
        assert_eq!(
            known,
            vec!["osg", "osg_churning", "osg_prestaged", "sandhills"]
        );
    }

    #[test]
    fn aliases_resolve_to_the_same_id() {
        let text = "site alpha\naliases=campus,\u{43a}\u{43b}\u{430}\u{441}\u{442}\u{435}\u{440}\nslots=4\n";
        let reg = SiteRegistry::parse(text).unwrap();
        let a = reg.resolve("alpha").unwrap();
        assert_eq!(reg.resolve("campus").unwrap(), a);
        assert_eq!(
            reg.resolve("\u{43a}\u{43b}\u{430}\u{441}\u{442}\u{435}\u{440}")
                .unwrap(),
            a
        );
        assert_eq!(reg.name(a), "alpha");
    }

    #[test]
    fn duplicate_names_and_aliases_are_rejected_at_load() {
        // The lint's first error, at its line, is the refusal.
        for (text, want, line) in [
            ("site a\nsite a\n", "E0501", 2),
            ("site a\nsite b\naliases=a\n", "E0503", 3),
            (
                "site a\naliases=x\nsite b\naliases=x\nslots=0\n",
                "E0502",
                4,
            ),
        ] {
            let err = SiteRegistry::parse(text).unwrap_err();
            let WmsError::Parse { code, span, .. } = &err else {
                panic!("wrong variant: {err}");
            };
            assert_eq!((*code, span.line), (want, line), "{err}");
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_defs("site ok\nslots=not-a-number\n").unwrap_err();
        let WmsError::Parse { span, reason, .. } = err else {
            panic!("wrong variant");
        };
        assert_eq!(span, Span::line(2));
        assert!(reason.contains("slots"), "{reason}");

        let err = parse_defs("slots=3\n").unwrap_err();
        let WmsError::Parse { span, .. } = err else {
            panic!("wrong variant");
        };
        assert_eq!(span, Span::line(1));
    }

    #[test]
    fn render_round_trips_the_builtins() {
        let defs = parse_defs(BUILTIN_SITES_DEF).unwrap();
        let rendered = render_defs(&defs);
        assert_eq!(parse_defs(&rendered).unwrap(), defs);
    }

    #[test]
    fn catalog_site_chains_terminate() {
        // b -> a -> (none); d -> d; e -> f -> e. A target naming no
        // site is refused at load.
        let text = "site a\nsite b\ncatalog-site=a\nsite d\ncatalog-site=d\n\
                    site e\ncatalog-site=f\nsite f\ncatalog-site=e\n";
        let reg = SiteRegistry::parse(text).unwrap();
        assert_eq!(reg.catalog_name(reg.resolve("b").unwrap()), "a");
        assert_eq!(reg.catalog_name(reg.resolve("d").unwrap()), "d");
        assert_eq!(reg.catalog_name(reg.resolve("e").unwrap()), "f");
        let err = SiteRegistry::parse("site a\nsite c\ncatalog-site=ghost\n").unwrap_err();
        assert!(
            matches!(err, WmsError::Parse { code: "E0506", .. }),
            "{err}"
        );
    }

    #[test]
    fn replicas_register_under_the_catalog_handle() {
        let text = "site base\nsite cached\ncatalog-site=base\nreplicas=big.db,ref.fa\n";
        let reg = SiteRegistry::parse(text).unwrap();
        let mut rc = ReplicaCatalog::new();
        reg.register_replicas(&mut rc);
        assert!(rc.has_replica("big.db", "base"));
        assert!(rc.has_replica("ref.fa", "base"));
        assert!(!rc.has_replica("big.db", "cached"));
    }
}
