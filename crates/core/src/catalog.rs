//! Site, transformation, and replica catalogs.
//!
//! Pegasus plans against three catalogs: the *site catalog* describes
//! execution sites (what software is maintained there, how jobs wait,
//! how fast the network is), the *transformation catalog* maps logical
//! transformation names to executables and their software
//! requirements, and the *replica catalog* maps logical files to the
//! sites that already hold a copy. The paper's central contrast —
//! Sandhills has Python/Biopython/CAP3 preinstalled, OSG does not — is
//! expressed entirely through these catalogs.

use std::collections::{HashMap, HashSet};

/// An execution site entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    /// Site handle, e.g. `"sandhills"` or `"osg"`.
    pub(crate) name: String,
    /// Software packages maintained on the site's worker nodes.
    pub(crate) preinstalled: HashSet<String>,
    /// Whether worker nodes share a filesystem with the submit host
    /// (campus clusters usually do; OSG worker nodes do not).
    pub(crate) shared_fs: bool,
    /// Sustained network bandwidth between submit host and site, in
    /// bytes/second, used to cost stage-in/stage-out jobs.
    pub bandwidth_bps: f64,
    /// Relative CPU speed of the site's nodes (1.0 = reference core).
    pub(crate) cpu_speed: f64,
}

impl Site {
    /// Creates a site with no preinstalled software.
    pub fn new(name: impl Into<String>) -> Self {
        Site {
            name: name.into(),
            preinstalled: HashSet::new(),
            shared_fs: false,
            bandwidth_bps: 100.0e6,
            cpu_speed: 1.0,
        }
    }

    /// Builder: marks `pkg` preinstalled.
    pub fn with_package(mut self, pkg: impl Into<String>) -> Self {
        self.preinstalled.insert(pkg.into());
        self
    }

    /// Builder: sets the shared-filesystem flag.
    pub fn with_shared_fs(mut self, shared: bool) -> Self {
        self.shared_fs = shared;
        self
    }

    /// Builder: sets node CPU speed relative to the reference core.
    pub fn with_cpu_speed(mut self, speed: f64) -> Self {
        self.cpu_speed = speed;
        self
    }
}

/// The site catalog.
#[derive(Debug, Clone, Default)]
pub struct SiteCatalog {
    sites: HashMap<String, Site>,
}

impl SiteCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or replaces a site.
    pub fn add(&mut self, site: Site) {
        self.sites.insert(site.name.clone(), site);
    }

    /// Looks a site up by handle.
    pub fn get(&self, name: &str) -> Option<&Site> {
        self.sites.get(name)
    }

    /// All site handles (unsorted).
    pub fn names(&self) -> Vec<String> {
        self.sites.keys().cloned().collect()
    }
}

/// A transformation catalog entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Transformation {
    /// Logical name, e.g. `"run_cap3"`.
    pub name: String,
    /// Software packages the transformation needs on the worker node
    /// (e.g. `python`, `biopython`, `cap3`).
    pub requires: Vec<String>,
    /// Seconds to download+install one missing package on a bare
    /// worker node (the Fig. 3 red-rectangle cost, per package).
    pub install_cost_per_pkg: f64,
    /// Whether missing packages *can* be installed at runtime. When
    /// `false` and the site lacks a package, planning fails.
    pub installable: bool,
}

impl Transformation {
    /// Creates an installable transformation with no requirements.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Transformation {
            name: name.into(),
            requires: Vec::new(),
            install_cost_per_pkg: 60.0,
            installable: true,
        }
    }

    /// Builder: adds a required package.
    pub(crate) fn requires_pkg(mut self, pkg: impl Into<String>) -> Self {
        self.requires.push(pkg.into());
        self
    }

    /// Builder: sets the per-package install cost in seconds.
    pub(crate) fn install_cost(mut self, seconds: f64) -> Self {
        self.install_cost_per_pkg = seconds;
        self
    }
}

/// The transformation catalog.
#[derive(Debug, Clone, Default)]
pub struct TransformationCatalog {
    map: HashMap<String, Transformation>,
}

impl TransformationCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or replaces a transformation.
    pub fn add(&mut self, t: Transformation) {
        self.map.insert(t.name.clone(), t);
    }

    /// Looks a transformation up by logical name.
    pub fn get(&self, name: &str) -> Option<&Transformation> {
        self.map.get(name)
    }

    /// All transformation names (unsorted).
    pub fn names(&self) -> Vec<String> {
        self.map.keys().cloned().collect()
    }

    /// Packages of `transformation` missing at `site`; empty when the
    /// transformation is unknown (unknown transformations are treated
    /// as requiring nothing, like a plain staged binary).
    pub(crate) fn missing_packages(&self, transformation: &str, site: &Site) -> Vec<String> {
        match self.map.get(transformation) {
            Some(t) => t
                .requires
                .iter()
                .filter(|p| !site.preinstalled.contains(*p))
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }
}

/// The replica catalog: which sites hold which logical files.
#[derive(Debug, Clone, Default)]
pub struct ReplicaCatalog {
    /// logical file name -> set of site handles holding a replica.
    map: HashMap<String, HashSet<String>>,
}

impl ReplicaCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a replica of `file` at `site`.
    pub fn register(&mut self, file: impl Into<String>, site: impl Into<String>) {
        self.map.entry(file.into()).or_default().insert(site.into());
    }

    /// Replaces whatever replicas of `file` were registered with one at
    /// each of `sites`.
    pub fn set(&mut self, file: impl Into<String>, sites: Vec<String>) {
        self.map.insert(file.into(), sites.into_iter().collect());
    }

    /// Every registered file with the sites holding it, both sorted.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Vec<&str>)> {
        let mut files: Vec<(&str, Vec<&str>)> = (self.map.iter())
            .map(|(file, sites)| (file.as_str(), sites.iter().map(String::as_str).collect()))
            .collect();
        files.sort_unstable();
        files.into_iter().map(|(file, mut sites)| {
            sites.sort_unstable();
            (file, sites)
        })
    }

    /// `true` if `site` holds a replica of `file`.
    pub fn has_replica(&self, file: &str, site: &str) -> bool {
        self.map.get(file).is_some_and(|s| s.contains(site))
    }
}

/// Builds the paper's two-site catalog set: `"sandhills"` (campus
/// cluster: Python, Biopython, and CAP3 maintained, shared filesystem)
/// and `"osg"` (opportunistic grid: bare nodes, faster CPUs on
/// average, no shared filesystem). The transformation catalog contains
/// the six blast2cap3 workflow transformations.
/// The programs plan against the site registry's catalog instead: this
/// site half, kept for the tests and the benchmark harness, is pinned
/// equal to the built-in `sites.def` by gridsim's tests.
pub fn paper_catalogs() -> (SiteCatalog, TransformationCatalog) {
    let mut sites = SiteCatalog::new();
    sites.add(
        Site::new("sandhills")
            .with_package("python")
            .with_package("biopython")
            .with_package("cap3")
            .with_shared_fs(true)
            .with_cpu_speed(1.0),
    );
    // Section VII: ignoring waiting and install time, OSG kickstart
    // times beat Sandhills — the opportunistic nodes are newer.
    sites.add(Site::new("osg").with_shared_fs(false).with_cpu_speed(1.35));

    let mut tc = TransformationCatalog::new();
    for name in [
        "list_transcripts",
        "list_alignments",
        "split",
        "merge",
        "extract_unjoined",
    ] {
        tc.add(
            Transformation::new(name)
                .requires_pkg("python")
                .install_cost(45.0),
        );
    }
    tc.add(
        Transformation::new("run_cap3")
            .requires_pkg("python")
            .requires_pkg("biopython")
            .requires_pkg("cap3")
            .install_cost(45.0),
    );
    (sites, tc)
}

#[cfg(test)]
impl Transformation {
    /// Builder: forbids runtime installation.
    pub(crate) fn not_installable(mut self) -> Self {
        self.installable = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_builder_accumulates() {
        let s = Site::new("x")
            .with_package("python")
            .with_package("cap3")
            .with_shared_fs(true)
            .with_cpu_speed(1.2);
        assert!(s.preinstalled.contains("python"));
        assert!(s.preinstalled.contains("cap3"));
        assert!(s.shared_fs);
        assert_eq!(s.cpu_speed, 1.2);
    }

    #[test]
    fn site_catalog_lookup() {
        let mut sc = SiteCatalog::new();
        assert!(sc.names().is_empty());
        sc.add(Site::new("a"));
        sc.add(Site::new("b"));
        assert_eq!(sc.names().len(), 2);
        assert!(sc.get("a").is_some());
        assert!(sc.get("zzz").is_none());
    }

    #[test]
    fn missing_packages_reflect_site_inventory() {
        let (_, tc) = paper_catalogs();
        let bare = Site::new("bare");
        let rich = Site::new("rich")
            .with_package("python")
            .with_package("biopython")
            .with_package("cap3");
        let mut missing = tc.missing_packages("run_cap3", &bare);
        missing.sort();
        assert_eq!(missing, vec!["biopython", "cap3", "python"]);
        assert!(tc.missing_packages("run_cap3", &rich).is_empty());
    }

    #[test]
    fn unknown_transformation_requires_nothing() {
        let tc = TransformationCatalog::new();
        assert!(tc.missing_packages("mystery", &Site::new("s")).is_empty());
    }

    #[test]
    fn replica_catalog_tracks_locations() {
        let mut rc = ReplicaCatalog::new();
        rc.register("transcripts.fasta", "submit");
        rc.register("transcripts.fasta", "sandhills");
        assert!(rc.has_replica("transcripts.fasta", "submit"));
        assert!(!rc.has_replica("transcripts.fasta", "osg"));
        assert!(!rc.has_replica("nothing", "submit"));
        rc.register("alignments.out", "submit");
        let listed: Vec<_> = rc.iter().collect();
        assert_eq!(
            listed,
            [
                ("alignments.out", vec!["submit"]),
                ("transcripts.fasta", vec!["sandhills", "submit"]),
            ]
        );
        rc.set("transcripts.fasta", vec!["osg".into()]);
        let listed: Vec<_> = rc.iter().collect();
        assert_eq!(listed[1], ("transcripts.fasta", vec!["osg"]));
    }

    #[test]
    fn paper_catalogs_encode_the_contrast() {
        let (sites, tc) = paper_catalogs();
        let sandhills = sites.get("sandhills").unwrap();
        let osg = sites.get("osg").unwrap();
        // The whole Fig. 3 story: nothing missing on Sandhills,
        // everything missing on OSG.
        assert!(tc.missing_packages("run_cap3", sandhills).is_empty());
        assert_eq!(tc.missing_packages("run_cap3", osg).len(), 3);
        // And the Section VII observation: OSG nodes are faster.
        assert!(osg.cpu_speed > sandhills.cpu_speed);
        assert!(sandhills.shared_fs && !osg.shared_fs);
    }

    #[test]
    fn transformation_builder() {
        let t = Transformation::new("x")
            .requires_pkg("a")
            .requires_pkg("b")
            .install_cost(30.0)
            .not_installable();
        assert_eq!(t.requires, vec!["a", "b"]);
        assert_eq!(t.install_cost_per_pkg, 30.0);
        assert!(!t.installable);
    }
}
