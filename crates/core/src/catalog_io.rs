//! Text serialization for the three catalogs.
//!
//! Real Pegasus deployments keep site, transformation, and replica
//! catalogs in files the tools read at plan time. This module defines
//! a simple INI-style format covering everything our planner consults,
//! so the `pegasus` CLI can plan against user-provided catalogs
//! instead of the built-in paper pair:
//!
//! ```text
//! [site sandhills]
//! preinstalled = python, biopython, cap3
//! shared_fs = true
//! bandwidth_mbps = 100
//! cpu_speed = 1.0
//!
//! [transformation run_cap3]
//! requires = python, biopython, cap3
//! install_cost = 45
//!
//! [replica transcripts.fasta]
//! sites = submit, sandhills
//! ```

use crate::catalog::{ReplicaCatalog, Site, SiteCatalog, Transformation, TransformationCatalog};
use crate::error::{Format, WmsError};

/// The three catalogs as read from one file.
#[derive(Debug, Clone, Default)]
pub struct CatalogBundle {
    /// Execution sites.
    pub sites: SiteCatalog,
    /// Transformations.
    pub transformations: TransformationCatalog,
    /// Replicas.
    pub replicas: ReplicaCatalog,
}

fn parse_list(v: &str) -> Vec<String> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

fn parse_bool(v: &str, line: usize) -> Result<bool, WmsError> {
    match v.trim() {
        "true" | "yes" | "1" => Ok(true),
        "false" | "no" | "0" => Ok(false),
        other => Err(Format::Catalog.at(line, format!("bad boolean {other:?}"))),
    }
}

enum Section {
    None,
    Site(Site),
    Transformation(Transformation),
    Replica(String),
}

/// Parses a catalog file.
pub fn parse(text: &str) -> Result<CatalogBundle, WmsError> {
    let mut bundle = CatalogBundle::default();
    let mut section = Section::None;

    let flush = |section: &mut Section, bundle: &mut CatalogBundle| match std::mem::replace(
        section,
        Section::None,
    ) {
        Section::None | Section::Replica(_) => {}
        Section::Site(site) => bundle.sites.add(site),
        Section::Transformation(t) => bundle.transformations.add(t),
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| Format::Catalog.at(lineno, "unterminated section header"))?;
            let (kind, name) = header
                .split_once(char::is_whitespace)
                .ok_or_else(|| Format::Catalog.at(lineno, "section needs a kind and a name"))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(Format::Catalog.at(lineno, "empty section name"));
            }
            flush(&mut section, &mut bundle);
            section = match kind {
                "site" => Section::Site(Site::new(name)),
                "transformation" => Section::Transformation(Transformation::new(name)),
                "replica" => Section::Replica(name.to_string()),
                other => {
                    return Err(
                        Format::Catalog.at(lineno, format!("unknown section kind {other:?}"))
                    )
                }
            };
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| {
            Format::Catalog.at(lineno, format!("expected key = value, got {line:?}"))
        })?;
        let (key, value) = (key.trim(), value.trim());
        match &mut section {
            Section::None => return Err(Format::Catalog.at(lineno, "key outside any section")),
            Section::Site(site) => match key {
                "preinstalled" => {
                    site.preinstalled.extend(parse_list(value));
                }
                "shared_fs" => site.shared_fs = parse_bool(value, lineno)?,
                "bandwidth_mbps" => {
                    let mbps: f64 = value
                        .parse()
                        .map_err(|_| Format::Catalog.at(lineno, "bad bandwidth_mbps"))?;
                    site.bandwidth_bps = mbps * 1.0e6;
                }
                "cpu_speed" => {
                    site.cpu_speed = value
                        .parse()
                        .map_err(|_| Format::Catalog.at(lineno, "bad cpu_speed"))?;
                }
                other => {
                    return Err(Format::Catalog.at(lineno, format!("unknown site key {other:?}")))
                }
            },
            Section::Transformation(t) => match key {
                "requires" => t.requires.extend(parse_list(value)),
                "install_cost" => {
                    t.install_cost_per_pkg = value
                        .parse()
                        .map_err(|_| Format::Catalog.at(lineno, "bad install_cost"))?;
                }
                "installable" => t.installable = parse_bool(value, lineno)?,
                other => {
                    return Err(
                        Format::Catalog.at(lineno, format!("unknown transformation key {other:?}"))
                    )
                }
            },
            Section::Replica(file) => match key {
                "sites" => {
                    for site in parse_list(value) {
                        bundle.replicas.register(file.clone(), site);
                    }
                }
                other => {
                    return Err(Format::Catalog.at(lineno, format!("unknown replica key {other:?}")))
                }
            },
        }
    }
    flush(&mut section, &mut bundle);
    Ok(bundle)
}

/// Serializes a bundle back to the text format. Site/transformation
/// entries print in name order; replica lines in file order.
pub fn to_text(
    sites: &SiteCatalog,
    transformations: &TransformationCatalog,
    replicas: &ReplicaCatalog,
    known_files: &[&str],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("# pegasus-wms catalogs\n");
    let mut site_names = sites.names();
    site_names.sort();
    for name in site_names {
        let s = sites.get(&name).expect("listed site exists");
        let _ = writeln!(out, "\n[site {name}]");
        let mut pkgs: Vec<&str> = s.preinstalled.iter().map(String::as_str).collect();
        pkgs.sort_unstable();
        if !pkgs.is_empty() {
            let _ = writeln!(out, "preinstalled = {}", pkgs.join(", "));
        }
        let _ = writeln!(out, "shared_fs = {}", s.shared_fs);
        let _ = writeln!(out, "bandwidth_mbps = {}", s.bandwidth_bps / 1.0e6);
        let _ = writeln!(out, "cpu_speed = {}", s.cpu_speed);
    }
    let mut t_names = transformations.names();
    t_names.sort();
    for name in t_names {
        let t = transformations.get(&name).expect("listed entry exists");
        let _ = writeln!(out, "\n[transformation {name}]");
        if !t.requires.is_empty() {
            let _ = writeln!(out, "requires = {}", t.requires.join(", "));
        }
        let _ = writeln!(out, "install_cost = {}", t.install_cost_per_pkg);
        let _ = writeln!(out, "installable = {}", t.installable);
    }
    for file in known_files {
        let sites_for = replicas.sites_for(file);
        if !sites_for.is_empty() {
            let _ = writeln!(out, "\n[replica {file}]");
            let _ = writeln!(out, "sites = {}", sites_for.join(", "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::paper_catalogs;

    const SAMPLE: &str = r#"
# the paper's two platforms
[site sandhills]
preinstalled = python, biopython, cap3
shared_fs = true
bandwidth_mbps = 100
cpu_speed = 1.0

[site osg]
shared_fs = false
cpu_speed = 1.35

[transformation run_cap3]
requires = python, biopython, cap3
install_cost = 45
installable = true

[replica transcripts.fasta]
sites = submit, sandhills
"#;

    #[test]
    fn parses_the_sample() {
        let b = parse(SAMPLE).unwrap();
        let sh = b.sites.get("sandhills").unwrap();
        assert!(sh.shared_fs);
        assert!(sh.preinstalled.contains("biopython"));
        assert_eq!(sh.bandwidth_bps, 100.0e6);
        let osg = b.sites.get("osg").unwrap();
        assert_eq!(osg.cpu_speed, 1.35);
        assert!(osg.preinstalled.is_empty());
        let t = b.transformations.get("run_cap3").unwrap();
        assert_eq!(t.requires.len(), 3);
        assert_eq!(t.install_cost_per_pkg, 45.0);
        assert!(b.replicas.has_replica("transcripts.fasta", "submit"));
        assert!(b.replicas.has_replica("transcripts.fasta", "sandhills"));
        assert!(!b.replicas.has_replica("transcripts.fasta", "osg"));
    }

    #[test]
    fn round_trip_preserves_planning_semantics() {
        let (sites, tc) = paper_catalogs();
        let mut rc = ReplicaCatalog::new();
        rc.register("transcripts.fasta", "submit");
        let text = to_text(&sites, &tc, &rc, &["transcripts.fasta"]);
        let back = parse(&text).unwrap();
        for site_name in ["sandhills", "osg"] {
            let a = sites.get(site_name).unwrap();
            let b = back.sites.get(site_name).unwrap();
            assert_eq!(a.preinstalled, b.preinstalled, "{site_name}");
            assert_eq!(a.shared_fs, b.shared_fs);
            assert_eq!(a.cpu_speed, b.cpu_speed);
        }
        let a = tc.get("run_cap3").unwrap();
        let b = back.transformations.get("run_cap3").unwrap();
        assert_eq!(a.requires, b.requires);
        assert!(back.replicas.has_replica("transcripts.fasta", "submit"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "[site x]\nnot_a_key = 1\n";
        match parse(bad).unwrap_err() {
            WmsError::Parse { span, reason, .. } => {
                assert_eq!(span.line, 2);
                assert!(reason.contains("not_a_key"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("[site x\n").is_err());
        assert!(parse("key = value\n").is_err());
        assert!(parse("[site x]\nshared_fs = maybe\n").is_err());
        assert!(parse("[frobnicator y]\n").is_err());
        assert!(parse("[site ]\n").is_err());
        assert!(parse("[site x]\njust a line\n").is_err());
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let b = parse("# c\n; also c\n\n[site a]\ncpu_speed = 2\n").unwrap();
        assert_eq!(b.sites.get("a").unwrap().cpu_speed, 2.0);
    }
}
