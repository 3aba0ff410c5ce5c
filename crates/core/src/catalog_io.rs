//! Text serialization for the transformation and replica catalogs.
//!
//! Real Pegasus deployments keep their catalogs in files the tools
//! read at plan time; `--catalog <file>` reads this one in place of
//! the paper's transformations and submit-host replicas. A site is
//! described once, in `sites.def` (`--sites`), so the file holds the
//! two other kinds of entry, one per line, in the line grammar
//! ([`crate::line`]). The name is the line's tail field, so it may
//! hold spaces and `=`:
//!
//! ```text
//! transformation requires=python,biopython,cap3 install-cost=45 installable=true name=run_cap3
//! replica sites=sandhills,submit file=transcripts.fasta
//! ```
//!
//! Every key is required, and a later entry of a name replaces the
//! earlier one.

use crate::catalog::{ReplicaCatalog, Transformation, TransformationCatalog};
use crate::error::{Format, WmsError};
use crate::line::{self, Fields, Writer};

/// The two catalogs as read from one file.
#[derive(Debug, Clone, Default)]
pub struct CatalogBundle {
    /// Transformations.
    pub transformations: TransformationCatalog,
    /// Replicas.
    pub replicas: ReplicaCatalog,
}

/// Parses a catalog file.
///
/// # Errors
/// A [`Format::Catalog`] error at the first line that is not an entry:
/// another keyword (an INI `[section]` among them), a key missing,
/// unknown or given twice, a value of the wrong type, an empty name.
pub fn parse(text: &str) -> Result<CatalogBundle, WmsError> {
    let mut bundle = CatalogBundle::default();
    let mut buf = Vec::new();
    for line in line::lines(text) {
        let (number, rest) = (line.number, line.rest);
        let tail = match line.keyword {
            "transformation" => "name",
            "replica" => "file",
            other => {
                let reason = format!(
                    "{other:?} is not a catalog entry (transformation or replica); \
                     site facts belong in --sites"
                );
                return Err(Format::Catalog.at(number, reason));
            }
        };
        let f = &mut Fields::split(rest, Some(tail), number, Format::Catalog, &mut buf)?;
        let name: &str = f.get(tail)?;
        if name.is_empty() {
            return Err(f.err(format!("empty {tail}")));
        }
        if line.keyword == "replica" {
            let sites = f.get("sites")?;
            bundle.replicas.set(name, f.list("sites", sites)?);
        } else {
            let requires = f.get("requires")?;
            bundle.transformations.add(Transformation {
                name: name.to_string(),
                requires: f.list("requires", requires)?,
                install_cost_per_pkg: f.get("install-cost")?,
                installable: f.get("installable")?,
            });
        }
        f.finish()?;
    }
    Ok(bundle)
}

/// Writes the catalogs in the format [`parse`] reads: transformations,
/// then replicas, each in name order.
pub fn to_text(transformations: &TransformationCatalog, replicas: &ReplicaCatalog) -> String {
    let mut out = String::from("# pegasus-wms catalogs: transformations and replicas\n");
    let mut w = Writer::new(&mut out);
    let mut names = transformations.names();
    names.sort();
    for name in &names {
        let t = transformations.get(name).expect("listed entry exists");
        w.kw("transformation")
            .word("requires", &t.requires.join(","))
            .f64("install-cost", t.install_cost_per_pkg)
            .word("installable", if t.installable { "true" } else { "false" })
            .tail("name", name)
            .end();
    }
    for (file, sites) in replicas.iter() {
        let sites = sites.join(",");
        w.kw("replica")
            .word("sites", &sites)
            .tail("file", file)
            .end();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::paper_catalogs;
    use crate::error::Span;

    const SAMPLE: &str = "
# the paper's cap3 step
transformation requires=python,biopython,cap3 install-cost=45 installable=true name=run_cap3
replica sites=submit,sandhills file=transcripts.fasta
";

    #[test]
    fn parses_the_sample() {
        let b = parse(SAMPLE).unwrap();
        let t = b.transformations.get("run_cap3").unwrap();
        assert_eq!(t.requires, ["python", "biopython", "cap3"]);
        assert_eq!(t.install_cost_per_pkg, 45.0);
        assert!(t.installable);
        assert!(b.replicas.has_replica("transcripts.fasta", "submit"));
        assert!(b.replicas.has_replica("transcripts.fasta", "sandhills"));
        assert!(!b.replicas.has_replica("transcripts.fasta", "osg"));
    }

    #[test]
    fn round_trip_writes_what_it_reads() {
        let (_, tc) = paper_catalogs();
        let mut rc = ReplicaCatalog::new();
        rc.register("transcripts.fasta", "submit");
        let text = to_text(&tc, &rc);
        let back = parse(&text).unwrap();
        for name in tc.names() {
            assert_eq!(back.transformations.get(&name), tc.get(&name), "{name}");
        }
        assert_eq!(
            back.replicas.iter().collect::<Vec<_>>(),
            [("transcripts.fasta", vec!["submit"])]
        );
        assert_eq!(to_text(&back.transformations, &back.replicas), text);
    }

    #[test]
    fn a_later_entry_replaces_an_earlier_one() {
        let text = "replica sites=a file=f\nreplica sites=b file=f\n\
                    transformation requires= install-cost=1 installable=true name=t\n\
                    transformation requires=x install-cost=2 installable=false name=t\n";
        let b = parse(text).unwrap();
        assert_eq!(b.replicas.iter().collect::<Vec<_>>(), [("f", vec!["b"])]);
        let t = b.transformations.get("t").unwrap();
        assert_eq!((t.requires.len(), t.install_cost_per_pkg), (1, 2.0));
    }

    #[test]
    fn an_empty_name_is_refused() {
        for entry in [
            "replica sites=a file=",
            "transformation requires= install-cost=1 installable=true name=",
        ] {
            let e = parse(entry).unwrap_err().to_string();
            assert!(
                e.ends_with("line 1: empty file") || e.ends_with("line 1: empty name"),
                "{e}"
            );
        }
    }

    #[test]
    fn an_ini_file_is_refused_at_its_first_section() {
        let ini = "# old\n\n[site x]\nshared_fs = true\n";
        let WmsError::Parse {
            format,
            span,
            reason,
            ..
        } = parse(ini).unwrap_err()
        else {
            panic!("not a parse error");
        };
        assert_eq!((format, span), (Format::Catalog, Span::line(3)));
        assert_eq!(
            reason,
            "\"[site\" is not a catalog entry (transformation or replica); \
             site facts belong in --sites"
        );
    }
}
