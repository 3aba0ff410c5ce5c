//! Site-definition lint pass: the E05xx rules of `pegasus lint`.
//!
//! [`lint_sites`] checks a parsed slice of [`SiteDef`]s (as produced
//! by [`crate::sites::parse_defs`], which deliberately performs no
//! cross-definition checks so the defects survive to be reported
//! here) and returns [`Diagnostic`]s in the shared
//! [`pegasus_wms::lint`] vocabulary:
//!
//! * `E0501 duplicate-site` — a site name declared twice;
//! * `E0502 duplicate-alias` — an alias declared for more than one
//!   site (or twice for the same one);
//! * `E0503 alias-shadows-site` — an alias colliding with a declared
//!   site name, which would make resolution ambiguous;
//! * `E0504 slots-out-of-range` — a site's slot count outside
//!   [`crate::sites::SLOTS`]: with none it can never run a job, and
//!   past the ceiling the backend's slot table outgrows any need;
//! * `E0505 negative-site-parameter` — a negative rate, delay, or
//!   factor (the simulator clamps samples, but a negative knob is
//!   always a typo);
//! * `E0506 undefined-site-reference` — a `catalog-site=` target that
//!   names no defined site or alias;
//! * `E0507 site-def-syntax` — not raised here: it is the code
//!   [`crate::sites::parse_defs`]' own refusals carry (a parsed slice
//!   by definition has no syntax errors).
//!
//! The pass lives in `gridsim` rather than the core crate because the
//! [`SiteDef`] vocabulary does; the core `lint` module only defines
//! the rule registry entries.

use crate::sites::{SiteDef, SLOTS};
use pegasus_wms::lint::Diagnostic;

/// Lints parsed site definitions; `file` labels diagnostics, which
/// point at the lines [`crate::sites::parse_defs`] read each
/// definition from (a definition built in code has none).
///
/// Deterministic: diagnostics come out in definition order, one pass
/// per rule family, no I/O.
pub fn lint_sites(defs: &[SiteDef], file: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    check_duplicate_sites(defs, file, &mut diags);
    check_aliases(defs, file, &mut diags);
    for def in defs {
        check_slots(def, file, &mut diags);
        check_negative_parameters(def, file, &mut diags);
        check_catalog_reference(defs, def, file, &mut diags);
    }
    diags
}

/// `E0501`: the same primary name declared twice.
fn check_duplicate_sites(defs: &[SiteDef], file: &str, diags: &mut Vec<Diagnostic>) {
    for (idx, def) in defs.iter().enumerate() {
        if defs[..idx].iter().any(|d| d.name == def.name) {
            diags.push(
                Diagnostic::new(
                    "E0501",
                    file,
                    def.span("site"),
                    format!("site {:?} declared twice", def.name),
                )
                .with_help("later fields silently override the earlier definition's"),
            );
        }
    }
}

/// `E0502` and `E0503`: aliases colliding with other aliases or with
/// declared site names.
fn check_aliases(defs: &[SiteDef], file: &str, diags: &mut Vec<Diagnostic>) {
    let mut seen: Vec<(&str, &str)> = Vec::new(); // (alias, owning site)
    for def in defs {
        let span = def.span("aliases");
        for alias in &def.aliases {
            if let Some(site) = defs.iter().find(|d| d.name == *alias) {
                diags.push(
                    Diagnostic::new(
                        "E0503",
                        file,
                        span,
                        format!(
                            "alias {alias:?} of site {:?} shadows declared site {:?}",
                            def.name, site.name
                        ),
                    )
                    .with_help("drop the alias or rename one of the sites"),
                );
            }
            if let Some((_, owner)) = seen.iter().find(|(a, _)| a == alias) {
                let msg = if *owner == def.name {
                    format!("alias {alias:?} declared twice for site {owner:?}")
                } else {
                    format!(
                        "alias {alias:?} declared for both {owner:?} and {:?}",
                        def.name
                    )
                };
                diags.push(Diagnostic::new("E0502", file, span, msg));
            } else {
                seen.push((alias, &def.name));
            }
        }
    }
}

/// `E0504`: a slot count outside [`SLOTS`].
fn check_slots(def: &SiteDef, file: &str, diags: &mut Vec<Diagnostic>) {
    let slots = def.slots.to_string();
    if !SLOTS.admits(&slots) {
        let refusal = SLOTS.refusal("slots", &slots);
        diags.push(Diagnostic::new(
            "E0504",
            file,
            def.span("slots"),
            format!("site {:?}: {refusal}", def.name),
        ));
    }
}

/// `E0505`: negative rates, delays, and factors.
fn check_negative_parameters(def: &SiteDef, file: &str, diags: &mut Vec<Diagnostic>) {
    let mut knobs: Vec<(&str, f64)> = vec![
        ("startup-delay", def.startup_delay),
        ("install-factor", def.install_time_factor),
        ("preemption-rate", def.preemption_rate),
        ("jitter", def.runtime_jitter_sigma),
        ("task-overhead", def.task_overhead),
        ("cpu-speed", def.cpu_speed),
        ("bandwidth", def.bandwidth_bps),
    ];
    if let Some(churn) = def.churn {
        knobs.push(("churn", churn.mean_up.min(churn.mean_down)));
    }
    for (key, value) in knobs {
        if value < 0.0 {
            diags.push(Diagnostic::new(
                "E0505",
                file,
                def.span(key),
                format!("site {:?} sets {key}={value}, which is negative", def.name),
            ));
        }
    }
}

/// `E0506`: a `catalog-site` target that resolves to nothing.
fn check_catalog_reference(
    defs: &[SiteDef],
    def: &SiteDef,
    file: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(target) = &def.catalog_site else {
        return;
    };
    let defined = defs
        .iter()
        .any(|d| d.name == *target || d.aliases.iter().any(|a| a == target));
    if !defined {
        diags.push(
            Diagnostic::new(
                "E0506",
                file,
                def.span("catalog-site"),
                format!(
                    "site {:?} references undefined catalog-site {target:?}",
                    def.name
                ),
            )
            .with_help("catalog-site must name another site (or alias) in the same file"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::parse_defs;

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn lint(text: &str) -> Vec<Diagnostic> {
        let defs = parse_defs(text).expect("fixture parses");
        lint_sites(&defs, "test.def")
    }

    #[test]
    fn builtin_defs_lint_clean() {
        let diags = lint(crate::sites::BUILTIN_SITES_DEF);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn duplicate_site_is_flagged_at_the_second_header() {
        let diags = lint("site a\nslots=2\n\nsite a\nslots=3\n");
        assert_eq!(codes(&diags), vec!["E0501"]);
        assert_eq!(diags[0].span.line, 4);
    }

    #[test]
    fn duplicate_alias_across_and_within_sites() {
        let diags = lint("site a\naliases=x,x\n\nsite b\naliases=x\n");
        assert_eq!(codes(&diags), vec!["E0502", "E0502"]);
        assert_eq!(diags[0].span.line, 2);
        assert_eq!(diags[1].span.line, 5);
    }

    #[test]
    fn alias_shadowing_a_site_name() {
        let diags = lint("site a\n\nsite b\naliases=a\n");
        assert_eq!(codes(&diags), vec!["E0503"]);
        assert_eq!(diags[0].span.line, 4);
    }

    #[test]
    fn zero_slots_points_at_the_slots_line() {
        let diags = lint("site a\nslots=0\n");
        assert_eq!(codes(&diags), vec!["E0504"]);
        assert_eq!(diags[0].span.line, 2);
    }

    #[test]
    fn slots_past_the_ceiling_are_out_of_range_and_the_ceiling_is_not() {
        assert!(lint("site a\nslots=1000000\n").is_empty());
        let diags = lint("site a\nslots=1000001\n");
        assert_eq!(codes(&diags), vec!["E0504"]);
        assert_eq!(diags[0].span.line, 2);
        let want = "site \"a\": slots must be in 1..=1000000, not \"1000001\"";
        assert_eq!(diags[0].message, want);
    }

    #[test]
    fn negative_parameters_name_the_key() {
        let diags = lint("site a\nstartup-delay=-5\njitter=-0.1\n");
        assert_eq!(codes(&diags), vec!["E0505", "E0505"]);
        assert!(diags[0].message.contains("startup-delay"));
        assert!(diags[1].message.contains("jitter"));
        assert_eq!(diags[0].span.line, 2);
        assert_eq!(diags[1].span.line, 3);
    }

    #[test]
    fn negative_churn_is_flagged() {
        let diags = lint("site a\nchurn=100,-1\n");
        assert_eq!(codes(&diags), vec!["E0505"]);
        assert!(diags[0].message.contains("churn"));
    }

    #[test]
    fn undefined_catalog_site_reference() {
        let diags = lint("site a\ncatalog-site=ghost\n");
        assert_eq!(codes(&diags), vec!["E0506"]);
        assert_eq!(diags[0].span.line, 2);
    }

    #[test]
    fn catalog_site_via_alias_is_accepted() {
        let diags = lint("site a\naliases=base\n\nsite b\ncatalog-site=base\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn a_definition_built_in_code_lints_with_unknown_spans() {
        let mut def = SiteDef::new("a");
        def.slots = 0;
        def.runtime_jitter_sigma = -0.1;
        let diags = lint_sites(&[def.clone(), def], "<defs>");
        assert_eq!(
            codes(&diags),
            vec!["E0501", "E0504", "E0505", "E0504", "E0505"]
        );
        assert!(diags.iter().all(|d| d.span.is_none()), "{diags:?}");
    }

    #[test]
    fn a_key_the_file_never_set_points_at_the_header() {
        // install-factor defaults to 1; nothing wrong with it, but a
        // rule about an unset key has only the header to point at.
        let defs = parse_defs("\n# two blank-ish lines\nsite a\nslots=2\n").unwrap();
        assert_eq!(defs[0].span("site").line, 3);
        assert_eq!(defs[0].span("slots").line, 4);
        assert_eq!(defs[0].span("install-factor").line, 3);
    }
}
