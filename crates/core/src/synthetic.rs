//! Synthetic benchmark workflows.
//!
//! The Pegasus community evaluates WMS machinery on a standard set of
//! application shapes (the "workflow gallery" of Bharathi et al.,
//! *Characterization of Scientific Workflows*, WORKS 2008). This
//! module generates simplified but structurally faithful versions of
//! the four classics, so scheduling and platform experiments are not
//! limited to the blast2cap3 shape:
//!
//! * [`montage`] — astronomy mosaicking: wide fan-out, dense pairwise
//!   fit layer, heavy fan-in;
//! * [`cybershake`] — earthquake science: two big data sources feeding
//!   a very wide two-stage fan-out;
//! * [`epigenomics`] — genome methylation: parallel deep chains merged
//!   per lane, then globally;
//! * [`ligo_inspiral`] — gravitational-wave search: grouped fan-in
//!   pyramids.
//!
//! Runtime hints follow the relative magnitudes reported in the
//! characterisation paper (seconds on a reference core).

use crate::symbols::Args;
use crate::workflow::{AbstractWorkflow, Declare};

/// Declares one gallery job, `<transformation><suffix>` by name: no
/// arguments, files of unknown size. The file names are formatted by
/// the caller and borrowed for the call; the file table keeps the
/// only copy.
fn job<'n>(
    rows: &mut Declare<'_>,
    (transformation, suffix): (&str, &str),
    runtime: f64,
    inputs: impl IntoIterator<Item = &'n str>,
    outputs: impl IntoIterator<Item = &'n str>,
) {
    let id = format!("{transformation}{suffix}");
    let inputs = inputs.into_iter().map(|name| (name, 0));
    let outputs = outputs.into_iter().map(|name| (name, 0));
    rows.job(id, transformation, Args::new(), runtime, inputs, outputs)
        .expect("a shape's job ids are distinct");
}

/// File names that must all be alive at once: a fan-in's inputs.
fn names(n: usize, name: impl Fn(usize) -> String) -> Vec<String> {
    (0..n).map(name).collect()
}

fn strs(names: &[String]) -> impl Iterator<Item = &str> {
    names.iter().map(String::as_str)
}

/// Montage with `n` input images: `n` reprojections, ~`3n/2` pairwise
/// fits, a concat+model fan-in, `n` background corrections, and the
/// final image chain.
///
/// ```
/// use pegasus_wms::synthetic::montage;
///
/// let wf = montage(10);
/// assert_eq!(wf.jobs.len(), 36);
/// assert!(wf.validate().is_ok());
/// assert_eq!(wf.width().unwrap(), 10); // the projection fan-out
/// ```
pub fn montage(n: usize) -> AbstractWorkflow {
    let n = n.max(2);
    let mut wf = AbstractWorkflow::new(format!("montage_{n}"));
    let rows = &mut wf.declare();
    let proj = names(n, |i| format!("proj_{i}.fits"));
    for (i, out) in strs(&proj).enumerate() {
        let (of, input) = (format!("_{i}"), format!("input_{i}.fits"));
        job(rows, ("mProjectPP", &of), 15.0, [&*input], [out]);
    }
    // Pairwise overlap fits between adjacent projections (ring).
    let diffs = names(n, |i| format!("diff_{i}_{}.fits", (i + 1) % n));
    for (i, out) in strs(&diffs).enumerate() {
        let j = (i + 1) % n;
        let pair = [&*proj[i], &*proj[j]];
        job(rows, ("mDiffFit", &format!("_{i}_{j}")), 10.0, pair, [out]);
    }
    job(rows, ("mConcatFit", ""), 45.0, strs(&diffs), ["fits.tbl"]);
    job(
        rows,
        ("mBgModel", ""),
        60.0,
        ["fits.tbl"],
        ["corrections.tbl"],
    );
    let corrected = names(n, |i| format!("corrected_{i}.fits"));
    for (i, out) in strs(&corrected).enumerate() {
        let inputs = [&*proj[i], "corrections.tbl"];
        job(rows, ("mBackground", &format!("_{i}")), 12.0, inputs, [out]);
    }
    job(
        rows,
        ("mImgtbl", ""),
        20.0,
        strs(&corrected),
        ["images.tbl"],
    );
    job(rows, ("mAdd", ""), 120.0, ["images.tbl"], ["mosaic.fits"]);
    job(
        rows,
        ("mShrink", ""),
        30.0,
        ["mosaic.fits"],
        ["shrunken.fits"],
    );
    job(rows, ("mJPEG", ""), 5.0, ["shrunken.fits"], ["mosaic.jpg"]);
    wf
}

/// CyberShake with `n` variation pairs: two `ExtractSGT` sources, `n`
/// `SeismogramSynthesis` + `n` `PeakValCalc` jobs, two zip fan-ins.
pub fn cybershake(n: usize) -> AbstractWorkflow {
    let n = n.max(1);
    let mut wf = AbstractWorkflow::new(format!("cybershake_{n}"));
    let rows = &mut wf.declare();
    let sub_sgt = names(2, |s| format!("sub_sgt_{s}.bin"));
    for (s, out) in strs(&sub_sgt).enumerate() {
        let (of, input) = (format!("_{s}"), format!("sgt_{s}.bin"));
        job(rows, ("ExtractSGT", &of), 110.0, [&*input], [out]);
    }
    let seis = names(n, |i| format!("seis_{i}.grm"));
    let peaks = names(n, |i| format!("peak_{i}.bsa"));
    for i in 0..n {
        let (of, source) = (format!("_{i}"), [&*sub_sgt[i % 2]]);
        job(
            rows,
            ("SeismogramSynthesis", &of),
            48.0,
            source,
            [&*seis[i]],
        );
        job(rows, ("PeakValCalc", &of), 1.0, [&*seis[i]], [&*peaks[i]]);
    }
    job(
        rows,
        ("ZipSeis", ""),
        30.0,
        strs(&seis),
        ["seismograms.zip"],
    );
    job(rows, ("ZipPSA", ""), 25.0, strs(&peaks), ["peaks.zip"]);
    wf
}

/// Epigenomics with `lanes` sequencing lanes of `chains` parallel
/// filter→convert→map chains each.
pub fn epigenomics(lanes: usize, chains: usize) -> AbstractWorkflow {
    const STAGES: [(&str, f64); 4] = [
        ("filterContams", 2.0),
        ("sol2sanger", 1.0),
        ("fastq2bfq", 2.0),
        ("map", 110.0),
    ];
    let (lanes, chains) = (lanes.max(1), chains.max(1));
    let mut wf = AbstractWorkflow::new(format!("epigenomics_{lanes}x{chains}"));
    let rows = &mut wf.declare();
    let lane_maps = names(lanes, |l| format!("lane_{l}.map"));
    for (l, lane_map) in strs(&lane_maps).enumerate() {
        let (of, lane) = (format!("_{l}"), format!("lane_{l}.fastq"));
        // Each chain's newest file: its chunk, then each stage's output.
        let mut heads = names(chains, |c| format!("chunk_{l}_{c}.fastq"));
        job(rows, ("fastqSplit", &of), 35.0, [&*lane], strs(&heads));
        for (c, head) in heads.iter_mut().enumerate() {
            for (stage, cost) in STAGES {
                let out = format!("{stage}_{l}_{c}.out");
                job(
                    rows,
                    (stage, &format!("_{l}_{c}")),
                    cost,
                    [&**head],
                    [&*out],
                );
                *head = out;
            }
        }
        job(rows, ("mapMerge", &of), 60.0, strs(&heads), [lane_map]);
    }
    job(
        rows,
        ("mapMerge", "Global"),
        120.0,
        strs(&lane_maps),
        ["all.map"],
    );
    job(rows, ("maqIndex", ""), 45.0, ["all.map"], ["all.index"]);
    job(
        rows,
        ("pileup", ""),
        55.0,
        ["all.index"],
        ["methylation.txt"],
    );
    wf
}

/// LIGO Inspiral with `groups` groups of `per_group` templates each:
/// TmpltBank → Inspiral → per-group Thinca fan-in → TrigBank →
/// Inspiral2 → final Thinca.
pub fn ligo_inspiral(groups: usize, per_group: usize) -> AbstractWorkflow {
    let (groups, per_group) = (groups.max(1), per_group.max(1));
    let mut wf = AbstractWorkflow::new(format!("inspiral_{groups}x{per_group}"));
    let rows = &mut wf.declare();
    let second_pass = names(groups, |g| format!("insp2_{g}.xml"));
    for (g, insp2) in strs(&second_pass).enumerate() {
        let first_pass = names(per_group, |i| format!("insp_{g}_{i}.xml"));
        for (i, insp) in strs(&first_pass).enumerate() {
            let (data, bank) = (format!("gwdata_{g}_{i}.gwf"), format!("bank_{g}_{i}.xml"));
            let of = format!("_{g}_{i}");
            job(rows, ("TmpltBank", &of), 18.0, [&*data], [&*bank]);
            job(rows, ("Inspiral", &of), 460.0, [&*bank], [insp]);
        }
        let (thinca, trigbank) = (format!("thinca_{g}.xml"), format!("trigbank_{g}.xml"));
        let of = format!("_{g}");
        job(rows, ("Thinca", &of), 6.0, strs(&first_pass), [&*thinca]);
        job(rows, ("TrigBank", &of), 5.0, [&*thinca], [&*trigbank]);
        job(
            rows,
            ("Inspiral", &format!("2_{g}")),
            450.0,
            [&*trigbank],
            [insp2],
        );
    }
    let found = ["triggers.xml"];
    job(rows, ("Thinca", "_final"), 10.0, strs(&second_pass), found);
    wf
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected Montage job count for `n` images.
    fn montage_job_count(n: usize) -> usize {
        let n = n.max(2);
        n + n + 1 + 1 + n + 1 + 1 + 1 + 1
    }

    /// Expected CyberShake job count for `n` pairs.
    fn cybershake_job_count(n: usize) -> usize {
        2 + 2 * n.max(1) + 2
    }

    /// Expected Epigenomics job count.
    fn epigenomics_job_count(lanes: usize, chains: usize) -> usize {
        let (lanes, chains) = (lanes.max(1), chains.max(1));
        lanes * (1 + 4 * chains + 1) + 3
    }

    /// Expected LIGO Inspiral job count.
    fn ligo_job_count(groups: usize, per_group: usize) -> usize {
        let (g, p) = (groups.max(1), per_group.max(1));
        g * (2 * p + 3) + 1
    }

    #[test]
    fn montage_counts_and_shape() {
        for n in [2usize, 8, 20] {
            let wf = montage(n);
            assert_eq!(wf.jobs.len(), montage_job_count(n), "n={n}");
            wf.validate().unwrap();
            // Projections are roots; mJPEG is the single sink.
            let outs = wf.final_outputs(&wf.dataflow());
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0].1.name, "mosaic.jpg");
            assert_eq!(wf.width().unwrap(), n);
        }
    }

    #[test]
    fn cybershake_counts_and_shape() {
        let wf = cybershake(10);
        assert_eq!(wf.jobs.len(), cybershake_job_count(10));
        wf.validate().unwrap();
        // Dominated by the synthesis fan-out.
        assert!(wf.width().unwrap() >= 10);
        let (cp, _) = wf.critical_path().unwrap();
        // source + synthesis + peak + zip on the longest chain.
        assert!(cp >= 110.0 + 48.0 + 1.0 + 25.0);
    }

    #[test]
    fn epigenomics_counts_and_depth() {
        let wf = epigenomics(2, 4);
        assert_eq!(wf.jobs.len(), epigenomics_job_count(2, 4));
        wf.validate().unwrap();
        // Depth: split + 4 chain stages + lane merge + global merge +
        // index + pileup = 9 levels.
        let depth = wf.levels().unwrap().into_iter().max().unwrap() + 1;
        assert_eq!(depth, 9);
    }

    #[test]
    fn ligo_counts_and_fan_in() {
        let wf = ligo_inspiral(3, 5);
        assert_eq!(wf.jobs.len(), ligo_job_count(3, 5));
        wf.validate().unwrap();
        let sink = wf.job_by_name("Thinca_final").unwrap();
        let edges = wf.edges().unwrap();
        let fan_in = edges.iter().filter(|&&(_, c)| c == sink).count();
        assert_eq!(fan_in, 3, "one edge per group");
    }

    #[test]
    fn degenerate_sizes_are_clamped() {
        assert!(montage(0).validate().is_ok());
        assert!(cybershake(0).validate().is_ok());
        assert!(epigenomics(0, 0).validate().is_ok());
        assert!(ligo_inspiral(0, 0).validate().is_ok());
    }

    #[test]
    fn all_shapes_round_trip_through_dax() {
        for wf in [
            montage(6),
            cybershake(6),
            epigenomics(2, 3),
            ligo_inspiral(2, 3),
        ] {
            let back = crate::dax::from_dax(&crate::dax::to_dax(&wf)).unwrap();
            assert_eq!(back.jobs.len(), wf.jobs.len());
            assert_eq!(back.edges().unwrap(), wf.edges().unwrap());
        }
    }
}
