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

use crate::symbols::Name;
use crate::workflow::{AbstractWorkflow, Job, LogicalFile};

fn f(name: impl Into<Name>) -> LogicalFile {
    LogicalFile::named(name)
}

/// Montage with `n` input images: `n` reprojections, ~`3n/2` pairwise
/// fits, a concat+model fan-in, `n` background corrections, and the
/// final image chain.
///
/// ```
/// use pegasus_wms::synthetic::{montage, montage_job_count};
///
/// let wf = montage(10);
/// assert_eq!(wf.jobs.len(), montage_job_count(10));
/// assert!(wf.validate().is_ok());
/// assert_eq!(wf.width().unwrap(), 10); // the projection fan-out
/// ```
pub fn montage(n: usize) -> AbstractWorkflow {
    let n = n.max(2);
    let mut wf = AbstractWorkflow::new(format!("montage_{n}"));
    let mut batch = Vec::with_capacity(montage_job_count(n));
    for i in 0..n {
        batch.push(
            Job::new(format!("mProjectPP_{i}"), "mProjectPP")
                .input(f(format!("input_{i}.fits")))
                .output(f(format!("proj_{i}.fits")))
                .runtime(15.0),
        );
    }
    // Pairwise overlap fits between adjacent projections (ring).
    let mut diff_outputs = Vec::new();
    for i in 0..n {
        let j = (i + 1) % n;
        let out = format!("diff_{i}_{j}.fits");
        batch.push(
            Job::new(format!("mDiffFit_{i}_{j}"), "mDiffFit")
                .input(f(format!("proj_{i}.fits")))
                .input(f(format!("proj_{j}.fits")))
                .output(f(&out))
                .runtime(10.0),
        );
        diff_outputs.push(out);
    }
    let mut concat = Job::new("mConcatFit", "mConcatFit")
        .output(f("fits.tbl"))
        .runtime(45.0);
    for d in &diff_outputs {
        concat = concat.input(f(d));
    }
    batch.push(concat);
    batch.push(
        Job::new("mBgModel", "mBgModel")
            .input(f("fits.tbl"))
            .output(f("corrections.tbl"))
            .runtime(60.0),
    );
    for i in 0..n {
        batch.push(
            Job::new(format!("mBackground_{i}"), "mBackground")
                .input(f(format!("proj_{i}.fits")))
                .input(f("corrections.tbl"))
                .output(f(format!("corrected_{i}.fits")))
                .runtime(12.0),
        );
    }
    let mut imgtbl = Job::new("mImgtbl", "mImgtbl")
        .output(f("images.tbl"))
        .runtime(20.0);
    for i in 0..n {
        imgtbl = imgtbl.input(f(format!("corrected_{i}.fits")));
    }
    batch.push(imgtbl);
    batch.push(
        Job::new("mAdd", "mAdd")
            .input(f("images.tbl"))
            .output(f("mosaic.fits"))
            .runtime(120.0),
    );
    batch.push(
        Job::new("mShrink", "mShrink")
            .input(f("mosaic.fits"))
            .output(f("shrunken.fits"))
            .runtime(30.0),
    );
    batch.push(
        Job::new("mJPEG", "mJPEG")
            .input(f("shrunken.fits"))
            .output(f("mosaic.jpg"))
            .runtime(5.0),
    );
    wf.add_jobs(batch).expect("fresh ids");
    wf
}

/// Expected Montage job count for `n` images.
pub fn montage_job_count(n: usize) -> usize {
    let n = n.max(2);
    n + n + 1 + 1 + n + 1 + 1 + 1 + 1
}

/// CyberShake with `n` variation pairs: two `ExtractSGT` sources, `n`
/// `SeismogramSynthesis` + `n` `PeakValCalc` jobs, two zip fan-ins.
pub fn cybershake(n: usize) -> AbstractWorkflow {
    let n = n.max(1);
    let mut wf = AbstractWorkflow::new(format!("cybershake_{n}"));
    let mut batch = Vec::with_capacity(cybershake_job_count(n));
    for s in 0..2 {
        batch.push(
            Job::new(format!("ExtractSGT_{s}"), "ExtractSGT")
                .input(f(format!("sgt_{s}.bin")))
                .output(f(format!("sub_sgt_{s}.bin")))
                .runtime(110.0),
        );
    }
    let mut zip_seis = Job::new("ZipSeis", "ZipSeis")
        .output(f("seismograms.zip"))
        .runtime(30.0);
    let mut zip_psa = Job::new("ZipPSA", "ZipPSA")
        .output(f("peaks.zip"))
        .runtime(25.0);
    for i in 0..n {
        let src = i % 2;
        batch.push(
            Job::new(format!("SeismogramSynthesis_{i}"), "SeismogramSynthesis")
                .input(f(format!("sub_sgt_{src}.bin")))
                .output(f(format!("seis_{i}.grm")))
                .runtime(48.0),
        );
        batch.push(
            Job::new(format!("PeakValCalc_{i}"), "PeakValCalc")
                .input(f(format!("seis_{i}.grm")))
                .output(f(format!("peak_{i}.bsa")))
                .runtime(1.0),
        );
        zip_seis = zip_seis.input(f(format!("seis_{i}.grm")));
        zip_psa = zip_psa.input(f(format!("peak_{i}.bsa")));
    }
    batch.push(zip_seis);
    batch.push(zip_psa);
    wf.add_jobs(batch).expect("fresh ids");
    wf
}

/// Expected CyberShake job count for `n` pairs.
pub fn cybershake_job_count(n: usize) -> usize {
    2 + 2 * n.max(1) + 2
}

/// Epigenomics with `lanes` sequencing lanes of `chains` parallel
/// filter→convert→map chains each.
pub fn epigenomics(lanes: usize, chains: usize) -> AbstractWorkflow {
    let (lanes, chains) = (lanes.max(1), chains.max(1));
    let mut wf = AbstractWorkflow::new(format!("epigenomics_{lanes}x{chains}"));
    let mut batch = Vec::with_capacity(epigenomics_job_count(lanes, chains));
    let mut global_merge = Job::new("mapMergeGlobal", "mapMerge")
        .output(f("all.map"))
        .runtime(120.0);
    for l in 0..lanes {
        let mut split = Job::new(format!("fastqSplit_{l}"), "fastqSplit")
            .input(f(format!("lane_{l}.fastq")))
            .runtime(35.0);
        for c in 0..chains {
            split = split.output(f(format!("chunk_{l}_{c}.fastq")));
        }
        batch.push(split);
        let mut lane_merge = Job::new(format!("mapMerge_{l}"), "mapMerge")
            .output(f(format!("lane_{l}.map")))
            .runtime(60.0);
        for c in 0..chains {
            let stages = [
                ("filterContams", 2.0),
                ("sol2sanger", 1.0),
                ("fastq2bfq", 2.0),
                ("map", 110.0),
            ];
            let mut prev = format!("chunk_{l}_{c}.fastq");
            for (stage, cost) in stages {
                let out = format!("{stage}_{l}_{c}.out");
                batch.push(
                    Job::new(format!("{stage}_{l}_{c}"), stage)
                        .input(f(&prev))
                        .output(f(&out))
                        .runtime(cost),
                );
                prev = out;
            }
            lane_merge = lane_merge.input(f(&prev));
        }
        batch.push(lane_merge);
        global_merge = global_merge.input(f(format!("lane_{l}.map")));
    }
    batch.push(global_merge);
    batch.push(
        Job::new("maqIndex", "maqIndex")
            .input(f("all.map"))
            .output(f("all.index"))
            .runtime(45.0),
    );
    batch.push(
        Job::new("pileup", "pileup")
            .input(f("all.index"))
            .output(f("methylation.txt"))
            .runtime(55.0),
    );
    wf.add_jobs(batch).expect("fresh ids");
    wf
}

/// Expected Epigenomics job count.
pub fn epigenomics_job_count(lanes: usize, chains: usize) -> usize {
    let (lanes, chains) = (lanes.max(1), chains.max(1));
    lanes * (1 + 4 * chains + 1) + 3
}

/// LIGO Inspiral with `groups` groups of `per_group` templates each:
/// TmpltBank → Inspiral → per-group Thinca fan-in → TrigBank →
/// Inspiral2 → final Thinca.
pub fn ligo_inspiral(groups: usize, per_group: usize) -> AbstractWorkflow {
    let (groups, per_group) = (groups.max(1), per_group.max(1));
    let mut wf = AbstractWorkflow::new(format!("inspiral_{groups}x{per_group}"));
    let mut batch = Vec::with_capacity(ligo_job_count(groups, per_group));
    let mut final_thinca = Job::new("Thinca_final", "Thinca")
        .output(f("triggers.xml"))
        .runtime(10.0);
    for g in 0..groups {
        let mut thinca = Job::new(format!("Thinca_{g}"), "Thinca")
            .output(f(format!("thinca_{g}.xml")))
            .runtime(6.0);
        for i in 0..per_group {
            batch.push(
                Job::new(format!("TmpltBank_{g}_{i}"), "TmpltBank")
                    .input(f(format!("gwdata_{g}_{i}.gwf")))
                    .output(f(format!("bank_{g}_{i}.xml")))
                    .runtime(18.0),
            );
            batch.push(
                Job::new(format!("Inspiral_{g}_{i}"), "Inspiral")
                    .input(f(format!("bank_{g}_{i}.xml")))
                    .output(f(format!("insp_{g}_{i}.xml")))
                    .runtime(460.0),
            );
            thinca = thinca.input(f(format!("insp_{g}_{i}.xml")));
        }
        batch.push(thinca);
        batch.push(
            Job::new(format!("TrigBank_{g}"), "TrigBank")
                .input(f(format!("thinca_{g}.xml")))
                .output(f(format!("trigbank_{g}.xml")))
                .runtime(5.0),
        );
        batch.push(
            Job::new(format!("Inspiral2_{g}"), "Inspiral")
                .input(f(format!("trigbank_{g}.xml")))
                .output(f(format!("insp2_{g}.xml")))
                .runtime(450.0),
        );
        final_thinca = final_thinca.input(f(format!("insp2_{g}.xml")));
    }
    batch.push(final_thinca);
    wf.add_jobs(batch).expect("fresh ids");
    wf
}

/// Expected LIGO Inspiral job count.
pub fn ligo_job_count(groups: usize, per_group: usize) -> usize {
    let (g, p) = (groups.max(1), per_group.max(1));
    g * (2 * p + 3) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn montage_counts_and_shape() {
        for n in [2usize, 8, 20] {
            let wf = montage(n);
            assert_eq!(wf.jobs.len(), montage_job_count(n), "n={n}");
            wf.validate().unwrap();
            // Projections are roots; mJPEG is the single sink.
            let outs = wf.final_outputs();
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0].name, "mosaic.jpg");
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
