//! File-based task kernels.
//!
//! The real Pegasus workflow communicates through files in the site
//! work directory; these kernels do the same, so the `condor` local
//! pool can execute the blast2cap3 DAG with genuine file dataflow:
//! each function reads its declared inputs from `workdir` and writes
//! its declared outputs there, mirroring the logical file names of
//! [`crate::workflow::build_workflow`].
//!
//! No kernel reads a whole input file: each streams its inputs one
//! record or line at a time, so a task holds only the records it uses
//! (`run_cap3` keeps its chunk's transcripts, `split` one best hit per
//! transcript). Every output is written through
//! [`bioseq::output::replace`], so a failed task leaves no partial one.

use crate::cluster::BestHits;
use crate::split::{split_clusters, Chunk};
use crate::tasks::{renumbered, run_cap3_chunk, TranscriptDict};
use bioseq::fasta;
use bioseq::output::replace;
use blastx::tabular;
use cap3::Cap3Params;
use std::collections::HashSet;
use std::fmt::Display;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Logical file names used inside the work directory.
pub mod names {
    /// Workflow input: the redundant transcript set.
    pub const TRANSCRIPTS: &str = "transcripts.fasta";
    /// Workflow input: the BLASTX tabular output.
    pub const ALIGNMENTS: &str = "alignments.out";
    /// `list_transcripts` output.
    pub(crate) const TRANSCRIPTS_DICT: &str = "transcripts_dict.txt";
    /// `list_alignments` output.
    pub(crate) const ALIGNMENTS_LIST: &str = "alignments_list.txt";
    /// `split` outputs (`protein_<i>.txt`).
    pub(crate) fn protein_chunk(i: usize) -> String {
        format!("protein_{i}.txt")
    }
    /// `run_cap3` contig outputs.
    pub(crate) fn joined(i: usize) -> String {
        format!("joined_{i}.fasta")
    }
    /// `run_cap3` joined-id outputs.
    pub(crate) fn joined_ids(i: usize) -> String {
        format!("joined_ids_{i}.txt")
    }
    /// `merge` outputs.
    pub(crate) const JOINED_ALL: &str = "joined_all.fasta";
    /// `merge` joined-id union.
    pub(crate) const JOINED_IDS_ALL: &str = "joined_ids_all.txt";
    /// Final protein-guided assembly.
    pub const FINAL: &str = "final.fasta";
}

fn io_err<E: Display>(what: impl Display) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Serialises chunks as one `protein<TAB>tx1,tx2,...` line per cluster.
pub(crate) fn chunk_to_tsv(chunk: &Chunk) -> String {
    let mut out = String::new();
    for (protein, members) in &chunk.clusters {
        out.push_str(protein);
        out.push('\t');
        out.push_str(&members.join(","));
        out.push('\n');
    }
    out
}

/// Parses the chunk TSV format.
pub(crate) fn chunk_from_tsv(text: &str) -> Result<Chunk, String> {
    let mut clusters = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (protein, members) = line
            .split_once('\t')
            .ok_or_else(|| format!("chunk line {}: missing tab", i + 1))?;
        let members: Vec<String> = members
            .split(',')
            .filter(|m| !m.is_empty())
            .map(String::from)
            .collect();
        clusters.push((protein.to_string(), members));
    }
    Ok(Chunk { clusters })
}

/// `list_transcripts`: dedupes `transcripts.fasta` into the
/// transcript dictionary file, writing the first record of each id as
/// it is read.
pub fn task_list_transcripts(workdir: &Path) -> Result<(), String> {
    let reading = io_err("reading transcripts.fasta");
    let mut transcripts =
        fasta::Reader::open(workdir.join(names::TRANSCRIPTS)).map_err(&reading)?;
    let writing = "writing transcripts_dict.txt";
    replace(workdir.join(names::TRANSCRIPTS_DICT), |w| {
        let mut seen = HashSet::new();
        while let Some(rec) = transcripts.next_record().map_err(&reading)? {
            if seen.insert(rec.id.clone()) {
                fasta::write_record(&mut *w, &rec).map_err(io_err(writing))?;
            }
        }
        Ok(())
    })
    .map_err(io_err(writing))?
}

/// `list_alignments`: validates `alignments.out` and re-emits it as
/// the alignment list artifact, one record at a time.
pub fn task_list_alignments(workdir: &Path) -> Result<(), String> {
    let reading = io_err("reading alignments.out");
    let mut hits = tabular::Reader::open(workdir.join(names::ALIGNMENTS)).map_err(&reading)?;
    let writing = "writing alignments_list.txt";
    replace(workdir.join(names::ALIGNMENTS_LIST), |w| {
        while let Some(rec) = hits.next_record().map_err(&reading)? {
            tabular::write_record(&mut *w, &rec).map_err(io_err(writing))?;
        }
        Ok(())
    })
    .map_err(io_err(writing))?
}

/// `split -n <n>`: clusters by best hit and writes `n` chunk files
/// (`protein_0.txt` .. `protein_{n-1}.txt`); when there are fewer
/// clusters than `n`, trailing chunk files are written empty so every
/// downstream `run_cap3_i` finds its input. The alignment list is
/// streamed: only each transcript's best hit is held.
pub fn task_split(workdir: &Path, n: usize) -> Result<(), String> {
    let reading = io_err("reading alignments_list.txt");
    let mut hits = tabular::Reader::open(workdir.join(names::ALIGNMENTS_LIST)).map_err(&reading)?;
    let mut best = BestHits::default();
    while let Some(rec) = hits.next_record().map_err(&reading)? {
        best.add(rec.query_id, rec.subject_id, rec.bit_score);
    }
    let chunks = split_clusters(&best.into_clusters(), n);
    for i in 0..n.max(1) {
        let name = names::protein_chunk(i);
        let text = chunks.get(i).map(chunk_to_tsv).unwrap_or_default();
        replace(workdir.join(&name), |w| w.write_all(text.as_bytes()))
            .and_then(|r| r)
            .map_err(io_err(format!("writing {name}")))?;
    }
    Ok(())
}

/// `run_cap3 <i>`: assembles chunk `i` and writes its contigs and the
/// ids of merged transcripts. Of the dictionary it keeps only the
/// records the chunk names, the first of each id.
pub fn task_run_cap3(workdir: &Path, i: usize, params: &Cap3Params) -> Result<(), String> {
    let reading = io_err("reading transcripts_dict.txt");
    let mut dict_file =
        fasta::Reader::open(workdir.join(names::TRANSCRIPTS_DICT)).map_err(&reading)?;
    let chunk_text = std::fs::read_to_string(workdir.join(names::protein_chunk(i)))
        .map_err(io_err("reading protein chunk"))?;
    let chunk = chunk_from_tsv(&chunk_text)?;
    let mut wanted: HashSet<&str> = chunk
        .clusters
        .iter()
        .flat_map(|(_, members)| members.iter().map(String::as_str))
        .collect();
    let mut records = Vec::new();
    while let Some(rec) = dict_file
        .next_where(|id| wanted.remove(id))
        .map_err(&reading)?
    {
        records.push(rec);
    }
    let out = run_cap3_chunk(&TranscriptDict::new(&records), &chunk.clusters, params);
    fasta::write_file(workdir.join(names::joined(i)), &out.contigs)
        .map_err(io_err("writing joined fasta"))?;
    replace(workdir.join(names::joined_ids(i)), |w| {
        out.joined_ids.iter().try_for_each(|id| writeln!(w, "{id}"))
    })
    .and_then(|r| r)
    .map_err(io_err("writing joined ids"))
}

/// `merge -n <n>`: concatenates the per-chunk contigs (renumbering
/// globally) and unions the joined-id lists, copying each chunk's
/// files through as it reads them.
pub fn task_merge(workdir: &Path, n: usize) -> Result<(), String> {
    let mut merged = 0;
    let writing_ids = "writing joined_ids_all.txt";
    let writing = "writing joined_all.fasta";
    replace(workdir.join(names::JOINED_IDS_ALL), |ids_all| {
        replace(workdir.join(names::JOINED_ALL), |joined_all| {
            for i in 0..n.max(1) {
                let name = names::joined(i);
                let reading = io_err(format!("reading {name}"));
                let mut contigs = fasta::Reader::open(workdir.join(&name)).map_err(&reading)?;
                while let Some(contig) = contigs.next_record().map_err(&reading)? {
                    merged += 1;
                    fasta::write_record(&mut *joined_all, &renumbered(merged, contig))
                        .map_err(io_err(writing))?;
                }
                let name = names::joined_ids(i);
                let reading = io_err(format!("reading {name}"));
                let ids = File::open(workdir.join(&name)).map_err(&reading)?;
                for id in BufReader::new(ids).lines() {
                    writeln!(ids_all, "{}", id.map_err(&reading)?).map_err(io_err(writing_ids))?;
                }
            }
            Ok(())
        })
        .map_err(io_err(writing))?
    })
    .map_err(io_err(writing_ids))?
}

/// `extract_unjoined`: emits the final assembly — merged contigs
/// followed by every transcript that joined nothing, both streamed.
pub fn task_extract_unjoined(workdir: &Path) -> Result<(), String> {
    let reading = io_err("reading transcripts_dict.txt");
    let mut dict_file =
        fasta::Reader::open(workdir.join(names::TRANSCRIPTS_DICT)).map_err(&reading)?;
    let reading_merged = io_err("reading joined_all.fasta");
    let mut joined_all =
        fasta::Reader::open(workdir.join(names::JOINED_ALL)).map_err(&reading_merged)?;
    let ids_text = std::fs::read_to_string(workdir.join(names::JOINED_IDS_ALL))
        .map_err(io_err("reading joined_ids_all.txt"))?;
    let joined: HashSet<&str> = ids_text.lines().collect();
    let writing = "writing final.fasta";
    replace(workdir.join(names::FINAL), |w| {
        while let Some(rec) = joined_all.next_record().map_err(&reading_merged)? {
            fasta::write_record(&mut *w, &rec).map_err(io_err(writing))?;
        }
        while let Some(rec) = dict_file
            .next_where(|id| !joined.contains(id))
            .map_err(&reading)?
        {
            fasta::write_record(&mut *w, &rec).map_err(io_err(writing))?;
        }
        Ok(())
    })
    .map_err(io_err(writing))?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::run_serial;
    use bioseq::fasta::Record;
    use bioseq::seq::DnaSeq;
    use blastx::tabular::TabularRecord;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn random_template(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| bioseq::alphabet::DNA_BASES[rng.gen_range(0..4)])
            .collect()
    }

    fn rec(id: &str, bytes: &[u8]) -> Record {
        Record::new(id, "", DnaSeq::from_ascii(bytes).unwrap())
    }

    fn aln(q: &str, s: &str) -> TabularRecord {
        TabularRecord {
            query_id: q.into(),
            subject_id: s.into(),
            percent_identity: 98.0,
            length: 100,
            mismatches: 2,
            gap_opens: 0,
            q_start: 1,
            q_end: 300,
            s_start: 1,
            s_end: 100,
            evalue: 1e-40,
            bit_score: 200.0,
        }
    }

    fn workload(families: usize) -> (Vec<Record>, Vec<TabularRecord>) {
        let mut transcripts = Vec::new();
        let mut alignments = Vec::new();
        for f in 0..families {
            let t = random_template(500 + f as u64, 400);
            for (k, range) in [(0usize, 0..250), (1, 120..370), (2, 150..400)] {
                let id = format!("f{f}_t{k}");
                transcripts.push(rec(&id, &t[range]));
                alignments.push(aln(&id, &format!("p{f}")));
            }
        }
        transcripts.push(rec("orphan", &random_template(999, 150)));
        (transcripts, alignments)
    }

    fn fresh_workdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("blast2cap3_files_tests")
            .join(format!("{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Runs the full kernel sequence, as the workflow engine would.
    fn run_all_kernels(workdir: &Path, n: usize) {
        task_list_transcripts(workdir).unwrap();
        task_list_alignments(workdir).unwrap();
        task_split(workdir, n).unwrap();
        for i in 0..n {
            task_run_cap3(workdir, i, &Cap3Params::default()).unwrap();
        }
        task_merge(workdir, n).unwrap();
        task_extract_unjoined(workdir).unwrap();
    }

    #[test]
    fn chunk_tsv_round_trip() {
        let chunk = Chunk {
            clusters: vec![
                ("pA".into(), vec!["t1".into(), "t2".into()]),
                ("pB".into(), vec!["t3".into()]),
            ],
        };
        let text = chunk_to_tsv(&chunk);
        assert_eq!(text, "pA\tt1,t2\npB\tt3\n");
        assert_eq!(chunk_from_tsv(&text).unwrap(), chunk);
        assert!(chunk_from_tsv("no tab here").is_err());
        assert_eq!(chunk_from_tsv("").unwrap().clusters.len(), 0);
    }

    #[test]
    fn file_pipeline_matches_in_memory_serial() {
        let (transcripts, alignments) = workload(4);
        let workdir = fresh_workdir("match_serial");
        fasta::write_file(workdir.join(names::TRANSCRIPTS), &transcripts).unwrap();
        blastx::tabular::write_file(workdir.join(names::ALIGNMENTS), &alignments).unwrap();

        run_all_kernels(&workdir, 3);

        let final_records = fasta::read_file(workdir.join(names::FINAL)).unwrap();
        let serial = run_serial(&transcripts, &alignments, &Cap3Params::default());
        assert_eq!(final_records.len(), serial.output.len());
        let seqs_file: BTreeSet<Vec<u8>> = final_records
            .iter()
            .map(|r| r.seq.as_bytes().to_vec())
            .collect();
        let seqs_mem: BTreeSet<Vec<u8>> = serial
            .output
            .iter()
            .map(|r| r.seq.as_bytes().to_vec())
            .collect();
        assert_eq!(seqs_file, seqs_mem);
        std::fs::remove_dir_all(&workdir).ok();
    }

    #[test]
    fn split_pads_empty_chunks_to_n() {
        let (transcripts, alignments) = workload(2); // only 2 clusters
        let workdir = fresh_workdir("padding");
        fasta::write_file(workdir.join(names::TRANSCRIPTS), &transcripts).unwrap();
        blastx::tabular::write_file(workdir.join(names::ALIGNMENTS), &alignments).unwrap();
        task_list_transcripts(&workdir).unwrap();
        task_list_alignments(&workdir).unwrap();
        task_split(&workdir, 5).unwrap();
        for i in 0..5 {
            assert!(
                workdir.join(names::protein_chunk(i)).exists(),
                "chunk {i} missing"
            );
        }
        // Empty chunks still process cleanly.
        for i in 0..5 {
            task_run_cap3(&workdir, i, &Cap3Params::default()).unwrap();
        }
        task_merge(&workdir, 5).unwrap();
        task_extract_unjoined(&workdir).unwrap();
        let final_records = fasta::read_file(workdir.join(names::FINAL)).unwrap();
        // 2 families of 3 overlapping tx -> 2 contigs, plus the orphan.
        assert_eq!(final_records.len(), 3);
        std::fs::remove_dir_all(&workdir).ok();
    }

    #[test]
    fn orphan_transcripts_survive_to_final() {
        let (transcripts, alignments) = workload(1);
        let workdir = fresh_workdir("orphan");
        fasta::write_file(workdir.join(names::TRANSCRIPTS), &transcripts).unwrap();
        blastx::tabular::write_file(workdir.join(names::ALIGNMENTS), &alignments).unwrap();
        run_all_kernels(&workdir, 1);
        let final_records = fasta::read_file(workdir.join(names::FINAL)).unwrap();
        assert!(final_records.iter().any(|r| r.id == "orphan"));
        assert!(final_records.iter().any(|r| r.id.starts_with("Contig")));
        std::fs::remove_dir_all(&workdir).ok();
    }

    #[test]
    fn missing_inputs_produce_informative_errors() {
        let workdir = fresh_workdir("missing");
        let err = task_list_transcripts(&workdir).unwrap_err();
        assert!(err.contains("transcripts.fasta"), "err={err}");
        let err = task_run_cap3(&workdir, 0, &Cap3Params::default()).unwrap_err();
        assert!(err.contains("transcripts_dict"), "err={err}");
        std::fs::remove_dir_all(&workdir).ok();
    }

    #[test]
    fn a_chunk_member_missing_from_the_dictionary_is_skipped() {
        let (transcripts, alignments) = workload(1);
        let workdir = fresh_workdir("stale");
        fasta::write_file(workdir.join(names::TRANSCRIPTS), &transcripts).unwrap();
        blastx::tabular::write_file(workdir.join(names::ALIGNMENTS), &alignments).unwrap();
        task_list_transcripts(&workdir).unwrap();
        std::fs::write(
            workdir.join(names::protein_chunk(0)),
            "p0\tf0_t0,ghost,f0_t1,f0_t2\n",
        )
        .unwrap();
        task_run_cap3(&workdir, 0, &Cap3Params::default()).unwrap();
        let contigs = fasta::read_file(workdir.join(names::joined(0))).unwrap();
        assert_eq!(contigs.len(), 1, "the three real members still assemble");
        let ids = std::fs::read_to_string(workdir.join(names::joined_ids(0))).unwrap();
        let mut ids: Vec<&str> = ids.lines().collect();
        ids.sort_unstable();
        assert_eq!(ids, ["f0_t0", "f0_t1", "f0_t2"]);
        std::fs::remove_dir_all(&workdir).ok();
    }

    #[test]
    fn a_bad_base_no_chunk_wants_fails_the_run_at_extract_unjoined() {
        let (transcripts, alignments) = workload(2);
        let workdir = fresh_workdir("bad_base");
        fasta::write_file(workdir.join(names::TRANSCRIPTS), &transcripts).unwrap();
        blastx::tabular::write_file(workdir.join(names::ALIGNMENTS), &alignments).unwrap();
        task_list_transcripts(&workdir).unwrap();
        task_list_alignments(&workdir).unwrap();
        task_split(&workdir, 2).unwrap();
        let dict = workdir.join(names::TRANSCRIPTS_DICT);
        let mut text = std::fs::read_to_string(&dict).unwrap();
        text.push_str(">poison\nACGZ\n");
        std::fs::write(&dict, text).unwrap();
        for i in 0..2 {
            task_run_cap3(&workdir, i, &Cap3Params::default()).unwrap();
        }
        task_merge(&workdir, 2).unwrap();
        let err = task_extract_unjoined(&workdir).unwrap_err();
        assert!(err.contains("transcripts_dict.txt"), "err={err}");
        assert!(err.contains("poison"), "err={err}");
        assert!(
            !workdir.join(names::FINAL).exists(),
            "no partial final.fasta"
        );
        assert!(!workdir.join("final.fasta.part").exists());
        std::fs::remove_dir_all(&workdir).ok();
    }

    #[test]
    fn a_malformed_transcripts_file_leaves_no_dictionary() {
        let workdir = fresh_workdir("malformed");
        let good = rec("good", &random_template(1, 20_000));
        let text = fasta::to_string(&[good]) + ">bad\nACGZ\n";
        std::fs::write(workdir.join(names::TRANSCRIPTS), text).unwrap();
        let err = task_list_transcripts(&workdir).unwrap_err();
        assert!(err.contains("transcripts.fasta"), "err={err}");
        assert_eq!(
            left_in(&workdir),
            [names::TRANSCRIPTS],
            "nothing but the input is left"
        );
        std::fs::remove_dir_all(&workdir).ok();
    }

    /// The sorted names of every entry of `workdir`.
    fn left_in(workdir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(workdir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// Tabular text of `alignments` followed by one row with a bad
    /// bit score, at line `alignments.len() + 1`.
    fn with_malformed_row(alignments: &[TabularRecord]) -> String {
        let mut text: String = alignments.iter().map(|a| a.to_line() + "\n").collect();
        text.push_str("f0_t0\tp0\t98.00\t100\t2\t0\t1\t300\t1\t100\t1e-40\tbits\n");
        text
    }

    #[test]
    fn a_malformed_hit_line_fails_list_alignments_and_split_leaving_nothing() {
        // Enough rows that a partial output would have been flushed.
        let (_, alignments) = workload(60);
        let bad_line = format!("line {}", alignments.len() + 1);
        let workdir = fresh_workdir("malformed_hits");
        std::fs::write(
            workdir.join(names::ALIGNMENTS),
            with_malformed_row(&alignments),
        )
        .unwrap();
        let err = task_list_alignments(&workdir).unwrap_err();
        assert!(err.contains("alignments.out"), "err={err}");
        assert!(err.contains(&bad_line), "err={err}");
        assert_eq!(left_in(&workdir), [names::ALIGNMENTS]);

        std::fs::rename(
            workdir.join(names::ALIGNMENTS),
            workdir.join(names::ALIGNMENTS_LIST),
        )
        .unwrap();
        let err = task_split(&workdir, 4).unwrap_err();
        assert!(err.contains("alignments_list.txt"), "err={err}");
        assert!(err.contains(&bad_line), "err={err}");
        assert_eq!(left_in(&workdir), [names::ALIGNMENTS_LIST]);
        std::fs::remove_dir_all(&workdir).ok();
    }

    #[test]
    fn a_missing_chunk_assembly_fails_merge_naming_it_and_leaves_nothing() {
        let (transcripts, alignments) = workload(40);
        let workdir = fresh_workdir("missing_joined");
        fasta::write_file(workdir.join(names::TRANSCRIPTS), &transcripts).unwrap();
        blastx::tabular::write_file(workdir.join(names::ALIGNMENTS), &alignments).unwrap();
        task_list_transcripts(&workdir).unwrap();
        task_list_alignments(&workdir).unwrap();
        task_split(&workdir, 3).unwrap();
        for i in 0..3 {
            task_run_cap3(&workdir, i, &Cap3Params::default()).unwrap();
        }
        let before = left_in(&workdir);
        std::fs::remove_file(workdir.join(names::joined(2))).unwrap();
        let err = task_merge(&workdir, 3).unwrap_err();
        assert!(err.contains("joined_2.fasta"), "err={err}");
        let err = task_extract_unjoined(&workdir).unwrap_err();
        assert!(err.contains("joined_all.fasta"), "err={err}");
        let left = left_in(&workdir);
        let gone: Vec<&String> = before.iter().filter(|n| !left.contains(n)).collect();
        let made: Vec<&String> = left.iter().filter(|n| !before.contains(n)).collect();
        assert_eq!(gone, [&names::joined(2)]);
        assert!(made.is_empty(), "merge and extract_unjoined left {made:?}");
        std::fs::remove_dir_all(&workdir).ok();
    }
}
