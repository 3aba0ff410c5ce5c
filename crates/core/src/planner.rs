//! The planner: mapping an abstract workflow onto a concrete site.
//!
//! Planning turns logical jobs into an *executable workflow*:
//!
//! * a `create_dir` job materialises the site work directory;
//! * `stage_in` jobs transfer external input files that the replica
//!   catalog says are absent from the target site;
//! * compute jobs gain a **download/install phase** when the site
//!   lacks packages the transformation requires — this is precisely
//!   how the paper's Fig. 2 (Sandhills, everything preinstalled)
//!   becomes Fig. 3 (OSG, red install rectangles on every task);
//! * `stage_out` jobs return final outputs to the submit host;
//! * optional *horizontal clustering* merges small same-transformation
//!   jobs on the same DAG level, Pegasus's remote-overhead reduction.

use crate::catalog::{ReplicaCatalog, Site, SiteCatalog, TransformationCatalog};
use crate::error::WmsError;
use crate::graph::Csr;
use crate::symbols::{Args, Name};
use crate::workflow::{AbstractWorkflow, FileId, FileUse, JobId, Readers};
use std::collections::HashMap;
use std::fmt::Write;

/// The role of an executable job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Creates the site-side working directory.
    CreateDir,
    /// Transfers an input file to the site.
    StageIn,
    /// Runs a (possibly clustered) transformation.
    Compute,
    /// Transfers a final output back to the submit host.
    StageOut,
    /// Removes the site-side working directory after stage-out.
    Cleanup,
}

impl JobKind {
    /// The kind's word in every text format.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            JobKind::CreateDir => "create_dir",
            JobKind::StageIn => "stage_in",
            JobKind::Compute => "compute",
            JobKind::StageOut => "stage_out",
            JobKind::Cleanup => "cleanup",
        }
    }
}

impl std::fmt::Display for JobKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A planned, site-bound job.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutableJob {
    /// Index within the executable workflow.
    pub id: JobId,
    /// Unique display name, e.g. `"stage_in_alignments.out"`; a
    /// compute job shares its abstract job's id.
    pub name: Name,
    /// Transformation name (for compute jobs) or an auxiliary-kind
    /// marker (`"pegasus::transfer"`, `"pegasus::dirmanager"`).
    pub transformation: Name,
    /// Role of the job.
    pub kind: JobKind,
    /// Arguments (compute jobs share their abstract arguments).
    pub args: Args,
    /// Estimated execution seconds on a reference core.
    pub runtime_hint: f64,
    /// Seconds of download/install required before execution on this
    /// site (0 when the software is preinstalled).
    pub install_hint: f64,
}

/// A planned workflow bound to one execution site.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutableWorkflow {
    /// Workflow name, carried from the abstract workflow.
    pub name: String,
    /// Target site handle.
    pub site: String,
    /// Planned jobs; [`JobId`]s index into this.
    pub jobs: Vec<ExecutableJob>,
    /// Dependency edges (parent, child), deduped and sorted.
    pub edges: Vec<(JobId, JobId)>,
}

impl ExecutableWorkflow {
    /// Child adjacency in CSR form: `children().neighbors(j)` is `j`'s
    /// child slice, `children().degree(j)` its outdegree in O(1).
    pub fn children(&self) -> Csr {
        Csr::forward(self.jobs.len(), &self.edges)
    }

    /// Number of jobs of each kind.
    pub fn counts_by_kind(&self) -> HashMap<JobKind, usize> {
        let mut m = HashMap::new();
        for j in &self.jobs {
            *m.entry(j.kind).or_insert(0) += 1;
        }
        m
    }

    /// Sum of install hints across all jobs — the total extra work a
    /// software-bare site imposes.
    pub fn total_install_time(&self) -> f64 {
        self.jobs.iter().map(|j| j.install_hint).sum()
    }

    /// Kahn topological order.
    ///
    /// The planner only produces DAGs, but this is exposed to engines
    /// and tests that may assemble executable workflows by hand.
    ///
    /// # Errors
    /// Returns [`WmsError::InvariantViolation`] when the edge set is
    /// cyclic, naming every job stuck on or behind the cycle.
    pub fn topological_order(&self) -> Result<Vec<JobId>, WmsError> {
        self.children().topological_order().map_err(|stuck| {
            let stuck: Vec<&str> = (stuck.iter())
                .map(|j| self.jobs[j.idx()].name.as_str())
                .collect();
            WmsError::InvariantViolation {
                invariant: "executable workflow is a DAG".into(),
                detail: format!("cycle through {}", stuck.join(", ")),
            }
        })
    }

    /// Graphviz dot rendering (compute ovals, install-annotated jobs
    /// as Fig. 3-style boxes, transfers as diamonds).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph workflow {\n  rankdir=TB;\n");
        for j in &self.jobs {
            let shape = match j.kind {
                JobKind::Compute if j.install_hint > 0.0 => "box",
                JobKind::Compute => "ellipse",
                JobKind::StageIn | JobKind::StageOut => "diamond",
                JobKind::CreateDir | JobKind::Cleanup => "folder",
            };
            let color = (j.install_hint > 0.0).then_some("red");
            out.push_str(&crate::csv::dot_node(j.id, &j.name, shape, color));
        }
        for &(p, c) in &self.edges {
            out.push_str(&crate::csv::dot_edge(p, c));
        }
        out.push_str("}\n");
        out
    }
}

/// Planner options.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Site to bind the workflow to.
    pub(crate) target_site: String,
    /// Insert the leading `create_dir` job.
    pub add_create_dir: bool,
    /// Insert stage-in/stage-out transfer jobs based on the replica
    /// catalog.
    pub stage_data: bool,
    /// Horizontal clustering factor: merge up to this many
    /// same-transformation jobs on one DAG level into one clustered
    /// job. `None` disables clustering.
    pub cluster_factor: Option<usize>,
    /// Workflow reduction (Pegasus "data reuse"): prune jobs whose
    /// outputs the replica catalog already provides, cascading to
    /// producers that become dead.
    pub data_reuse: bool,
    /// Append a cleanup job that removes the site work directory once
    /// all stage-outs complete.
    pub add_cleanup: bool,
}

impl PlannerConfig {
    /// Default options for a site.
    pub fn for_site(site: impl Into<String>) -> Self {
        PlannerConfig {
            target_site: site.into(),
            add_create_dir: true,
            stage_data: true,
            cluster_factor: None,
            data_reuse: false,
            add_cleanup: false,
        }
    }
}

/// Workflow reduction (Pegasus's data-reuse step): removes every job
/// whose outputs are all already replicated at `site` (or on the
/// submit host), then cascades upward — a producer all of whose
/// consumers were removed, and whose outputs are not workflow-final,
/// is dead and removed too. Files that lose their producer become
/// external inputs, so the staging logic fetches them from the
/// replicas instead.
pub fn reduce_workflow(
    wf: &AbstractWorkflow,
    replicas: &ReplicaCatalog,
    site: &str,
) -> Result<AbstractWorkflow, WmsError> {
    // One catalog lookup per distinct file, not per use.
    let available: Vec<bool> = (wf.files().iter())
        .map(|(_, f)| replicas.has_replica(f, site) || replicas.has_replica(f, "submit"))
        .collect();
    let all_outputs_available = |job: JobId| {
        let outputs = wf.outputs(job);
        !outputs.is_empty() && outputs.ids().iter().all(|f| available[f.idx()])
    };
    let n = wf.jobs.len();
    // Pass 1: outputs already available.
    let mut removed: Vec<bool> = wf.job_ids().map(all_outputs_available).collect();
    // Pass 2: cascade upward over the reverse topological order.
    let (view, order) = wf.checked()?;
    let consumers = &view.children;
    let is_final = |f: &FileId| view.readers[f.idx()] == Readers::Nobody;
    for &i in order.iter().rev() {
        if removed[i.idx()] {
            continue;
        }
        let produces_final = wf.outputs(i).ids().iter().any(is_final);
        let has_consumers = consumers.degree(i) > 0;
        let all_consumers_removed = (consumers.neighbors(i).iter()).all(|&c| removed[c.idx()]);
        if !produces_final && has_consumers && all_consumers_removed || all_outputs_available(i) {
            removed[i.idx()] = true;
        }
    }
    let mut out = AbstractWorkflow::new(wf.name.clone());
    let kept = removed.iter().filter(|&&r| !r).count();
    out.reserve(
        kept,
        wf.use_count(),
        wf.files().len(),
        wf.files().text_len(),
    );
    // Old index -> new id, so explicit edges remap in O(1).
    let mut new_id: Vec<Option<JobId>> = vec![None; n];
    let mut rows = out.declare();
    for i in wf.job_ids().filter(|i| !removed[i.idx()]) {
        new_id[i.idx()] = Some(rows.copy(wf, i)?);
    }
    drop(rows);
    for &(p, c) in &wf.explicit_edges {
        if let (Some(np), Some(nc)) = (new_id[p.idx()], new_id[c.idx()]) {
            out.add_edge(np, nc)?;
        }
    }
    out.validate()?;
    Ok(out)
}

/// Horizontal clustering: merges same-level, same-transformation jobs
/// into groups of at most `factor`, summing runtimes and unioning file
/// sets. Returns a new abstract workflow; `factor <= 1` returns a
/// clone.
///
/// Groups are taken in `(level, transformation)` order, each in job
/// order. A group of one keeps its job as it stands; a larger one
/// becomes `cluster_<transformation>_<level>_<i>`, of its first
/// member's transformation, with the members' arguments and outputs
/// one after the other, their runtimes summed in member order, and
/// their inputs once per `(file, size)` — less those a member of the
/// same cluster produces. A merged name that another job already
/// holds is [`WmsError::DuplicateJob`].
pub fn cluster_workflow(
    wf: &AbstractWorkflow,
    factor: usize,
) -> Result<AbstractWorkflow, WmsError> {
    if factor <= 1 {
        return Ok(wf.clone());
    }
    let levels = wf.levels()?;
    // Group job indices by (level, transformation).
    let mut groups: HashMap<(usize, &str), Vec<JobId>> = HashMap::new();
    for (i, job) in wf.job_ids().zip(&wf.jobs) {
        let key = (levels[i.idx()], job.transformation.as_str());
        groups.entry(key).or_default().push(i);
    }
    let mut keys: Vec<(usize, &str)> = groups.keys().copied().collect();
    keys.sort();
    let mut out = AbstractWorkflow::new(wf.name.clone());
    let jobs = groups.values().map(|g| g.len().div_ceil(factor)).sum();
    out.reserve(
        jobs,
        wf.use_count(),
        wf.files().len(),
        wf.files().text_len(),
    );
    // Old job index -> new (possibly merged) job id.
    let mut new_id_of: Vec<JobId> = vec![JobId::default(); wf.jobs.len()];
    // A merged job is gathered in buffers kept from one cluster to the
    // next, its files by `wf`'s ids and declared by their text.
    let files = wf.files();
    let by_name = |&(f, size): &(FileId, u64)| (files.resolve(f), size);
    let (mut name, mut args) = (String::new(), Vec::new());
    let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
    let mut produced = vec![false; files.len()];
    let mut rows = out.declare();
    for key in keys {
        for (ci, batch) in groups[&key].chunks(factor).enumerate() {
            if let [single] = *batch {
                new_id_of[single.idx()] = rows.copy(wf, single)?;
                continue;
            }
            args.clear();
            inputs.clear();
            outputs.clear();
            let mut runtime = 0.0;
            for &m in batch {
                let job = wf.job(m);
                runtime += job.runtime_hint;
                args.extend_from_slice(&job.args);
                for f in wf.inputs(m).iter() {
                    let f = (f.file, f.size_bytes);
                    if !inputs.contains(&f) {
                        inputs.push(f);
                    }
                }
                outputs.extend(wf.outputs(m).iter().map(|f| (f.file, f.size_bytes)));
            }
            // Inputs produced inside the cluster are internal.
            for &(f, _) in &outputs {
                produced[f.idx()] = true;
            }
            inputs.retain(|&(f, _)| !produced[f.idx()]);
            for &(f, _) in &outputs {
                produced[f.idx()] = false;
            }
            name.clear();
            let _ = write!(name, "cluster_{}_{}_{}", key.1, key.0, ci);
            let (id, transformation) = (name.as_str(), wf.job(batch[0]).transformation.clone());
            let (ins, outs) = (inputs.iter().map(by_name), outputs.iter().map(by_name));
            let merged = rows.job(
                id,
                transformation,
                Args::from(&args[..]),
                runtime,
                ins,
                outs,
            )?;
            for &m in batch {
                new_id_of[m.idx()] = merged;
            }
        }
    }
    drop(rows);
    // Remap explicit edges.
    for &(p, c) in &wf.explicit_edges {
        let (np, nc) = (new_id_of[p.idx()], new_id_of[c.idx()]);
        if np != nc {
            out.add_edge(np, nc)?;
        }
    }
    out.validate()?;
    Ok(out)
}

/// Plans `abstract_wf` onto the configured site.
#[inline]
pub fn plan(
    abstract_wf: &AbstractWorkflow,
    sites: &SiteCatalog,
    transformations: &TransformationCatalog,
    replicas: &ReplicaCatalog,
    config: &PlannerConfig,
) -> Result<ExecutableWorkflow, WmsError> {
    // This wrapper and the scope are inlined into the caller, so the
    // scope's two clock reads sit at the call itself. Planning a few
    // dozen jobs takes some 30 µs, and the cold jump into this crate
    // used to come before the scope opened: 0.3–0.5 µs that a clock
    // around the call saw and the scope did not.
    let _prof = crate::prof::scope("plan");
    plan_in_scope(abstract_wf, sites, transformations, replicas, config)
}

#[inline(never)]
fn plan_in_scope(
    abstract_wf: &AbstractWorkflow,
    sites: &SiteCatalog,
    transformations: &TransformationCatalog,
    replicas: &ReplicaCatalog,
    config: &PlannerConfig,
) -> Result<ExecutableWorkflow, WmsError> {
    let site = sites.get(&config.target_site).ok_or_else(|| {
        let mut known = sites.names();
        known.sort();
        WmsError::UnknownSite {
            site: config.target_site.clone(),
            known,
        }
    })?;
    // No upfront `validate()` and no `clone()` of the abstract workflow
    // when no transform rewrites it: reduce/cluster validate what they
    // build, and the workflow that is planned is judged below, on the
    // one view its edges are read from.
    let reduced;
    let pre_cluster = if config.data_reuse {
        reduced = reduce_workflow(abstract_wf, replicas, &config.target_site)?;
        &reduced
    } else {
        abstract_wf
    };
    let clustered;
    let wf = match config.cluster_factor {
        Some(k) => {
            clustered = cluster_workflow(pre_cluster, k)?;
            &clustered
        }
        None => pre_cluster,
    };

    // What the plan reads of the dependency structure, read off one
    // view that is gone before the plan's own tables grow: held across
    // them, its ≈ 90 bytes a job sit under the plan on the heap and
    // the high-water mark rises by twice that (EXPERIMENTS.md E29).
    // The verdict is raised in step 4, where it has always been.
    let (external_inputs, final_outputs, dependencies, verdict) = {
        let view = wf.dataflow();
        let external_inputs = wf.external_inputs(&view);
        let final_outputs = wf.final_outputs(&view);
        let verdict = wf.order_of(&view).map(|_| ());
        (external_inputs, final_outputs, view.edges, verdict)
    };

    let mut jobs: Vec<ExecutableJob> = Vec::with_capacity(wf.jobs.len() + 8);
    let mut edges: Vec<(JobId, JobId)> = Vec::new();
    let push = |jobs: &mut Vec<ExecutableJob>, mut j: ExecutableJob| -> JobId {
        let id = JobId::new(jobs.len());
        j.id = id;
        jobs.push(j);
        id
    };
    // The planner names only the handful of auxiliary jobs it adds;
    // every compute job shares its abstract job's handles.
    let auxiliary =
        |name: String, transformation: &Name, kind, args: Args, runtime_hint| ExecutableJob {
            id: JobId::default(),
            name: name.into(),
            transformation: transformation.clone(),
            kind,
            args,
            runtime_hint,
            install_hint: 0.0,
        };
    let transfer = Name::from("pegasus::transfer");
    // A stage-in or stage-out job moves one file, named in its one
    // argument.
    let transfer_job = |prefix: &str, kind, f: FileUse<'_>| {
        auxiliary(
            format!("{prefix}{}", f.name),
            &transfer,
            kind,
            Args::from([Name::from(f.name)]),
            transfer_seconds(f.size_bytes, site.bandwidth_bps),
        )
    };

    // 1. create_dir.
    let create_dir = config.add_create_dir.then(|| {
        let dirmanager = Name::from("pegasus::dirmanager");
        let name = format!("create_dir_{}", site.name);
        let job = auxiliary(name, &dirmanager, JobKind::CreateDir, Args::new(), 1.0);
        push(&mut jobs, job)
    });

    // 2. stage-in jobs for external inputs absent from the site, by
    // the workflow's dense file ids.
    let mut stage_in_of: Vec<Option<JobId>> = vec![None; wf.files().len()];
    if config.stage_data {
        for f in external_inputs {
            if replicas.has_replica(f.name, &site.name) {
                continue;
            }
            let id = push(&mut jobs, transfer_job("stage_in_", JobKind::StageIn, f));
            if let Some(cd) = create_dir {
                edges.push((cd, id));
            }
            stage_in_of[f.file.idx()] = Some(id);
        }
    }

    // 3. compute jobs with install phases.
    // Dense abstract-index -> executable-id map (every abstract job
    // plans to exactly one compute job, in order).
    let mut compute_id_of: Vec<JobId> = Vec::with_capacity(wf.jobs.len());
    // A workflow has few transformations and many jobs of each: the
    // install phase is worked out once per transformation.
    let mut install_hint_of: HashMap<&str, f64> = HashMap::new();
    for (aj_id, aj) in wf.job_ids().zip(&wf.jobs) {
        let install_hint = match install_hint_of.get(aj.transformation.as_str()) {
            Some(&hint) => hint,
            None => {
                let hint = install_seconds(transformations, &aj.transformation, site)?;
                install_hint_of.insert(&aj.transformation, hint);
                hint
            }
        };
        let id = push(
            &mut jobs,
            ExecutableJob {
                id: JobId::default(),
                name: aj.id.clone(),
                transformation: aj.transformation.clone(),
                kind: JobKind::Compute,
                args: aj.args.clone(),
                runtime_hint: aj.runtime_hint,
                install_hint,
            },
        );
        compute_id_of.push(id);
        // Stage-in edges.
        for f in wf.inputs(aj_id).ids() {
            if let Some(sid) = stage_in_of[f.idx()] {
                edges.push((sid, id));
            }
        }
        // Root computes depend on create_dir.
        if let Some(cd) = create_dir {
            edges.push((cd, id));
        }
    }

    // 4. abstract dependency edges, once the view they came from is
    // judged free of producer conflicts and cycles.
    verdict?;
    for (p, c) in dependencies {
        edges.push((compute_id_of[p.idx()], compute_id_of[c.idx()]));
    }

    // 5. stage-out jobs for final outputs, each after its producer.
    if config.stage_data {
        for (producer, f) in final_outputs {
            let id = push(&mut jobs, transfer_job("stage_out_", JobKind::StageOut, f));
            edges.push((compute_id_of[producer.idx()], id));
        }
    }

    // 6. cleanup job after every leaf.
    if config.add_cleanup && !jobs.is_empty() {
        let mut has_children = vec![false; jobs.len()];
        for &(p, _) in &edges {
            has_children[p.idx()] = true;
        }
        let leaves: Vec<JobId> = (0..jobs.len())
            .filter(|&i| !has_children[i])
            .map(JobId::new)
            .collect();
        let cleanup = Name::from("pegasus::cleanup");
        let name = format!("cleanup_{}", site.name);
        let job = auxiliary(name, &cleanup, JobKind::Cleanup, Args::new(), 1.0);
        let id = push(&mut jobs, job);
        for l in leaves {
            edges.push((l, id));
        }
    }

    edges.sort_unstable();
    edges.dedup();
    // Drop redundant create_dir->compute edges where another parent
    // already transitively implies them (keep simple: retain; engines
    // tolerate redundant edges).
    Ok(ExecutableWorkflow {
        name: wf.name.clone(),
        site: site.name.clone(),
        jobs,
        edges,
    })
}

/// Seconds of download/install `transformation` needs before it can
/// run at `site`: its missing packages times the per-package cost.
fn install_seconds(
    catalog: &TransformationCatalog,
    transformation: &str,
    site: &Site,
) -> Result<f64, WmsError> {
    let missing = catalog.missing_packages(transformation, site);
    if missing.is_empty() {
        return Ok(0.0);
    }
    let t = catalog
        .get(transformation)
        .expect("missing packages implies catalog entry");
    if !t.installable {
        return Err(WmsError::UnresolvableTransformation {
            transformation: transformation.to_string(),
            site: site.name.clone(),
        });
    }
    Ok(missing.len() as f64 * t.install_cost_per_pkg)
}

/// Transfer time estimate: size over bandwidth with a 1-second floor
/// (connection setup), matching the coarse costs Pegasus planners use.
fn transfer_seconds(size_bytes: u64, bandwidth_bps: f64) -> f64 {
    (size_bytes as f64 / bandwidth_bps.max(1.0)).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::paper_catalogs;
    use crate::workflow::declare_job;

    /// A miniature blast2cap3-shaped workflow: 2 list jobs, split,
    /// n run_cap3, merge, extract_unjoined.
    fn mini_blast2cap3(n: usize) -> AbstractWorkflow {
        let mut wf = AbstractWorkflow::new("blast2cap3");
        let dict = ("transcripts_dict.txt", 0);
        let transcripts = [("transcripts.fasta", 404_000_000)];
        declare_job(
            &mut wf,
            "list_transcripts",
            "list_transcripts",
            120.0,
            &transcripts,
            &[dict],
        );
        let list = ("alignments_list.txt", 0);
        let alignments = [("alignments.out", 155_000_000)];
        declare_job(
            &mut wf,
            "list_alignments",
            "list_alignments",
            90.0,
            &alignments,
            &[list],
        );
        let proteins: Vec<String> = (0..n).map(|i| format!("protein_{i}.txt")).collect();
        let joined: Vec<String> = (0..n).map(|i| format!("joined_{i}.fasta")).collect();
        fn named(names: &[String]) -> Vec<(&str, u64)> {
            names.iter().map(|f| (f.as_str(), 0)).collect()
        }
        declare_job(&mut wf, "split", "split", 60.0, &[list], &named(&proteins));
        for i in 0..n {
            let inputs = [dict, (proteins[i].as_str(), 0)];
            let outputs = [(joined[i].as_str(), 0)];
            declare_job(
                &mut wf,
                &format!("run_cap3_{i}"),
                "run_cap3",
                1000.0,
                &inputs,
                &outputs,
            );
        }
        let all = ("joined_all.fasta", 0);
        declare_job(&mut wf, "merge", "merge", 30.0, &named(&joined), &[all]);
        let finals = [("final.fasta", 0)];
        declare_job(
            &mut wf,
            "extract_unjoined",
            "extract_unjoined",
            45.0,
            &[dict, all],
            &finals,
        );
        wf
    }

    fn catalogs_with_submit_replicas() -> (SiteCatalog, TransformationCatalog, ReplicaCatalog) {
        let (sites, tc) = paper_catalogs();
        let mut rc = ReplicaCatalog::new();
        rc.register("transcripts.fasta", "submit");
        rc.register("alignments.out", "submit");
        (sites, tc, rc)
    }

    #[test]
    fn unknown_site_fails() {
        let (sites, tc, rc) = catalogs_with_submit_replicas();
        let wf = mini_blast2cap3(3);
        let err = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("mars")).unwrap_err();
        assert_eq!(
            err,
            WmsError::UnknownSite {
                site: "mars".into(),
                known: vec!["osg".into(), "sandhills".into()],
            }
        );
    }

    #[test]
    fn sandhills_plan_has_no_install_time() {
        let (sites, tc, rc) = catalogs_with_submit_replicas();
        let wf = mini_blast2cap3(3);
        let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills")).unwrap();
        assert_eq!(exec.total_install_time(), 0.0);
        let counts = exec.counts_by_kind();
        assert_eq!(counts[&JobKind::Compute], 3 + 3 + 2); // lists+split+cap3s+merge+extract = 8
        assert_eq!(counts[&JobKind::StageIn], 2);
        assert_eq!(counts[&JobKind::StageOut], 1);
        assert_eq!(counts[&JobKind::CreateDir], 1);
    }

    #[test]
    fn osg_plan_attaches_install_to_every_compute_job() {
        let (sites, tc, rc) = catalogs_with_submit_replicas();
        let wf = mini_blast2cap3(3);
        let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("osg")).unwrap();
        assert!(exec.total_install_time() > 0.0);
        for j in &exec.jobs {
            match j.kind {
                JobKind::Compute => {
                    assert!(j.install_hint > 0.0, "{} must need install on OSG", j.name)
                }
                _ => assert_eq!(j.install_hint, 0.0),
            }
        }
        // run_cap3 needs 3 packages; list jobs need 1.
        let cap3 = exec.jobs.iter().find(|j| j.name == "run_cap3_0").unwrap();
        let list = exec
            .jobs
            .iter()
            .find(|j| j.name == "list_transcripts")
            .unwrap();
        assert!(cap3.install_hint > list.install_hint);
    }

    #[test]
    fn cyclic_executable_workflow_is_a_typed_error() {
        // Formerly a debug_assert!: release builds used to return a
        // silently truncated order for a cyclic edge set.
        let cyclic = ExecutableWorkflow {
            name: "w".into(),
            site: "test".into(),
            jobs: vec![
                ExecutableJob {
                    id: JobId::new(0),
                    name: "a".into(),
                    transformation: "t".into(),
                    kind: JobKind::Compute,
                    args: Args::new(),
                    runtime_hint: 1.0,
                    install_hint: 0.0,
                },
                ExecutableJob {
                    id: JobId::new(1),
                    name: "b".into(),
                    transformation: "t".into(),
                    kind: JobKind::Compute,
                    args: Args::new(),
                    runtime_hint: 1.0,
                    install_hint: 0.0,
                },
            ],
            edges: vec![
                (JobId::new(0), JobId::new(1)),
                (JobId::new(1), JobId::new(0)),
            ],
        };
        let err = cyclic.topological_order().unwrap_err();
        assert!(
            matches!(err, WmsError::InvariantViolation { .. }),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains('a') && msg.contains('b'), "{msg}");
    }

    #[test]
    fn edges_respect_dataflow_and_staging() {
        let (sites, tc, rc) = catalogs_with_submit_replicas();
        let wf = mini_blast2cap3(2);
        let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills")).unwrap();
        let name_of = |id: JobId| exec.jobs[id.idx()].name.as_str();
        let has_edge = |p: &str, c: &str| {
            exec.edges
                .iter()
                .any(|&(a, b)| name_of(a) == p && name_of(b) == c)
        };
        assert!(has_edge("stage_in_transcripts.fasta", "list_transcripts"));
        assert!(has_edge("stage_in_alignments.out", "list_alignments"));
        assert!(has_edge("list_alignments", "split"));
        assert!(has_edge("split", "run_cap3_0"));
        assert!(has_edge("run_cap3_1", "merge"));
        assert!(has_edge("merge", "extract_unjoined"));
        assert!(has_edge("extract_unjoined", "stage_out_final.fasta"));
        // The planned graph is a DAG covering every job.
        assert_eq!(exec.topological_order().unwrap().len(), exec.jobs.len());
    }

    #[test]
    fn replicas_at_site_suppress_stage_in() {
        let (sites, tc, mut rc) = catalogs_with_submit_replicas();
        rc.register("transcripts.fasta", "sandhills");
        rc.register("alignments.out", "sandhills");
        let wf = mini_blast2cap3(2);
        let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills")).unwrap();
        assert_eq!(exec.counts_by_kind().get(&JobKind::StageIn), None);
    }

    #[test]
    fn staging_can_be_disabled() {
        let (sites, tc, rc) = catalogs_with_submit_replicas();
        let mut cfg = PlannerConfig::for_site("sandhills");
        cfg.stage_data = false;
        cfg.add_create_dir = false;
        let exec = plan(&mini_blast2cap3(2), &sites, &tc, &rc, &cfg).unwrap();
        let counts = exec.counts_by_kind();
        assert_eq!(counts.len(), 1);
        assert!(counts.contains_key(&JobKind::Compute));
    }

    #[test]
    fn not_installable_transformation_fails_on_bare_site() {
        let (sites, mut tc, rc) = catalogs_with_submit_replicas();
        tc.add(
            crate::catalog::Transformation::new("run_cap3")
                .requires_pkg("cap3")
                .not_installable(),
        );
        let err = plan(
            &mini_blast2cap3(2),
            &sites,
            &tc,
            &rc,
            &PlannerConfig::for_site("osg"),
        )
        .unwrap_err();
        assert!(matches!(err, WmsError::UnresolvableTransformation { .. }));
    }

    #[test]
    fn clustering_reduces_job_count_and_preserves_work() {
        let wf = mini_blast2cap3(6);
        let clustered = cluster_workflow(&wf, 3).unwrap();
        // 6 run_cap3 jobs -> 2 clustered jobs; other singles unchanged.
        assert_eq!(clustered.jobs.len(), wf.jobs.len() - 6 + 2);
        let total: f64 = wf.jobs.iter().map(|j| j.runtime_hint).sum();
        let total_c: f64 = clustered.jobs.iter().map(|j| j.runtime_hint).sum();
        assert!((total - total_c).abs() < 1e-9);
        clustered.validate().unwrap();
        // Clustered workflow still plans.
        let (sites, tc, rc) = catalogs_with_submit_replicas();
        let mut cfg = PlannerConfig::for_site("sandhills");
        cfg.cluster_factor = Some(3);
        let exec = plan(&wf, &sites, &tc, &rc, &cfg).unwrap();
        let cap3_jobs = exec
            .jobs
            .iter()
            .filter(|j| j.transformation == "run_cap3")
            .count();
        assert_eq!(cap3_jobs, 2);
    }

    #[test]
    fn cluster_factor_one_is_identity() {
        let wf = mini_blast2cap3(4);
        assert_eq!(cluster_workflow(&wf, 1).unwrap(), wf);
        assert_eq!(cluster_workflow(&wf, 0).unwrap(), wf);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        assert_eq!(transfer_seconds(1_000, 100e6), 1.0); // floor
        assert!(transfer_seconds(10_000_000_000, 100e6) > 99.0);
    }

    #[test]
    fn dot_export_marks_install_jobs_red() {
        let (sites, tc, rc) = catalogs_with_submit_replicas();
        let wf = mini_blast2cap3(2);
        let osg = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("osg")).unwrap();
        let dot = osg.to_dot();
        assert!(dot.contains("color=red"));
        assert!(dot.contains("digraph"));
        let sh = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills")).unwrap();
        assert!(!sh.to_dot().contains("color=red"));
    }

    #[test]
    fn data_reuse_prunes_replicated_outputs() {
        // Register every run_cap3 output as already available: the
        // reduction must prune the cap3 jobs AND the now-dead split
        // and list_alignments producers, keeping merge/extract (their
        // inputs come from replicas via stage-in).
        let (sites, tc, mut rc) = catalogs_with_submit_replicas();
        let wf = mini_blast2cap3(3);
        for i in 0..3 {
            rc.register(format!("joined_{i}.fasta"), "sandhills");
        }
        let reduced = reduce_workflow(&wf, &rc, "sandhills").unwrap();
        assert!(reduced.job_by_name("run_cap3_0").is_none());
        assert!(reduced.job_by_name("run_cap3_1").is_none());
        assert!(reduced.job_by_name("split").is_none(), "split is dead");
        assert!(
            reduced.job_by_name("list_alignments").is_none(),
            "list_alignments is dead"
        );
        // list_transcripts survives: extract_unjoined consumes its dict.
        assert!(reduced.job_by_name("list_transcripts").is_some());
        assert!(reduced.job_by_name("merge").is_some());
        assert!(reduced.job_by_name("extract_unjoined").is_some());

        // Planning the reduced workflow stages the replicated chunks in.
        let mut cfg = PlannerConfig::for_site("sandhills");
        cfg.data_reuse = true;
        let exec = plan(&wf, &sites, &tc, &rc, &cfg).unwrap();
        let computes = exec.counts_by_kind()[&JobKind::Compute];
        assert_eq!(computes, 3); // list_transcripts, merge, extract_unjoined
                                 // joined_i come from replicas at the site: no stage-in needed
                                 // for them, but the original external inputs still stage.
        assert_eq!(exec.topological_order().unwrap().len(), exec.jobs.len());
    }

    #[test]
    fn data_reuse_keeps_everything_without_replicas() {
        let (_, _, rc) = catalogs_with_submit_replicas();
        let wf = mini_blast2cap3(3);
        let reduced = reduce_workflow(&wf, &rc, "sandhills").unwrap();
        assert_eq!(reduced.jobs.len(), wf.jobs.len());
    }

    #[test]
    fn data_reuse_never_prunes_final_output_producers() {
        let (_, _, mut rc) = catalogs_with_submit_replicas();
        let wf = mini_blast2cap3(2);
        // Even with every intermediate replicated, the final producer
        // stays unless final.fasta itself is replicated.
        for i in 0..2 {
            rc.register(format!("joined_{i}.fasta"), "sandhills");
        }
        rc.register("joined_all.fasta", "sandhills");
        rc.register("joined_ids_all.txt", "sandhills");
        rc.register("transcripts_dict.txt", "sandhills");
        let reduced = reduce_workflow(&wf, &rc, "sandhills").unwrap();
        assert_eq!(reduced.jobs.len(), 1);
        assert!(reduced.job_by_name("extract_unjoined").is_some());
    }

    #[test]
    fn cleanup_job_is_appended_after_all_leaves() {
        let (sites, tc, rc) = catalogs_with_submit_replicas();
        let mut cfg = PlannerConfig::for_site("sandhills");
        cfg.add_cleanup = true;
        let exec = plan(&mini_blast2cap3(2), &sites, &tc, &rc, &cfg).unwrap();
        let counts = exec.counts_by_kind();
        assert_eq!(counts[&JobKind::Cleanup], 1);
        // The cleanup job is the unique sink.
        let children = exec.children();
        let sinks: Vec<JobId> = children
            .nodes()
            .filter(|&i| children.degree(i) == 0)
            .collect();
        assert_eq!(sinks.len(), 1);
        assert_eq!(exec.jobs[sinks[0].idx()].kind, JobKind::Cleanup);
        assert_eq!(exec.topological_order().unwrap().len(), exec.jobs.len());
    }

    #[test]
    fn all_planner_options_compose() {
        // Reduction + clustering + cleanup + staging together must
        // still yield a valid DAG with conserved compute runtime for
        // the surviving jobs.
        let (sites, tc, mut rc) = catalogs_with_submit_replicas();
        // Two cap3 outputs already replicated: those jobs are pruned.
        rc.register("joined_0.fasta", "osg");
        rc.register("joined_ids_0.txt", "osg");
        let wf = mini_blast2cap3(6);
        let mut cfg = PlannerConfig::for_site("osg");
        cfg.cluster_factor = Some(2);
        cfg.data_reuse = true;
        cfg.add_cleanup = true;
        let exec = plan(&wf, &sites, &tc, &rc, &cfg).unwrap();
        assert_eq!(exec.topological_order().unwrap().len(), exec.jobs.len());
        let counts = exec.counts_by_kind();
        assert_eq!(counts[&JobKind::Cleanup], 1);
        assert_eq!(counts[&JobKind::CreateDir], 1);
        // run_cap3_0 was pruned by data reuse; the remaining 5 cap3
        // jobs cluster into ceil(5/2) = 3 jobs.
        let cap3_jobs = exec
            .jobs
            .iter()
            .filter(|j| j.transformation == "run_cap3")
            .count();
        assert_eq!(cap3_jobs, 3);
        // Every OSG compute job still carries its install phase.
        for j in &exec.jobs {
            if j.kind == JobKind::Compute {
                assert!(j.install_hint > 0.0, "{}", j.name);
            }
        }
    }

    #[test]
    fn fig2_shape_job_counts_scale_with_n() {
        // Fig. 2: 2 list tasks + split + n cap3 + merge + extract.
        let (sites, tc, rc) = catalogs_with_submit_replicas();
        for n in [10usize, 100, 300] {
            let exec = plan(
                &mini_blast2cap3(n),
                &sites,
                &tc,
                &rc,
                &PlannerConfig::for_site("sandhills"),
            )
            .unwrap();
            let counts = exec.counts_by_kind();
            assert_eq!(counts[&JobKind::Compute], n + 5, "n={n}");
        }
    }
}
