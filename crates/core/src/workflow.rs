//! The abstract workflow model.
//!
//! An abstract workflow is a DAG of logical jobs. Jobs name a
//! *transformation* (a logical executable), arguments, and the logical
//! files they consume and produce. Dependencies come from two places:
//! dataflow (job B reads a file job A writes) and explicit
//! parent/child declarations, exactly like a Pegasus DAX.
//!
//! Every job enters a workflow one way, row by row through
//! [`AbstractWorkflow::declare`] — a generator, the DAX parser and the
//! planner's rewrites (clustering, data reuse, sub-workflow inlining)
//! alike — and is stored flat: one [`JobRow`] per job, one
//! per-workflow file table, and one vector of [`FileId`]s that every
//! row's input and output ranges index (see [`crate::symbols`] for the
//! one-copy rule the names follow). A rewrite reads a source row and
//! declares a row of its output; no owned copy of a job is built in
//! between. Jobs
//! are identified by dense interned [`JobId`]s; traversals run over
//! [`Csr`] adjacency built once per call instead of per-node
//! `Vec<Vec<_>>` allocations, and who produces a file, who consumes
//! it and which job waits on which is derived in one place,
//! [`AbstractWorkflow::dataflow`], by dense file id: validation, the
//! planner, the lint and the plan verifier read that [`Dataflow`] and
//! walk it with [`crate::graph`]; none of them derives it again.

use crate::error::WmsError;
use crate::graph::Csr;
use crate::symbols::{Args, Name, NameIndex, SymbolTable};
use std::ops::Range;

pub use crate::symbols::{FileId, JobId};

/// One stored job: its names as shared handles, and where its file
/// uses sit in the workflow's flat table. Read the files through
/// [`AbstractWorkflow::inputs`] and [`AbstractWorkflow::outputs`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    /// Unique job identifier within the workflow.
    pub id: Name,
    /// Logical transformation name.
    pub transformation: Name,
    /// Command-line-style arguments.
    pub args: Args,
    /// Estimated execution time in seconds on a reference core.
    pub runtime_hint: f64,
    /// `uses[first_use..first_output]` are the inputs,
    /// `uses[first_output..end_use]` the outputs.
    first_use: u32,
    first_output: u32,
    end_use: u32,
}

/// One use of a file by a job, read off the flat table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileUse<'a> {
    /// The file's id in the workflow's file table.
    pub(crate) file: FileId,
    /// The file's name, as the file table holds it.
    pub name: &'a str,
    /// Estimated size in bytes, as this use declared it.
    pub(crate) size_bytes: u64,
}

/// A job's inputs or outputs: a window onto the workflow's flat
/// file-use table.
#[derive(Clone, Copy)]
pub struct Uses<'a> {
    files: &'a SymbolTable<FileId>,
    ids: &'a [FileId],
    sizes: &'a [u64],
}

impl<'a> Uses<'a> {
    /// The file ids, in declaration order.
    pub fn ids(&self) -> &'a [FileId] {
        self.ids
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the job uses no file on this side.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The uses, in declaration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FileUse<'a>> + 'a {
        let files = self.files;
        self.ids
            .iter()
            .zip(self.sizes)
            .map(move |(&file, &size_bytes)| FileUse {
                file,
                name: files.resolve(file),
                size_bytes,
            })
    }
}

/// Equal when they name the same files with the same sizes in the
/// same order — also across two workflows, whose ids may differ.
impl PartialEq for Uses<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| a.name == b.name && a.size_bytes == b.size_bytes)
    }
}

impl std::fmt::Debug for Uses<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An abstract workflow: jobs plus explicit dependency edges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AbstractWorkflow {
    /// Workflow name (the DAX `name` attribute).
    pub name: String,
    /// Jobs in declaration order; [`JobId`]s index into this.
    pub jobs: Vec<JobRow>,
    /// Explicit parent → child edges (by job index), in addition to
    /// dataflow-derived edges.
    pub explicit_edges: Vec<(JobId, JobId)>,
    /// Every distinct logical file, in first-use order.
    files: SymbolTable<FileId>,
    /// All file uses, job after job, inputs before outputs.
    uses: Vec<FileId>,
    /// The size each use declared, parallel to `uses` (a DAX may give
    /// one file different sizes at different uses).
    use_sizes: Vec<u64>,
}

/// Who reads a file, as far as the dependency structure cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Readers {
    /// No job lists the file as an input: a product of the workflow.
    Nobody,
    /// Only the job that produces it lists it as an input.
    OnlyItsProducer,
    /// A job other than its producer reads it — the file is
    /// *consumed* (an input no job produces is consumed by whoever
    /// reads it).
    AnotherJob,
}

/// A workflow's dependency structure, derived once per reader by
/// [`AbstractWorkflow::dataflow`]: everything is indexed by dense
/// [`FileId`] or [`JobId`], nothing by a name.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataflow {
    /// By [`FileId`]: the first job that lists the file as an output,
    /// `None` for a file no job produces.
    pub producer: Vec<Option<JobId>>,
    /// By [`FileId`]: who lists the file as an input.
    pub readers: Vec<Readers>,
    /// Every output declaration after a file's first, in job order, as
    /// `(file, its producer, the later declarer)` — the producer again
    /// when one job lists the file as an output twice.
    pub conflicts: Vec<(FileId, JobId, JobId)>,
    /// All dependency edges `(parent, child)` — producer to every
    /// other job that reads the file, plus the explicit ones — sorted
    /// and deduplicated. An explicit edge from a job to itself stays:
    /// it is a cycle.
    pub edges: Vec<(JobId, JobId)>,
    /// The forward (children) adjacency of `edges`; each neighbor
    /// slice ascends.
    pub children: Csr,
}

/// A batch of jobs being declared into a workflow:
/// [`AbstractWorkflow::declare`].
#[derive(Debug)]
pub struct Declare<'w> {
    wf: &'w mut AbstractWorkflow,
    /// The id of every job of `wf`, this batch's included.
    ids: JobIndex,
}

/// The job ids of a workflow, indexed over its rows: an id is the
/// `Name` its row holds and nothing else, so a job costs its index a
/// slot, not a copy of its id.
#[derive(Debug, Default)]
pub(crate) struct JobIndex(NameIndex);

impl JobIndex {
    /// Indexes the jobs `wf` holds, with room for as many as it has
    /// room for.
    pub(crate) fn of(wf: &AbstractWorkflow) -> Self {
        let mut index = NameIndex::default();
        index.reserve(wf.jobs.capacity());
        for (raw, job) in wf.jobs.iter().enumerate() {
            index.place(index.tag(&job.id), raw as u32);
        }
        JobIndex(index)
    }

    /// The job of `wf` whose id is `id`.
    pub(crate) fn get(&self, wf: &AbstractWorkflow, id: &str) -> Option<JobId> {
        let found = self
            .0
            .find(self.0.tag(id), |raw| wf.jobs[raw as usize].id == id);
        found.map(|raw| JobId::new(raw as usize))
    }

    /// Stores a row ([`AbstractWorkflow::push_row`]) unless `wf`
    /// already holds a job of its id, adding nothing then.
    pub(crate) fn push(
        &mut self,
        wf: &mut AbstractWorkflow,
        row: (Name, Name, Args, f64),
        inputs: impl IntoIterator<Item = (impl FileRef, u64)>,
        outputs: impl IntoIterator<Item = (impl FileRef, u64)>,
    ) -> Result<JobId, WmsError> {
        let tag = self.0.tag(&row.0);
        let jobs = &wf.jobs;
        if self
            .0
            .find(tag, |raw| jobs[raw as usize].id == row.0)
            .is_some()
        {
            return Err(WmsError::DuplicateJob(row.0.into()));
        }
        self.0.place(tag, use_index(wf.jobs.len()));
        Ok(wf.push_row(row, inputs, outputs))
    }
}

impl Declare<'_> {
    /// Stores one job, its inputs and outputs given as `(file, size
    /// in bytes)` pairs; fails on an id the workflow already holds,
    /// adding nothing. A file is a borrowed name or, once some job of
    /// this workflow has used it, the [`FileId`] that use gave it — read
    /// back through the workflow this derefs to
    /// (`rows.outputs(job).ids()`) — so a generator names a file once
    /// and the table's order stays the order of first use either way.
    /// An id another workflow issued names nothing here.
    pub fn job(
        &mut self,
        id: impl Into<Name>,
        transformation: impl Into<Name>,
        args: Args,
        runtime_hint: f64,
        inputs: impl IntoIterator<Item = (impl FileRef, u64)>,
        outputs: impl IntoIterator<Item = (impl FileRef, u64)>,
    ) -> Result<JobId, WmsError> {
        let row = (id.into(), transformation.into(), args, runtime_hint);
        self.ids.push(self.wf, row, inputs, outputs)
    }

    /// Stores job `job` of `from` as it stands: its handles cloned, its
    /// files named by their text, since `from`'s ids are not this
    /// workflow's.
    pub(crate) fn copy<'a>(
        &mut self,
        from: &'a AbstractWorkflow,
        job: JobId,
    ) -> Result<JobId, WmsError> {
        let row = from.job(job);
        let named = |uses: Uses<'a>| uses.iter().map(|f| (f.name, f.size_bytes));
        let (id, transformation, args) =
            (row.id.clone(), row.transformation.clone(), row.args.clone());
        let (inputs, outputs) = (named(from.inputs(job)), named(from.outputs(job)));
        self.job(id, transformation, args, row.runtime_hint, inputs, outputs)
    }
}

impl std::ops::Deref for Declare<'_> {
    type Target = AbstractWorkflow;
    fn deref(&self) -> &AbstractWorkflow {
        self.wf
    }
}

/// How a declared job names a file: by its text, which is interned,
/// or by the id an earlier use of it was given, which costs nothing.
pub trait FileRef {
    /// The file's id in `files`, interning a name not yet there.
    fn id_in(self, files: &mut SymbolTable<FileId>) -> FileId;
}

impl FileRef for &str {
    fn id_in(self, files: &mut SymbolTable<FileId>) -> FileId {
        files.intern(self)
    }
}

impl FileRef for FileId {
    fn id_in(self, files: &mut SymbolTable<FileId>) -> FileId {
        assert!(self.idx() < files.len(), "a file id of another workflow");
        self
    }
}

fn use_index(len: usize) -> u32 {
    u32::try_from(len).expect("file-use table overflows u32")
}

impl AbstractWorkflow {
    /// Creates an empty workflow.
    pub fn new(name: impl Into<String>) -> Self {
        AbstractWorkflow {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Makes room for `jobs` more jobs with `uses` file uses between
    /// them, of `files` files the workflow does not hold yet whose
    /// names are `file_bytes` long together.
    pub fn reserve(&mut self, jobs: usize, uses: usize, files: usize, file_bytes: usize) {
        self.jobs.reserve(jobs);
        self.uses.reserve(uses);
        self.use_sizes.reserve(uses);
        self.files.reserve(files, file_bytes);
    }

    /// Opens a batch of jobs declared row by row: the one way a job
    /// enters a workflow. Nothing is built per job (no owned copy of
    /// it, no `Vec`) and a file name goes from the caller's buffer
    /// straight into the file table. One `JobIndex`, filled once per
    /// batch, checks every id.
    pub fn declare(&mut self) -> Declare<'_> {
        let ids = JobIndex::of(self);
        Declare { wf: self, ids }
    }

    /// Stores a job; no duplicate check, the caller has made its own.
    ///
    /// This is the one place file names are interned, a job's inputs
    /// before its outputs, so a file's id follows from what the jobs
    /// declare and not from the order a document happened to list a
    /// job's `<uses>` in: two workflows with the same jobs have the
    /// same file table and compare equal.
    pub(crate) fn push_row(
        &mut self,
        (id, transformation, args, runtime_hint): (Name, Name, Args, f64),
        inputs: impl IntoIterator<Item = (impl FileRef, u64)>,
        outputs: impl IntoIterator<Item = (impl FileRef, u64)>,
    ) -> JobId {
        let first_use = use_index(self.uses.len());
        let first_output = self.push_uses(inputs);
        let end_use = self.push_uses(outputs);
        self.jobs.push(JobRow {
            id,
            transformation,
            args,
            runtime_hint,
            first_use,
            first_output,
            end_use,
        });
        JobId::new(self.jobs.len() - 1)
    }

    /// Appends one side of a job to the flat table; returns the
    /// table's new length.
    fn push_uses(&mut self, side: impl IntoIterator<Item = (impl FileRef, u64)>) -> u32 {
        for (file, size) in side {
            self.uses.push(file.id_in(&mut self.files));
            self.use_sizes.push(size);
        }
        use_index(self.uses.len())
    }

    /// Returns the slack a growing workflow over-allocated; the DAX
    /// parser calls it once the document is read.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.jobs.shrink_to_fit();
        self.explicit_edges.shrink_to_fit();
        self.uses.shrink_to_fit();
        self.use_sizes.shrink_to_fit();
        self.files.shrink_to_fit();
    }

    /// Declares an explicit dependency `parent -> child`.
    pub fn add_edge(&mut self, parent: JobId, child: JobId) -> Result<(), WmsError> {
        if parent.idx() >= self.jobs.len() {
            return Err(WmsError::UnknownJob(format!("#{parent}")));
        }
        if child.idx() >= self.jobs.len() {
            return Err(WmsError::UnknownJob(format!("#{child}")));
        }
        self.explicit_edges.push((parent, child));
        Ok(())
    }

    /// Looks a job up by string id.
    ///
    /// Linear scan — fine for one-off lookups; bulk resolution (the
    /// DAX parser, the engine's skip-set) builds a name → id map once
    /// instead.
    pub fn job_by_name(&self, id: &str) -> Option<JobId> {
        self.jobs.iter().position(|j| j.id == id).map(JobId::new)
    }

    /// The job referenced by `id`.
    pub(crate) fn job(&self, id: JobId) -> &JobRow {
        &self.jobs[id.idx()]
    }

    /// The workflow's file table: every distinct logical file name, by
    /// dense [`FileId`] in first-use order.
    pub fn files(&self) -> &SymbolTable<FileId> {
        &self.files
    }

    /// Total number of file uses (inputs plus outputs of every job) —
    /// the length of the flat table all rows index.
    pub fn use_count(&self) -> usize {
        self.uses.len()
    }

    fn window(&self, range: Range<u32>) -> Uses<'_> {
        let range = range.start as usize..range.end as usize;
        Uses {
            files: &self.files,
            ids: &self.uses[range.clone()],
            sizes: &self.use_sizes[range],
        }
    }

    /// Files `job` consumes.
    pub fn inputs(&self, job: JobId) -> Uses<'_> {
        let row = self.job(job);
        self.window(row.first_use..row.first_output)
    }

    /// Files `job` produces.
    pub fn outputs(&self, job: JobId) -> Uses<'_> {
        let row = self.job(job);
        self.window(row.first_output..row.end_use)
    }

    /// Job ids in declaration order.
    pub fn job_ids(&self) -> impl ExactSizeIterator<Item = JobId> {
        (0..self.jobs.len()).map(JobId::new)
    }

    /// The workflow's dependency structure — the one derivation of who
    /// produces a file, who consumes it and which job waits on which.
    /// It judges nothing and cannot fail: a conflict or a cycle is in
    /// the view for [`AbstractWorkflow::validate`] and the lint to
    /// report. Each use in the flat table is visited once, every
    /// output before any input, because a consumer may be declared
    /// ahead of its producer.
    pub fn dataflow(&self) -> Dataflow {
        let mut producer: Vec<Option<JobId>> = vec![None; self.files.len()];
        let mut conflicts = Vec::new();
        for job in self.job_ids() {
            for &file in self.outputs(job).ids() {
                match producer[file.idx()] {
                    None => producer[file.idx()] = Some(job),
                    Some(first) => conflicts.push((file, first, job)),
                }
            }
        }
        let mut readers = vec![Readers::Nobody; self.files.len()];
        let mut edges: Vec<(JobId, JobId)> = Vec::new();
        for job in self.job_ids() {
            for &file in self.inputs(job).ids() {
                let reader = &mut readers[file.idx()];
                match producer[file.idx()] {
                    Some(p) if p == job => *reader = (*reader).max(Readers::OnlyItsProducer),
                    Some(p) => {
                        *reader = Readers::AnotherJob;
                        edges.push((p, job));
                    }
                    None => *reader = Readers::AnotherJob,
                }
            }
        }
        edges.extend(&self.explicit_edges);
        edges.sort_unstable();
        edges.dedup();
        let children = Csr::forward(self.jobs.len(), &edges);
        Dataflow {
            producer,
            readers,
            conflicts,
            edges,
            children,
        }
    }

    /// `conflict` as the error that refuses the workflow (and the text
    /// of the lint's `E0104`).
    pub(crate) fn conflict_error(&self, (file, first, second): (FileId, JobId, JobId)) -> WmsError {
        WmsError::ConflictingProducer {
            file: self.files.resolve(file).to_string(),
            first: self.job(first).id.as_str().into(),
            second: self.job(second).id.as_str().into(),
        }
    }

    /// The judgement of a view of this workflow: its first producer
    /// conflict, else the first job stuck on a cycle, else a
    /// topological order.
    pub(crate) fn order_of(&self, view: &Dataflow) -> Result<Vec<JobId>, WmsError> {
        if let Some(&conflict) = view.conflicts.first() {
            return Err(self.conflict_error(conflict));
        }
        (view.children.topological_order())
            .map_err(|stuck| WmsError::CycleDetected(self.job(stuck[0]).id.as_str().into()))
    }

    /// The view together with its topological order, for a reader
    /// that walks the DAG.
    pub(crate) fn checked(&self) -> Result<(Dataflow, Vec<JobId>), WmsError> {
        let view = self.dataflow();
        let order = self.order_of(&view)?;
        Ok((view, order))
    }

    /// All dependency edges: dataflow-derived plus explicit, deduped
    /// and sorted. Fails if a file has two producers.
    pub fn edges(&self) -> Result<Vec<(JobId, JobId)>, WmsError> {
        let view = self.dataflow();
        match view.conflicts.first() {
            Some(&conflict) => Err(self.conflict_error(conflict)),
            None => Ok(view.edges),
        }
    }

    /// Files consumed by some job but produced by none, by `view` — the
    /// workflow's external inputs: the first use of each.
    pub fn external_inputs(&self, view: &Dataflow) -> Vec<FileUse<'_>> {
        let mut reported = vec![false; self.files.len()];
        let uses = self.job_ids().flat_map(|job| self.inputs(job).iter());
        uses.filter(|f| view.producer[f.file.idx()].is_none())
            .filter(|f| !std::mem::replace(&mut reported[f.file.idx()], true))
            .collect()
    }

    /// Files produced by some job but consumed by none, by `view` — the
    /// workflow's final outputs — each with the job that produces it.
    pub fn final_outputs(&self, view: &Dataflow) -> Vec<(JobId, FileUse<'_>)> {
        let uses = (self.job_ids()).flat_map(|job| self.outputs(job).iter().map(move |f| (job, f)));
        uses.filter(|(_, f)| view.readers[f.file.idx()] == Readers::Nobody)
            .collect()
    }

    /// Kahn topological order over all edges; detects cycles.
    pub fn topological_order(&self) -> Result<Vec<JobId>, WmsError> {
        self.checked().map(|(_, order)| order)
    }

    /// Validates the workflow: id uniqueness is enforced at insert;
    /// this refuses a file with two producers — two jobs, or one job
    /// listing it as an output twice — and a dependency cycle, an
    /// explicit edge from a job to itself included.
    pub fn validate(&self) -> Result<(), WmsError> {
        self.checked().map(|_| ())
    }

    /// DAG level (longest path from any root) of every job.
    pub fn levels(&self) -> Result<Vec<usize>, WmsError> {
        let (view, order) = self.checked()?;
        Ok(view.children.levels(&order))
    }

    /// Maximum number of jobs on a single level — the theoretical
    /// parallel width of the workflow.
    pub fn width(&self) -> Result<usize, WmsError> {
        let levels = self.levels()?;
        // A level is a path length, so below the job count.
        let mut counts = vec![0usize; levels.len()];
        for level in levels {
            counts[level] += 1;
        }
        Ok(counts.into_iter().max().unwrap_or(0))
    }

    /// Critical path: the dependency chain with the largest total
    /// runtime hint. Returns `(total_seconds, path)` — the theoretical
    /// lower bound on makespan with unlimited resources, which the
    /// blast2cap3 analysis calls the "largest cluster" floor.
    pub fn critical_path(&self) -> Result<(f64, Vec<JobId>), WmsError> {
        let (view, order) = self.checked()?;
        let parents = Csr::reverse(self.jobs.len(), &view.edges);
        Ok(parents.longest_path(&order, |job| self.job(job).runtime_hint))
    }

    /// Hierarchical workflows (Pegasus sub-DAX jobs): returns a copy
    /// of `self` in which the `placeholder` job is replaced by the
    /// whole of `sub`, inline.
    ///
    /// * sub jobs are renamed `"<placeholder-id>/<sub-id>"`;
    /// * the sub-workflow's *interface* files — its external inputs
    ///   and final outputs — keep their names, so parent dataflow
    ///   connects to them directly;
    /// * every other (internal) sub file is namespaced
    ///   `"<placeholder-id>/<file>"` to avoid collisions with parent
    ///   files;
    /// * explicit parent edges touching the placeholder are redirected
    ///   to the sub-workflow's roots (incoming) and sinks (outgoing).
    pub fn with_inlined_subworkflow(
        &self,
        placeholder: JobId,
        sub: &AbstractWorkflow,
    ) -> Result<AbstractWorkflow, WmsError> {
        if placeholder.idx() >= self.jobs.len() {
            return Err(WmsError::UnknownJob(format!("#{placeholder}")));
        }
        let (sub_view, _) = sub.checked()?;
        let ns = self.jobs[placeholder.idx()].id.as_str();
        // Interface files — the sub-workflow's external inputs and
        // final outputs — keep their names.
        let interface = |f: FileId| {
            sub_view.producer[f.idx()].is_none() || sub_view.readers[f.idx()] == Readers::Nobody
        };

        let mut out = AbstractWorkflow::new(self.name.clone());
        let parent_jobs = self.jobs.len() - 1;
        let (uses, files) = (
            self.use_count() + sub.use_count(),
            self.files.len() + sub.files.len(),
        );
        // An internal sub file gains a `<placeholder>/` prefix.
        let prefix = ns.len() + 1;
        let bytes = self.files.text_len() + sub.files.text_len() + prefix * sub.files.len();
        out.reserve(parent_jobs + sub.jobs.len(), uses, files, bytes);
        let mut rows = out.declare();
        // Parent jobs (minus the placeholder), preserving order.
        for i in self.job_ids().filter(|&i| i != placeholder) {
            rows.copy(self, i)?;
        }
        // Sub jobs, renamed and namespaced: the new id, then the name of
        // every file the job uses, are written end to end into one
        // buffer.
        let (mut text, mut ends) = (String::new(), Vec::new());
        for i in sub.job_ids() {
            let (row, inputs, outputs) = (sub.job(i), sub.inputs(i), sub.outputs(i));
            text.clear();
            ends.clear();
            text.extend([ns, "/", &row.id]);
            ends.push(text.len());
            for f in inputs.iter().chain(outputs.iter()) {
                if !interface(f.file) {
                    text.extend([ns, "/"]);
                }
                text.push_str(f.name);
                ends.push(text.len());
            }
            let file = |k: usize| &text[ends[k]..ends[k + 1]];
            let ins = (inputs.iter().enumerate()).map(|(k, f)| (file(k), f.size_bytes));
            let first_output = inputs.len();
            let outs =
                (outputs.iter().enumerate()).map(|(k, f)| (file(first_output + k), f.size_bytes));
            let id = Name::from(&text[..ends[0]]);
            let (transformation, args) = (row.transformation.clone(), row.args.clone());
            rows.job(id, transformation, args, row.runtime_hint, ins, outs)?;
        }
        drop(rows);
        // A parent job keeps its place, one lower past the placeholder;
        // the sub's jobs follow the parent's.
        let parent_id = |j: JobId| JobId::new(j.idx() - usize::from(j > placeholder));
        let sub_id = |j: JobId| JobId::new(parent_jobs + j.idx());
        // Sub explicit edges.
        for &(p, c) in &sub.explicit_edges {
            out.add_edge(sub_id(p), sub_id(c))?;
        }
        // Parent explicit edges, with placeholder redirection.
        let sub_children = &sub_view.children;
        let sub_indegree = sub_children.reverse_degrees();
        let roots: Vec<JobId> = sub_children
            .nodes()
            .filter(|&i| sub_indegree[i.idx()] == 0)
            .collect();
        let sinks: Vec<JobId> = sub_children
            .nodes()
            .filter(|&i| sub_children.degree(i) == 0)
            .collect();
        for &(p, c) in &self.explicit_edges {
            match (p == placeholder, c == placeholder) {
                (false, false) => out.add_edge(parent_id(p), parent_id(c))?,
                (true, false) => {
                    for &s in &sinks {
                        out.add_edge(sub_id(s), parent_id(c))?;
                    }
                }
                (false, true) => {
                    for &r in &roots {
                        out.add_edge(parent_id(p), sub_id(r))?;
                    }
                }
                (true, true) => {}
            }
        }
        out.validate()?;
        Ok(out)
    }
}

/// Test shorthand for [`AbstractWorkflow::declare`]: one job with no
/// arguments, its files named by text with the sizes given.
#[cfg(test)]
pub(crate) fn declare_job(
    wf: &mut AbstractWorkflow,
    id: &str,
    transformation: &str,
    runtime_hint: f64,
    inputs: &[(&str, u64)],
    outputs: &[(&str, u64)],
) -> JobId {
    let (inputs, outputs) = (inputs.iter().copied(), outputs.iter().copied());
    (wf.declare())
        .job(
            id,
            transformation,
            Args::new(),
            runtime_hint,
            inputs,
            outputs,
        )
        .expect("a fresh job id")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn j(i: usize) -> JobId {
        JobId::new(i)
    }

    fn pairs(raw: &[(usize, usize)]) -> Vec<(JobId, JobId)> {
        raw.iter().map(|&(a, b)| (j(a), j(b))).collect()
    }

    /// A job of transformation `t` that reads and writes nothing.
    fn bare(wf: &mut AbstractWorkflow, id: &str) -> JobId {
        declare_job(wf, id, "t", 1.0, &[], &[])
    }

    /// Diamond: a -> {b, c} -> d via dataflow.
    fn diamond() -> AbstractWorkflow {
        let mut wf = AbstractWorkflow::new("diamond");
        declare_job(&mut wf, "a", "gen", 1.0, &[], &[("x", 0)]);
        declare_job(&mut wf, "b", "proc", 1.0, &[("x", 0)], &[("y1", 0)]);
        declare_job(&mut wf, "c", "proc", 1.0, &[("x", 0)], &[("y2", 0)]);
        declare_job(
            &mut wf,
            "d",
            "join",
            1.0,
            &[("y1", 0), ("y2", 0)],
            &[("z", 0)],
        );
        wf
    }

    #[test]
    fn dataflow_edges_are_derived() {
        let wf = diamond();
        let edges = wf.edges().unwrap();
        assert_eq!(edges, pairs(&[(0, 1), (0, 2), (1, 3), (2, 3)]));
    }

    #[test]
    fn declare_stores_rows_flat_and_a_duplicate_adds_nothing() {
        let none: [(&str, u64); 0] = [];
        let mut wf = AbstractWorkflow::new("w");
        wf.reserve(2, 3, 2, 3);
        let mut rows = wf.declare();
        let args = Args::from([Name::from("-x")]);
        let a = rows.job("a", "gen", args, 1.0, [("in", 3)], [("x", 0)]);
        assert_eq!(a, Ok(j(0)));
        let x = rows.outputs(j(0)).ids()[0];
        assert_eq!(rows.files().resolve(x), "x");
        // A file already used may be given by the id that use gave it.
        let b = rows.job("b", "proc", Args::new(), 1.0, [(x, 0)], none);
        assert_eq!(b, Ok(j(1)));
        // A duplicate within the batch ...
        let other = [("other", 0)];
        let refused = rows.job("b", "t", Args::new(), 1.0, other, other);
        assert_eq!(refused, Err(WmsError::DuplicateJob("b".into())));
        // ... and of a job from before it.
        let refused = wf.declare().job("a", "t", Args::new(), 1.0, other, none);
        assert_eq!(refused, Err(WmsError::DuplicateJob("a".into())));
        let sizes = (wf.jobs.len(), wf.use_count(), wf.files().len());
        assert_eq!(sizes, (2, 3, 2));
        assert_eq!(wf.job(j(0)).args, vec!["-x"]);
        let uses = format!("{:?}", wf.inputs(j(0)));
        assert_eq!(
            uses,
            "[FileUse { file: FileId(0), name: \"in\", size_bytes: 3 }]"
        );
    }

    #[test]
    #[should_panic(expected = "a file id of another workflow")]
    fn a_file_id_the_table_does_not_hold_is_a_bug() {
        let mut wf = AbstractWorkflow::new("w");
        let stray = [(FileId::new(3), 0)];
        let _ = wf.declare().job("a", "t", Args::new(), 1.0, stray, stray);
    }

    #[test]
    fn conflicting_producers_rejected() {
        let mut wf = AbstractWorkflow::new("w");
        declare_job(&mut wf, "a", "t", 1.0, &[], &[("f", 0)]);
        declare_job(&mut wf, "b", "t", 1.0, &[], &[("f", 0)]);
        assert!(matches!(
            wf.edges().unwrap_err(),
            WmsError::ConflictingProducer { .. }
        ));
    }

    #[test]
    fn explicit_edges_merge_with_dataflow() {
        let mut wf = diamond();
        let b = wf.job_by_name("b").unwrap();
        let c = wf.job_by_name("c").unwrap();
        wf.add_edge(b, c).unwrap();
        let edges = wf.edges().unwrap();
        assert!(edges.contains(&(j(1), j(2))));
        assert_eq!(edges.len(), 5);
    }

    #[test]
    fn edge_bounds_checked() {
        let mut wf = diamond();
        assert!(wf.add_edge(j(0), j(99)).is_err());
        assert!(wf.add_edge(j(99), j(0)).is_err());
    }

    #[test]
    fn topological_order_respects_edges() {
        let wf = diamond();
        let order = wf.topological_order().unwrap();
        let pos: HashMap<JobId, usize> =
            order.iter().enumerate().map(|(i, &jid)| (jid, i)).collect();
        for (p, c) in wf.edges().unwrap() {
            assert!(pos[&p] < pos[&c], "{p} must precede {c}");
        }
    }

    #[test]
    fn cycles_are_detected() {
        let mut wf = AbstractWorkflow::new("cyclic");
        bare(&mut wf, "a");
        bare(&mut wf, "b");
        wf.add_edge(j(0), j(1)).unwrap();
        wf.add_edge(j(1), j(0)).unwrap();
        assert!(matches!(
            wf.validate().unwrap_err(),
            WmsError::CycleDetected(_)
        ));
    }

    #[test]
    fn an_explicit_edge_from_a_job_to_itself_is_a_cycle() {
        let mut wf = AbstractWorkflow::new("w");
        bare(&mut wf, "a");
        wf.add_edge(j(0), j(0)).unwrap();
        assert_eq!(wf.edges().unwrap(), pairs(&[(0, 0)]));
        assert_eq!(wf.validate(), Err(WmsError::CycleDetected("a".into())));
    }

    #[test]
    fn an_output_listed_twice_by_one_job_is_a_conflict_naming_it_once() {
        let mut wf = AbstractWorkflow::new("w");
        let out = ("out.txt", 0);
        declare_job(&mut wf, "a", "t", 1.0, &[], &[out, out]);
        assert_eq!(wf.dataflow().conflicts, [(FileId::new(0), j(0), j(0))]);
        let refused = wf.validate().unwrap_err();
        assert!(matches!(refused, WmsError::ConflictingProducer { .. }));
        assert_eq!(
            refused.to_string(),
            "logical file \"out.txt\" declared as an output twice by \"a\""
        );
    }

    #[test]
    fn a_file_only_its_producer_reads_is_neither_consumed_nor_final() {
        let mut wf = diamond();
        let scratch = ("scratch", 0);
        declare_job(&mut wf, "e", "t", 1.0, &[scratch], &[scratch]);
        let view = wf.dataflow();
        let file = wf.files().get("scratch").unwrap();
        assert_eq!(view.readers[file.idx()], Readers::OnlyItsProducer);
        assert_eq!(view.edges.len(), 4);
        let finals = wf.final_outputs(&view);
        let z = wf.files().get("z").unwrap();
        let expected = FileUse {
            file: z,
            name: "z",
            size_bytes: 0,
        };
        assert_eq!(finals, [(j(3), expected)]);
    }

    #[test]
    fn external_inputs_and_final_outputs() {
        let wf = diamond();
        let view = wf.dataflow();
        // x is produced internally; nothing external.
        assert!(wf.external_inputs(&view).is_empty());
        let outs = wf.final_outputs(&view);
        assert_eq!(outs.len(), 1);
        assert_eq!((outs[0].0, outs[0].1.name), (j(3), "z"));

        let mut wf2 = AbstractWorkflow::new("w2");
        let raw = [("raw.fasta", 404_000_000), ("raw.fasta", 1)];
        declare_job(&mut wf2, "only", "t", 1.0, &raw, &[("clean.fasta", 0)]);
        // One entry per file: its first use.
        let ins = wf2.external_inputs(&wf2.dataflow());
        assert_eq!(ins.len(), 1);
        assert_eq!(ins[0].name, "raw.fasta");
        assert_eq!(ins[0].size_bytes, 404_000_000);
    }

    #[test]
    fn levels_and_width() {
        let wf = diamond();
        let levels = wf.levels().unwrap();
        assert_eq!(levels, vec![0, 1, 1, 2]);
        assert_eq!(wf.width().unwrap(), 2);
    }

    #[test]
    fn empty_workflow_is_valid() {
        let wf = AbstractWorkflow::new("empty");
        assert!(wf.validate().is_ok());
        assert_eq!(wf.width().unwrap(), 0);
        assert!(wf.external_inputs(&wf.dataflow()).is_empty());
    }

    #[test]
    fn critical_path_follows_heaviest_chain() {
        let mut wf = diamond();
        // Give b a big runtime so the a-b-d chain dominates.
        wf.jobs[1].runtime_hint = 100.0;
        wf.jobs[0].runtime_hint = 1.0;
        wf.jobs[2].runtime_hint = 5.0;
        wf.jobs[3].runtime_hint = 2.0;
        let (total, path) = wf.critical_path().unwrap();
        assert_eq!(total, 103.0);
        assert_eq!(path, vec![j(0), j(1), j(3)]);
        // Empty workflow.
        let empty = AbstractWorkflow::new("e");
        assert_eq!(empty.critical_path().unwrap(), (0.0, vec![]));
    }

    /// A sub-workflow: consumes "x", produces "sub_out" through an
    /// internal intermediate "mid".
    fn sub_workflow() -> AbstractWorkflow {
        let mut sub = AbstractWorkflow::new("sub");
        declare_job(&mut sub, "s1", "t", 1.0, &[("x", 0)], &[("mid", 0)]);
        declare_job(&mut sub, "s2", "t", 1.0, &[("mid", 0)], &[("sub_out", 0)]);
        sub
    }

    #[test]
    fn inline_subworkflow_replaces_placeholder() {
        // Parent: a -> SUB -> d, where SUB consumes x and produces
        // sub_out consumed by d.
        let mut parent = AbstractWorkflow::new("parent");
        declare_job(&mut parent, "a", "gen", 1.0, &[], &[("x", 0)]);
        let ph = declare_job(
            &mut parent,
            "SUB",
            "pegasus::dax",
            1.0,
            &[("x", 0)],
            &[("sub_out", 0)],
        );
        declare_job(
            &mut parent,
            "d",
            "join",
            1.0,
            &[("sub_out", 0)],
            &[("z", 0)],
        );

        let flat = parent
            .with_inlined_subworkflow(ph, &sub_workflow())
            .unwrap();
        assert_eq!(flat.jobs.len(), 4); // a, d, SUB/s1, SUB/s2
        assert!(flat.job_by_name("SUB").is_none());
        let s1 = flat.job_by_name("SUB/s1").unwrap();
        let s2 = flat.job_by_name("SUB/s2").unwrap();
        // Internal file namespaced; interface files untouched.
        let names = |uses: Uses<'_>| uses.iter().map(|f| f.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names(flat.outputs(s1)), ["SUB/mid"]);
        assert_eq!(names(flat.inputs(s1)), ["x"]);
        assert_eq!(names(flat.outputs(s2)), ["sub_out"]);
        // Dataflow connects a -> s1 -> s2 -> d.
        let edges = flat.edges().unwrap();
        let a = flat.job_by_name("a").unwrap();
        let d = flat.job_by_name("d").unwrap();
        assert!(edges.contains(&(a, s1)));
        assert!(edges.contains(&(s1, s2)));
        assert!(edges.contains(&(s2, d)));
        // Levels: a=0, s1=1, s2=2, d=3.
        assert_eq!(flat.levels().unwrap()[d.idx()], 3);
    }

    #[test]
    fn inline_redirects_explicit_edges() {
        let mut parent = AbstractWorkflow::new("parent");
        let before = bare(&mut parent, "before");
        let ph = declare_job(&mut parent, "SUB", "pegasus::dax", 1.0, &[], &[]);
        let after = bare(&mut parent, "after");
        parent.add_edge(before, ph).unwrap();
        parent.add_edge(ph, after).unwrap();

        let flat = parent
            .with_inlined_subworkflow(ph, &sub_workflow())
            .unwrap();
        let edges = flat.edges().unwrap();
        let b = flat.job_by_name("before").unwrap();
        let a = flat.job_by_name("after").unwrap();
        let s1 = flat.job_by_name("SUB/s1").unwrap();
        let s2 = flat.job_by_name("SUB/s2").unwrap();
        // before -> sub roots; sub sinks -> after.
        assert!(edges.contains(&(b, s1)));
        assert!(edges.contains(&(s2, a)));
        // No direct before -> after edge appears.
        assert!(!edges.contains(&(b, a)));
    }

    #[test]
    fn inline_rejects_bad_placeholder() {
        let parent = AbstractWorkflow::new("p");
        assert!(parent
            .with_inlined_subworkflow(j(0), &sub_workflow())
            .is_err());
    }

    #[test]
    fn nested_inlining_namespaces_twice() {
        // SUB inside SUB: file names gain two levels of namespace.
        let mut mid = AbstractWorkflow::new("mid");
        let inner_ph = declare_job(&mut mid, "INNER", "pegasus::dax", 1.0, &[], &[]);
        let mid = mid
            .with_inlined_subworkflow(inner_ph, &sub_workflow())
            .unwrap();
        assert!(mid.job_by_name("INNER/s1").is_some());
        let mut top = AbstractWorkflow::new("top");
        let ph = declare_job(&mut top, "OUTER", "pegasus::dax", 1.0, &[], &[]);
        let flat = top.with_inlined_subworkflow(ph, &mid).unwrap();
        assert!(flat.job_by_name("OUTER/INNER/s1").is_some());
        let s1 = flat.job_by_name("OUTER/INNER/s1").unwrap();
        let out = flat.outputs(s1).iter().next().expect("one output");
        assert_eq!(out.name, "OUTER/INNER/mid");
        flat.validate().unwrap();
    }

    #[test]
    fn a_rewritten_row_shares_its_source_handles() {
        let mut wf = AbstractWorkflow::new("w");
        let args = Args::from([Name::from("-x")]);
        let (dict, out) = ([("dict", 7)], [("out", 0)]);
        let a = wf.declare().job("j", "t", args, 2.5, dict, out).unwrap();
        let b = declare_job(&mut wf, "k", "t", 1.0, &[("dict", 9)], &[]);
        // One table entry per distinct file, one flat slot per use.
        assert_eq!(wf.files().len(), 2);
        assert_eq!(wf.use_count(), 3);
        let dict = wf.inputs(a).iter().next().unwrap();
        assert_eq!(dict.name, "dict");
        // The second use is the same file, with the size it declared.
        let again = wf.inputs(b).iter().next().unwrap();
        assert_eq!(again.file, dict.file);
        assert_eq!((dict.size_bytes, again.size_bytes), (7, 9));
        assert!(wf.outputs(b).is_empty());

        // A copy into another workflow clones handles, not bytes, and
        // names its files afresh in the copy's own table.
        let mut copy = AbstractWorkflow::new("copy");
        declare_job(&mut copy, "first", "t", 1.0, &[("out", 0)], &[]);
        let c = copy.declare().copy(&wf, a).unwrap();
        let (row, source) = (copy.job(c), wf.job(a));
        assert!(Name::ptr_eq(&row.id, &source.id));
        assert!(Name::ptr_eq(&row.transformation, &source.transformation));
        assert!(Args::ptr_eq(&row.args, &source.args));
        assert_eq!(row.runtime_hint, 2.5);
        assert_eq!(copy.inputs(c), wf.inputs(a));
        assert_eq!(copy.outputs(c), wf.outputs(a));
        let ids = |uses: Uses<'_>| uses.ids().to_vec();
        assert_eq!(ids(copy.outputs(c)), [FileId::new(0)]);
        assert_eq!(
            copy.declare().copy(&wf, a),
            Err(WmsError::DuplicateJob("j".into()))
        );
    }
}
