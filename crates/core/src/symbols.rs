//! Interned identifiers and shared names: typed `u32` newtypes, the
//! side table that maps them back to names, and the [`Name`] handle
//! every layer holds instead of a `String`.
//!
//! The hot path of a workflow run — planning, scheduling, retrying,
//! event emission — touches every job and file many times. Carrying
//! owned `String` keys through those layers means a clone and a hash
//! of the full name per touch; at the million-task scale the ROADMAP
//! targets, that is the dominant cost in both time and memory. The
//! rule that replaces it: **the bytes of a name are allocated at one
//! boundary, and every later layer holds a handle or an id, never a
//! fresh `String`.** Which of the two depends on what the name is for.
//!
//! * **Names that are carried** — job names, transformations,
//!   arguments, failure reasons — become a [`Name`] (a
//!   reference-counted `str`) where they enter: the DAX parser, a
//!   workflow generator declaring a row
//!   ([`crate::workflow::Declare::job`]), the event-log parser, a
//!   backend reporting a failure; a rewrite of a workflow (clustering,
//!   reduction, inlining) clones its source row's handles and makes a
//!   name only for a job it creates. `workflow`,
//!   `planner`, `engine`, `events` and the `WorkflowRun` records clone
//!   the handle, which copies no bytes: job *i*'s name in the abstract
//!   workflow, in `ExecutableJob`, in its `JobDeclared` event and in
//!   its `JobRecord` is one allocation, and so are a failure's reason
//!   in its `Failed` event, its `RetryScheduled` and the record's
//!   `FailedAttempt`. Names that repeat across a document (a
//!   transformation on 10^5 jobs) go through a [`NamePool`] at the
//!   parser, so they too are one allocation. Only a boundary turns a
//!   `&str` into a `Name`; everything downstream only clones.
//! * **Names that are looked up** — logical files in an abstract
//!   workflow, job ids while a DAX is being parsed — are interned into
//!   a [`SymbolTable`], and everything downstream moves 4-byte
//!   [`JobId`]/[`FileId`] values that index dense `Vec`s. The table
//!   keeps the bytes itself, end to end in one buffer, so 3 × 10^5
//!   file names are three allocations, not 3 × 10^5; a file's name is
//!   read back as a `&str` ([`SymbolTable::resolve`]) at the output
//!   boundary — a DAX `<uses>`, a `stage_in_<file>` job name.
//!
//! The ids are deliberately *dense* (0..n in declaration order), so
//! they double as vector indices — `records[job.idx()]` — and the
//! symbol table is append-only, so a resolved `&str` stays valid for
//! the table's lifetime.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

/// A shared, immutable name: the bytes live in one allocation and
/// every holder clones the handle (a reference-count bump), never the
/// text.
///
/// `Name` reads like a `str` everywhere — it derefs to one, compares
/// with `str`/`&str`/`String`, and `Display`s/`Debug`s exactly as the
/// `str` would, so text formats and `Debug` goldens cannot tell it
/// from the `String` it replaced. Building one from a `&str` or
/// `String` **allocates**; that is reserved for the boundaries named
/// in the module docs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a plain `&str`.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// `true` when both handles point at the same allocation — the
    /// sharing the one-boundary rule promises, as opposed to two
    /// equal copies.
    #[inline]
    pub fn ptr_eq(a: &Name, b: &Name) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Name {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    #[inline]
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Self {
        Name(Arc::from(s.as_str()))
    }
}

impl From<Name> for String {
    fn from(n: Name) -> String {
        n.as_str().to_owned()
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

/// Names that repeat across a document — transformations in a DAX,
/// transformations and failure reasons in an event log: the parser
/// asks the pool for each occurrence and gets one handle per distinct
/// text, so a name used by 10^5 jobs is still one allocation.
#[derive(Debug, Default, Clone)]
pub struct NamePool {
    names: HashSet<Name>,
}

impl NamePool {
    /// The pool's handle for `text`, allocated on first sight.
    pub fn share(&mut self, text: &str) -> Name {
        match self.names.get(text) {
            Some(known) => known.clone(),
            None => {
                let new = Name::from(text);
                self.names.insert(new.clone());
                new
            }
        }
    }
}

/// A job's argument list as one shared, immutable slice of [`Name`]s:
/// the planner hands a compute job its abstract job's arguments by
/// cloning this handle, with no per-job `Vec`. The empty list
/// allocates nothing, and a list of one argument is that argument's
/// handle, so it costs the one allocation of its name — a generator's
/// `run_cap3 <index>` is the common case. A longer list is a handle
/// on one shared `Vec`: its names and two allocations, the price of
/// keeping an `Args` at 16 bytes.
#[derive(Clone, Default)]
pub struct Args(Repr);

/// The shapes of an [`Args`]; each list has exactly one.
#[derive(Clone)]
enum Repr {
    One(Name),
    /// The empty list, or two names and more.
    List(Option<Arc<Vec<Name>>>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::List(None)
    }
}

impl Args {
    /// The empty argument list.
    pub const fn new() -> Self {
        Args(Repr::List(None))
    }

    /// `true` when both lists are one allocation (or both empty).
    pub fn ptr_eq(a: &Args, b: &Args) -> bool {
        match (&a.0, &b.0) {
            (Repr::One(a), Repr::One(b)) => Name::ptr_eq(a, b),
            (Repr::List(None), Repr::List(None)) => true,
            (Repr::List(Some(a)), Repr::List(Some(b))) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Deref for Args {
    type Target = [Name];
    #[inline]
    fn deref(&self) -> &[Name] {
        match &self.0 {
            Repr::One(name) => std::slice::from_ref(name),
            Repr::List(Some(names)) => names,
            Repr::List(None) => &[],
        }
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Args {}

impl<T: AsRef<str>> PartialEq<Vec<T>> for Args {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other)
                .all(|(a, b)| a.as_str() == b.as_ref())
    }
}

impl std::hash::Hash for Args {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<Vec<Name>> for Args {
    fn from(mut v: Vec<Name>) -> Self {
        match v.len() {
            0 => Args::new(),
            1 => Args(Repr::One(v.swap_remove(0))),
            _ => Args(Repr::List(Some(Arc::new(v)))),
        }
    }
}

impl<const N: usize> From<[Name; N]> for Args {
    fn from(v: [Name; N]) -> Self {
        match N {
            1 => Args(v.into_iter().next().map_or(Repr::List(None), Repr::One)),
            _ => Args::from(Vec::from(v)),
        }
    }
}

impl From<&[Name]> for Args {
    fn from(v: &[Name]) -> Self {
        match v {
            [one] => Args(Repr::One(one.clone())),
            v => Args::from(v.to_vec()),
        }
    }
}

/// Identifier of one job: a dense index into the owning workflow's
/// job vector.
///
/// `JobId` is `Display`ed as its bare decimal index, so text formats
/// (the event log, rescue DAGs) are byte-identical to the era when
/// job ids were plain `usize`s.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct JobId(u32);

/// Identifier of one logical file, interned per plan or parse.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FileId(u32);

/// Identifier of one execution site, interned into a site registry.
///
/// Sites are few (the paper's two, plus user-defined platforms), so a
/// `u16` is ample; the narrower width keeps structures that embed a
/// site id alongside other small fields compact. Like [`JobId`],
/// `SiteId` is `Display`ed as its bare decimal index — names appear
/// only at render boundaries.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SiteId(u16);

impl SiteId {
    /// Wraps a dense index.
    ///
    /// # Panics
    /// Panics (debug) if `index` does not fit in `u16` — 65 thousand
    /// sites is beyond any registry this system loads.
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(index <= u16::MAX as usize, "site index overflows u16");
        SiteId(index as u16)
    }

    /// The dense index, for direct `Vec` indexing.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for SiteId {
    #[inline]
    fn from(index: usize) -> Self {
        SiteId::new(index)
    }
}

impl From<SiteId> for usize {
    #[inline]
    fn from(id: SiteId) -> usize {
        id.idx()
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl std::str::FromStr for SiteId {
    type Err = std::num::ParseIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.parse::<u16>().map(SiteId)
    }
}

impl Symbol for SiteId {
    #[inline]
    fn from_raw(raw: u32) -> Self {
        debug_assert!(raw <= u16::MAX as u32, "site index overflows u16");
        SiteId(raw as u16)
    }
    #[inline]
    fn into_raw(self) -> u32 {
        self.0 as u32
    }
}

macro_rules! impl_symbol_id {
    ($name:ident) => {
        impl $name {
            /// Wraps a dense index.
            ///
            /// # Panics
            /// Panics if `index` does not fit in `u32` — 4 billion
            /// jobs is beyond any workflow this system plans.
            #[inline]
            pub fn new(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize, "symbol index overflows u32");
                $name(index as u32)
            }

            /// The dense index, for direct `Vec` indexing.
            #[inline]
            pub const fn idx(self) -> usize {
                self.0 as usize
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(index: usize) -> Self {
                $name::new(index)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.idx()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }

        impl std::str::FromStr for $name {
            type Err = std::num::ParseIntError;
            fn from_str(s: &str) -> Result<Self, Self::Err> {
                s.parse::<u32>().map($name)
            }
        }

        impl Symbol for $name {
            #[inline]
            fn from_raw(raw: u32) -> Self {
                $name(raw)
            }
            #[inline]
            fn into_raw(self) -> u32 {
                self.0
            }
        }
    };
}

impl_symbol_id!(JobId);
impl_symbol_id!(FileId);

/// A typed interned id: conversion to and from the raw `u32` the
/// [`SymbolTable`] hands out.
pub trait Symbol: Copy {
    /// Wraps a raw table slot.
    fn from_raw(raw: u32) -> Self;
    /// Unwraps to the raw table slot.
    fn into_raw(self) -> u32;
}

/// A name → id index over names kept elsewhere, ids dense from 0:
/// `(lower hash bits, id + 1)` slots probed linearly, an id field of 0
/// marking a free slot. A lookup compares the stored hash before it
/// asks whether the id's name is the one sought, and growing re-places
/// entries by their stored hash, so neither rehashes. Hashing is the
/// standard library's keyed SipHash, as for a `HashMap`.
///
/// [`SymbolTable`] indexes its own text with one; a workflow indexes
/// its job ids with one over its rows, so an id is stored once, in
/// its row's [`Name`].
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex {
    /// The length is zero or a power of two, kept at least 4/3 of the
    /// number of ids placed.
    slots: Vec<(u32, u32)>,
    hasher: RandomState,
}

impl NameIndex {
    /// The low half of `name`'s hash: it picks the slot and is stored
    /// in it.
    #[inline]
    pub(crate) fn tag(&self, name: &str) -> u32 {
        self.hasher.hash_one(name) as u32
    }

    /// The placed id tagged `tag` whose name `is` accepts.
    #[inline]
    pub(crate) fn find(&self, tag: u32, is: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = tag as usize & mask;
        loop {
            match self.slots[at] {
                (_, 0) => return None,
                (t, id) if t == tag && is(id - 1) => return Some(id - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Places id `raw`, tagged `tag`, once ids `0..raw` are placed.
    pub(crate) fn place(&mut self, tag: u32, raw: u32) {
        let placed = raw as usize + 1;
        if placed * 4 > self.slots.len() * 3 {
            self.grow(placed * 2);
        }
        Self::place_in(&mut self.slots, tag, raw);
    }

    /// Makes room for `n` ids in all, so placing them re-places none.
    pub(crate) fn reserve(&mut self, n: usize) {
        if n * 4 > self.slots.len() * 3 {
            self.grow(n);
        }
    }

    /// Puts `(tag, id)` into the first free slot of its probe run.
    fn place_in(slots: &mut [(u32, u32)], tag: u32, raw: u32) {
        let mask = slots.len() - 1;
        let mut at = tag as usize & mask;
        while slots[at].1 != 0 {
            at = (at + 1) & mask;
        }
        slots[at] = (tag, raw + 1);
    }

    /// Re-creates the index with room for `n` ids, re-placing every
    /// entry by its stored tag.
    fn grow(&mut self, n: usize) {
        let len = (n * 4 / 3 + 1).next_power_of_two().max(8);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); len]);
        for (tag, id) in old.into_iter().filter(|&(_, id)| id != 0) {
            Self::place_in(&mut self.slots, tag, id - 1);
        }
    }
}

/// An append-only name ↔ id table.
///
/// `intern` is idempotent — the same name always returns the same id,
/// and ids are handed out densely in first-appearance order, so a
/// table built by scanning a workflow in declaration order assigns
/// id `k` to the `k`-th distinct name.
///
/// Each distinct name is stored once, and not as an allocation of its
/// own: the bytes of all names sit end to end in one buffer, `ends`
/// marks where each stops, and the reverse index is a `NameIndex`.
/// That is the name's bytes plus about 16 bytes per entry, three
/// allocations per table however many names it holds, and freeing a
/// table hands back three blocks rather than a heap full of small
/// holes.
///
/// Two tables are equal when they hold the same names in the same
/// order; ids being dense, that is the same id for every name.
#[derive(Clone, Default)]
pub struct SymbolTable<S: Symbol = JobId> {
    /// Every name, end to end.
    text: String,
    /// `ends[id]` is where name `id` stops in `text`; it starts where
    /// the one before it stops.
    ends: Vec<u32>,
    index: NameIndex,
    _typed: PhantomData<S>,
}

impl<S: Symbol> PartialEq for SymbolTable<S> {
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.text == other.text
    }
}

impl<S: Symbol> fmt::Debug for SymbolTable<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, n)| n)).finish()
    }
}

/// Name `raw` of a table's `text` and `ends`.
fn text_of<'t>(text: &'t str, ends: &[u32], raw: u32) -> &'t str {
    let i = raw as usize;
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    &text[start..ends[i] as usize]
}

impl<S: Symbol> SymbolTable<S> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty table with room for `n` names.
    pub fn with_capacity(n: usize) -> Self {
        let mut table = SymbolTable {
            text: String::new(),
            ends: Vec::with_capacity(n),
            index: NameIndex::default(),
            _typed: PhantomData,
        };
        table.index.reserve(n);
        table
    }

    /// Makes room for `n` more names of `bytes` bytes between them, so
    /// interning them neither moves `text` or `ends` nor re-places the
    /// index.
    pub(crate) fn reserve(&mut self, n: usize, bytes: usize) {
        self.text.reserve(bytes);
        self.ends.reserve(n);
        self.index.reserve(self.ends.len() + n);
    }

    /// Interns `name`, returning its stable id. Repeated calls with
    /// the same name return the same id without allocating.
    pub fn intern(&mut self, name: &str) -> S {
        let tag = self.index.tag(name);
        S::from_raw(self.intern_tagged(name, tag))
    }

    /// [`SymbolTable::intern`] once the name's hash tag is known.
    fn intern_tagged(&mut self, name: &str, tag: u32) -> u32 {
        if let Some(raw) = self.find(name, tag) {
            return raw;
        }
        let raw = u32::try_from(self.ends.len())
            .ok()
            .filter(|&raw| raw < u32::MAX)
            .expect("symbol table overflows u32");
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("symbol table overflows u32");
        self.ends.push(end);
        self.index.place(tag, raw);
        raw
    }

    /// The id of `name`, whose hash tag is `tag`, if the table holds
    /// it.
    fn find(&self, name: &str, tag: u32) -> Option<u32> {
        let (text, ends) = (&self.text, &self.ends);
        self.index.find(tag, |raw| text_of(text, ends, raw) == name)
    }

    fn text_of(&self, raw: u32) -> &str {
        text_of(&self.text, &self.ends, raw)
    }

    /// Looks up a name without interning it.
    pub fn get(&self, name: &str) -> Option<S> {
        self.find(name, self.index.tag(name)).map(S::from_raw)
    }

    /// Resolves an id back to its name.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub fn resolve(&self, id: S) -> &str {
        self.text_of(id.into_raw())
    }

    /// The bytes of every name, end to end.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (S, &str)> {
        (0..self.ends.len() as u32).map(|raw| (S::from_raw(raw), self.text_of(raw)))
    }

    /// Returns the slack a growing table over-allocated.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t: SymbolTable<JobId> = SymbolTable::new();
        let a = t.intern("split");
        let b = t.intern("run_cap3_0");
        let a2 = t.intern("split");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.idx(), 0);
        assert_eq!(b.idx(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t: SymbolTable<FileId> = SymbolTable::new();
        for name in ["transcripts.fasta", "chunk_0.fasta", "транскрипты.fa"] {
            let id = t.intern(name);
            assert_eq!(t.resolve(id), name);
        }
    }

    #[test]
    fn duplicate_prefixes_stay_distinct() {
        let mut t: SymbolTable<JobId> = SymbolTable::new();
        let a = t.intern("run_cap3_1");
        let b = t.intern("run_cap3_10");
        let c = t.intern("run_cap3_100");
        assert!(a != b && b != c && a != c);
        assert_eq!(t.resolve(b), "run_cap3_10");
    }

    #[test]
    fn names_survive_every_growth_of_the_index() {
        let mut t: SymbolTable<FileId> = SymbolTable::new();
        let name = |i: usize| format!("joined_ids_{i}.txt");
        let mut slot_counts = std::collections::BTreeSet::new();
        for i in 0..5000 {
            assert_eq!(t.intern(&name(i)).idx(), i);
            slot_counts.insert(t.index.slots.len());
            // Load stays under 3/4, so a probe always meets a free slot.
            assert!(t.len() * 4 <= t.index.slots.len() * 3);
            // A name from before the growth is still found, not re-added.
            assert_eq!(t.intern(&name(i / 2)).idx(), i / 2);
        }
        assert!(slot_counts.len() > 4, "the index grew {slot_counts:?}");
        assert_eq!(t.len(), 5000);
        for i in 0..5000 {
            assert_eq!(t.get(&name(i)), Some(FileId::new(i)));
            assert_eq!(t.resolve(FileId::new(i)), name(i));
        }
        assert_eq!(t.get("joined_ids_5000.txt"), None);
        assert_eq!(t.get(""), None);
        let copy = t.clone();
        assert_eq!(copy, t);
        assert_eq!(copy.get(&name(4999)), Some(FileId::new(4999)));
    }

    #[test]
    fn colliding_tags_and_slots_keep_names_apart() {
        // Tags are forged so the collisions are certain: 7, 15 and 23
        // share slot 7 of an 8-slot index, whose probe run wraps to
        // slot 0; two names share the whole tag 7.
        let mut t: SymbolTable<JobId> = SymbolTable::new();
        let forged = [("a", 7), ("b", 7), ("c", 15), ("", 23), ("d", 0)];
        for (raw, (name, tag)) in forged.into_iter().enumerate() {
            assert_eq!(t.intern_tagged(name, tag), raw as u32);
            assert_eq!(t.index.slots.len(), 8);
        }
        for (raw, (name, tag)) in forged.into_iter().enumerate() {
            assert_eq!(t.find(name, tag), Some(raw as u32));
            assert_eq!(t.intern_tagged(name, tag), raw as u32);
            assert_eq!(t.resolve(JobId::new(raw)), name);
        }
        // Same tag, other name; same name, other tag.
        assert_eq!(t.find("e", 7), None);
        assert_eq!(t.find("a", 15), None);
        // Growth re-places the run by the stored tags.
        t.index.grow(64);
        for (raw, (name, tag)) in forged.into_iter().enumerate() {
            assert_eq!(t.find(name, tag), Some(raw as u32));
        }
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn reserved_room_is_not_regrown_and_changes_no_id() {
        let mut t: SymbolTable<FileId> = SymbolTable::new();
        assert_eq!(t.intern("dict").idx(), 0);
        let name = |i: usize| format!("protein_{i}.txt");
        let names: usize = (0..300).map(|i| name(i).len()).sum();
        t.reserve(300, names);
        let (slots, room, bytes) = (t.index.slots.len(), t.ends.capacity(), t.text.capacity());
        assert!(301 * 4 <= slots * 3 && room >= 301);
        for i in 0..300 {
            assert_eq!(t.intern(&name(i)).idx(), i + 1);
        }
        let now = (t.index.slots.len(), t.ends.capacity(), t.text.capacity());
        assert_eq!(now, (slots, room, bytes));
        assert_eq!(t.text_len(), "dict".len() + names);
        assert_eq!(t.get("dict"), Some(FileId::new(0)));
        t.reserve(0, 0);
        assert_eq!(t.index.slots.len(), slots);
    }

    #[test]
    fn args_of_an_array_are_the_args_of_its_vec() {
        let one = Args::from([Name::from("-n")]);
        assert_eq!(one, Args::from(vec![Name::from("-n")]));
        assert_eq!(one, vec!["-n"]);
        let none: [Name; 0] = [];
        assert!(Args::ptr_eq(&Args::from(none), &Args::new()));
        let two = Args::from([Name::from("-n"), Name::from("3")]);
        assert_eq!(two, Args::from(&two[..]));
        assert_eq!(two, vec!["-n", "3"]);
        assert_ne!(two, one);
    }

    #[test]
    fn one_argument_is_its_name_and_a_list_is_shared() {
        // One argument: the list is the name's handle, no allocation
        // of its own.
        let name = Name::from("17");
        let one = Args::from([name.clone()]);
        assert!(Name::ptr_eq(&one[0], &name));
        assert!(Args::ptr_eq(&one, &one.clone()));
        assert!(Args::ptr_eq(&Args::from(&one[..]), &one));
        // Two and more: one shared list, cloned by handle.
        let two = Args::from(vec![Name::from("-n"), name]);
        assert!(Args::ptr_eq(&two, &two.clone()));
        assert!(!Args::ptr_eq(&two, &Args::from(&two[..])));
        assert_eq!(std::mem::size_of::<Args>(), 16);
    }

    #[test]
    fn get_does_not_intern() {
        let mut t: SymbolTable<JobId> = SymbolTable::new();
        assert_eq!(t.get("merge"), None);
        let id = t.intern("merge");
        assert_eq!(t.get("merge"), Some(id));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_display_as_bare_indices() {
        assert_eq!(JobId::new(17).to_string(), "17");
        assert_eq!(FileId::new(0).to_string(), "0");
        assert_eq!("17".parse::<JobId>().unwrap(), JobId::new(17));
    }

    #[test]
    fn iter_yields_interning_order() {
        let mut t: SymbolTable<JobId> = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        let pairs: Vec<(usize, String)> =
            t.iter().map(|(id, n)| (id.idx(), n.to_string())).collect();
        assert_eq!(pairs, vec![(0, "a".to_string()), (1, "b".to_string())]);
    }
}
