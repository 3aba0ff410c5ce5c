//! DAX: the "directed acyclic graph in XML" interchange format.
//!
//! Pegasus workflows are described by DAX files listing jobs, their
//! arguments, the files they use (`link="input"`/`link="output"`), and
//! explicit parent/child relations. This module writes an
//! [`AbstractWorkflow`] as a DAX 3-style document and parses such
//! documents back, using a small built-in XML scanner (no external
//! dependencies, and only the subset of XML that DAX needs).
//!
//! Round-trip caveat: arguments are serialized space-joined inside
//! `<argument>`, so individual arguments containing whitespace do not
//! survive a round trip — the same limitation the real DAX text layout
//! has.

use crate::error::{Format, Span, WmsError};
use crate::line::{push_f64, push_u64};
use crate::symbols::{Args, Name, NamePool};
use crate::workflow::{AbstractWorkflow, JobIndex};
use std::borrow::Cow;

#[cfg(test)]
mod oracle;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends `s` to `out` with the five XML-special characters escaped.
fn push_escaped(out: &mut String, s: &str) {
    let special = |b: &u8| matches!(b, b'&' | b'<' | b'>' | b'"' | b'\'');
    let mut rest = s;
    while let Some(i) = rest.bytes().position(|b| special(&b)) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => "&apos;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Appends `pieces` to `out`, escaping the pieces at odd positions:
/// markup, value, markup, value, ...
fn push_markup(out: &mut String, pieces: &[&str]) {
    for (i, piece) in pieces.iter().enumerate() {
        if i % 2 == 0 {
            out.push_str(piece);
        } else {
            push_escaped(out, piece);
        }
    }
}

/// Undoes [`push_escaped`]: one left-to-right pass over the five
/// predefined entities (anything else after an `&` stays verbatim).
/// Borrows `s` unless it contains an `&`.
fn unescape_xml(s: &str) -> Cow<'_, str> {
    const ENTITIES: [(&str, char); 5] = [
        ("&lt;", '<'),
        ("&gt;", '>'),
        ("&quot;", '"'),
        ("&apos;", '\''),
        ("&amp;", '&'),
    ];
    let Some(first) = find_byte(s, b'&') else {
        return Cow::Borrowed(s);
    };
    let mut out = String::with_capacity(s.len());
    out.push_str(&s[..first]);
    let mut rest = &s[first..];
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        match ENTITIES.iter().find(|(e, _)| rest.starts_with(e)) {
            Some((entity, c)) => {
                out.push(*c);
                rest = &rest[entity.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Serializes a workflow as a DAX document. Numbers are written by
/// [`crate::line`]'s routines, the text `Display` would write.
pub fn to_dax(wf: &AbstractWorkflow) -> String {
    let _prof = crate::prof::scope("dax.write");
    // Close to a line of markup per job and per file use.
    let mut out = String::with_capacity(96 * wf.jobs.len() + 64 * wf.use_count());
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    push_markup(&mut out, &["<adag name=\"", &wf.name, "\" jobCount=\""]);
    push_u64(&mut out, wf.jobs.len() as u64);
    out.push_str("\">\n");
    for id in wf.job_ids() {
        let job = wf.job(id);
        let header = ["  <job id=\"", &job.id, "\" name=\"", &job.transformation];
        push_markup(&mut out, &header);
        out.push_str("\" runtime=\"");
        push_f64(&mut out, job.runtime_hint);
        out.push_str("\">\n");
        if !job.args.is_empty() {
            out.push_str("    <argument>");
            for (i, a) in job.args.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                push_escaped(&mut out, a);
            }
            out.push_str("</argument>\n");
        }
        for (link, uses) in [
            ("\" link=\"input\" size=\"", wf.inputs(id)),
            ("\" link=\"output\" size=\"", wf.outputs(id)),
        ] {
            for f in uses.iter() {
                push_markup(&mut out, &["    <uses file=\"", f.name, link]);
                push_u64(&mut out, f.size_bytes);
                out.push_str("\"/>\n");
            }
        }
        out.push_str("  </job>\n");
    }
    for &(p, c) in &wf.explicit_edges {
        let (child, parent) = (&wf.jobs[c.idx()].id, &wf.jobs[p.idx()].id);
        let edge = ["  <child ref=\"", child, "\"><parent ref=\"", parent];
        push_markup(&mut out, &edge);
        out.push_str("\"/></child>\n");
    }
    out.push_str("</adag>\n");
    out
}

// ---------------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------------

/// The attributes of tags, in document order. Names are slices of the
/// input; so are values, unless they had an entity to decode.
type Attrs<'a> = Vec<(&'a str, Cow<'a, str>)>;

#[derive(Debug, Clone, PartialEq)]
enum XmlEvent<'a> {
    /// An opening tag; its attributes are what
    /// [`XmlScanner::next_event`] appended to the buffer it was handed.
    Open {
        name: &'a str,
        self_closing: bool,
    },
    Close(&'a str),
    Text(Cow<'a, str>),
}

/// A scanner that copies nothing: every name, value and text node it
/// yields is a slice of the input (entity-bearing values excepted),
/// and it keeps only a byte offset — the line and column of an error
/// are counted from the offset when the error is raised. It looks for
/// a delimiter eight bytes at a time ([`find_byte`]) and tells a name
/// byte by a table ([`NAME_BYTES`]).
struct XmlScanner<'a> {
    text: &'a str,
    pos: usize,
    /// Offset of the `<` that opened the most recent tag; semantic
    /// errors about a tag point here rather than at the scan cursor.
    tag: usize,
}

/// One-based line and column (in bytes) of byte offset `pos` of `text`.
fn span_at(text: &str, pos: usize) -> Span {
    let before = &text.as_bytes()[..pos];
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let line = 1 + before[..line_start].iter().filter(|&&b| b == b'\n').count();
    Span::new(line, pos - line_start + 1)
}

/// The bytes of a tag or attribute name: ASCII letters and digits,
/// `_`, `-`, `:` and `.`.
const NAME_BYTES: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b':' | b'.');
        b += 1;
    }
    table
};

impl<'a> XmlScanner<'a> {
    fn new(text: &'a str) -> Self {
        XmlScanner {
            text,
            pos: 0,
            tag: 0,
        }
    }

    #[cold]
    fn err(&self, reason: impl Into<String>) -> WmsError {
        Format::Dax.error(span_at(self.text, self.pos), reason)
    }

    #[cold]
    fn tag_err(&self, reason: impl Into<String>) -> WmsError {
        Format::Dax.error(span_at(self.text, self.tag), reason)
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Moves the cursor just past the next `needle`.
    fn skip_until(&mut self, needle: &str) -> Result<(), WmsError> {
        match self.text[self.pos..].find(needle) {
            Some(i) => {
                self.pos += i + needle.len();
                Ok(())
            }
            None => {
                // Where a byte-by-byte search gives up: the last
                // offset the needle could still have started at.
                self.pos = self
                    .pos
                    .max((self.text.len() + 1).saturating_sub(needle.len()));
                Err(self.err(format!("unterminated construct, expected {needle:?}")))
            }
        }
    }

    /// Moves the cursor past the `>` that closes a `<!DOCTYPE`: the
    /// first one outside a quoted literal and outside the `[...]`
    /// internal subset.
    fn skip_doctype(&mut self) -> Result<(), WmsError> {
        let (mut depth, mut quote) = (0usize, None);
        while let Some(b) = self.bump() {
            match (quote, b) {
                (Some(q), _) if b == q => quote = None,
                (Some(_), _) => {}
                (None, b'"' | b'\'') => quote = Some(b),
                (None, b'[') => depth += 1,
                (None, b']') => depth = depth.saturating_sub(1),
                (None, b'>') if depth == 0 => return Ok(()),
                (None, _) => {}
            }
        }
        Err(self.err("unterminated construct, expected \">\""))
    }

    #[inline]
    fn read_name(&mut self) -> &'a str {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while bytes
            .get(self.pos)
            .is_some_and(|&b| NAME_BYTES[usize::from(b)])
        {
            self.pos += 1;
        }
        // Both ends sit on ASCII bytes (or the input's ends), so the
        // slice is on character boundaries.
        &self.text[start..self.pos]
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Appends the attributes up to the tag's end to `attrs`; returns
    /// whether the tag closed itself.
    fn read_attrs(&mut self, attrs: &mut Attrs<'a>) -> Result<bool, WmsError> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        return Ok(true);
                    }
                    return Err(self.err("stray '/' in tag"));
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(false);
                }
                Some(_) => {
                    let name = self.read_name();
                    if name.is_empty() {
                        return Err(self.err("expected attribute name"));
                    }
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err(format!("attribute {name:?} missing '='")));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self
                        .bump()
                        .filter(|&q| q == b'"' || q == b'\'')
                        .ok_or_else(|| self.err("attribute value must be quoted"))?;
                    let start = self.pos;
                    let rest = &self.text[start..];
                    // One pass finds the closing quote or, first, an
                    // entity to decode.
                    let (len, entity) = match find_either(rest, quote, b'&') {
                        Some(i) if rest.as_bytes()[i] == b'&' => {
                            (find_byte(&rest[i..], quote).map(|j| i + j), true)
                        }
                        found => (found, false),
                    };
                    let Some(len) = len else {
                        self.pos = self.text.len();
                        return Err(self.err("unterminated attribute value"));
                    };
                    self.pos = start + len + 1;
                    let value = &rest[..len];
                    let value = if entity {
                        unescape_xml(value)
                    } else {
                        Cow::Borrowed(value)
                    };
                    attrs.push((name, value));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
    }

    /// Next event, or `None` at clean end of input. The attributes of
    /// an `Open` event are appended to `attrs`.
    fn next_event(&mut self, attrs: &mut Attrs<'a>) -> Result<Option<XmlEvent<'a>>, WmsError> {
        loop {
            // Text before the next '<', most often the indentation
            // between two tags.
            let start = self.pos;
            self.skip_ws();
            if self.peek() != Some(b'<') {
                let from = self.pos;
                self.pos =
                    find_byte(&self.text[from..], b'<').map_or(self.text.len(), |i| from + i);
                let trimmed = self.text[start..self.pos].trim();
                if !trimmed.is_empty() {
                    return Ok(Some(XmlEvent::Text(unescape_xml(trimmed))));
                }
                if self.peek().is_none() {
                    return Ok(None);
                }
            }
            self.tag = self.pos;
            self.pos += 1; // consume '<'
            let rest = &self.text[self.pos..];
            match self.peek() {
                Some(b'?') => self.skip_until("?>")?,
                Some(b'!') if rest.starts_with("!--") => self.skip_until("-->")?,
                Some(b'!') if rest.starts_with("!DOCTYPE") => self.skip_doctype()?,
                Some(b'!') if rest.starts_with("![CDATA[") => {
                    return Err(self.tag_err("CDATA sections are not supported"));
                }
                Some(b'!') => {
                    return Err(self.tag_err("unsupported '<!' declaration"));
                }
                Some(b'/') => {
                    self.pos += 1;
                    let name = self.read_name();
                    self.skip_ws();
                    if self.bump() != Some(b'>') {
                        return Err(self.err(format!("malformed closing tag </{name}")));
                    }
                    return Ok(Some(XmlEvent::Close(name)));
                }
                Some(_) => {
                    let name = self.read_name();
                    if name.is_empty() {
                        return Err(self.err("expected tag name after '<'"));
                    }
                    let self_closing = self.read_attrs(attrs)?;
                    return Ok(Some(XmlEvent::Open { name, self_closing }));
                }
                None => return Err(self.err("dangling '<' at end of input")),
            }
        }
    }
}

/// The low bit of every byte of a word, and the high bit.
const LOW_BITS: u64 = u64::from_ne_bytes([0x01; 8]);
const HIGH_BITS: u64 = u64::from_ne_bytes([0x80; 8]);

/// The high bit of each byte of `word` that equals `byte`, exact up to
/// the first such byte (a borrow may mark bytes after it): the lowest
/// set bit is the first match, read little-endian.
#[inline]
fn matches_of(word: u64, byte: u8) -> u64 {
    let x = word ^ (LOW_BITS * u64::from(byte));
    x.wrapping_sub(LOW_BITS) & !x & HIGH_BITS
}

/// Offset of the first `a` or `b` of `s`, eight bytes a step in plain
/// integer arithmetic — the word-at-a-time search `memchr` does, in
/// std only. The delimiters are ASCII, so an offset found is on a
/// character boundary.
#[inline]
fn find_either(s: &str, a: u8, b: u8) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in words.by_ref() {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        let word = u64::from_le_bytes(word);
        let found = matches_of(word, a) | matches_of(word, b);
        if found != 0 {
            return Some(at + (found.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let tail = words.remainder().iter().position(|&c| c == a || c == b);
    tail.map(|i| at + i)
}

/// Offset of the first `byte` of `s`: [`find_either`] of one needle.
#[inline]
fn find_byte(s: &str, byte: u8) -> Option<usize> {
    find_either(s, byte, byte)
}

// ---------------------------------------------------------------------------
// Parsing DAX
// ---------------------------------------------------------------------------

fn attr<'b>(attrs: &'b [(&str, Cow<'_, str>)], key: &str) -> Option<&'b str> {
    attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| &**v)
}

/// Takes the value of attribute `key` out of `attrs`, keeping the
/// input's lifetime on a borrowed value.
fn take_attr<'a>(attrs: &mut [(&'a str, Cow<'a, str>)], key: &str) -> Option<Cow<'a, str>> {
    let slot = attrs.iter_mut().find(|(k, _)| *k == key)?;
    Some(std::mem::take(&mut slot.1))
}

/// Parses a DAX document back into an [`AbstractWorkflow`].
pub fn from_dax(text: &str) -> Result<AbstractWorkflow, WmsError> {
    let _prof = crate::prof::scope("dax.parse");
    let wf = from_dax_unvalidated(text)?;
    // A syntactically well-formed DAX can still describe a cyclic graph
    // or give one file two producers; surface those as their own typed
    // errors rather than letting downstream planning panic.
    let _validate = crate::prof::scope("dax.validate");
    wf.validate()?;
    Ok(wf)
}

/// A `<job>` whose closing tag has not been read yet.
struct OpenJob {
    id: Name,
    transformation: Name,
    runtime_hint: f64,
}

/// What the parser reuses from job to job, so reading a job allocates
/// only the names it declares. File names stay slices of the input
/// until the job closes: [`AbstractWorkflow::push_row`] interns them.
#[derive(Default)]
struct JobScratch<'a> {
    args: Vec<Name>,
    inputs: Vec<(Cow<'a, str>, u64)>,
    outputs: Vec<(Cow<'a, str>, u64)>,
}

impl JobScratch<'_> {
    fn clear(&mut self) {
        self.args.clear();
        self.inputs.clear();
        self.outputs.clear();
    }
}

/// How many events the scanner reads before the builder takes them:
/// enough that switching between the two costs nothing, few enough
/// that a batch stays in cache.
const BATCH: usize = 4096;

/// One batch of scanned events, each with the offset of the tag it
/// came from and the range of its attributes in `attrs`.
#[derive(Default)]
struct Tape<'a> {
    events: Vec<(XmlEvent<'a>, usize, (usize, usize))>,
    attrs: Attrs<'a>,
}

impl<'a> Tape<'a> {
    /// Scans up to [`BATCH`] events; `Ok(false)` once the input ends.
    /// An error ends the batch too: the events before it are kept, and
    /// the builder sees them before the error is raised, so the first
    /// error in document order is the one reported.
    fn fill(&mut self, scan: &mut XmlScanner<'a>) -> Result<bool, WmsError> {
        self.events.clear();
        self.attrs.clear();
        while self.events.len() < BATCH {
            let from = self.attrs.len();
            let Some(event) = scan.next_event(&mut self.attrs)? else {
                return Ok(false);
            };
            let range = (from, self.attrs.len());
            self.events.push((event, scan.tag, range));
        }
        Ok(true)
    }
}

/// The parse's state between events: the workflow being built and
/// what is open in it.
struct Builder<'a> {
    text: &'a str,
    wf: Option<AbstractWorkflow>,
    /// Job ids are indexed as they are declared, so duplicate
    /// detection and the `<child>`/`<parent>` ref resolution below are
    /// hash lookups rather than linear scans over the job list —
    /// without this a million-job DAX costs O(n²) to parse. The index
    /// keeps no text: an id is its row's `Name`.
    ids: JobIndex,
    /// A workflow has few transformations and many jobs of each.
    transformations: NamePool,
    adag_closed: bool,
    cur_job: Option<OpenJob>,
    scratch: JobScratch<'a>,
    in_argument: bool,
    cur_child: Option<Cow<'a, str>>,
    /// `(parent, child)`, resolved once every job is in.
    pending_edges: Vec<(Cow<'a, str>, Cow<'a, str>)>,
}

impl<'a> Builder<'a> {
    fn new(text: &'a str) -> Self {
        Builder {
            text,
            wf: None,
            ids: JobIndex::default(),
            transformations: NamePool::default(),
            adag_closed: false,
            cur_job: None,
            scratch: JobScratch::default(),
            in_argument: false,
            cur_child: None,
            pending_edges: Vec::new(),
        }
    }

    /// Intern-then-store, erroring on redeclaration at the tag: the row
    /// path under `AbstractWorkflow::declare`, with a span.
    fn store_job(&mut self, job: OpenJob, tag: usize) -> Result<(), WmsError> {
        let Some(wf) = self.wf.as_mut() else {
            return Err(tag_err(self.text, tag, "</job> outside <adag>"));
        };
        let args = Args::from(self.scratch.args.as_slice());
        let row = (job.id, job.transformation, args, job.runtime_hint);
        fn side<'s>(uses: &'s [(Cow<'_, str>, u64)]) -> impl Iterator<Item = (&'s str, u64)> {
            uses.iter().map(|(name, size)| (&**name, *size))
        }
        let (inputs, outputs) = (side(&self.scratch.inputs), side(&self.scratch.outputs));
        match self.ids.push(wf, row, inputs, outputs) {
            Ok(_) => Ok(()),
            Err(e) => Err(Format::Dax.error_as("E0102", span_at(self.text, tag), e.to_string())),
        }
    }

    /// Takes one event, scanned at the tag that opens at `tag`, with
    /// its attributes.
    fn event(
        &mut self,
        event: XmlEvent<'a>,
        tag: usize,
        attrs: &mut [(&'a str, Cow<'a, str>)],
    ) -> Result<(), WmsError> {
        let err = |reason: String| tag_err(self.text, tag, reason);
        match event {
            XmlEvent::Open { name, self_closing } => match name {
                "adag" => {
                    // A second <adag> would start over and drop every
                    // job read so far.
                    if self.wf.is_some() {
                        return Err(err("unexpected second <adag>".into()));
                    }
                    let wname = attr(attrs, "name").unwrap_or("workflow");
                    let wname = unpadded("<adag> name", wname).map_err(err)?;
                    let mut w = AbstractWorkflow::new(wname.to_string());
                    // A hint, so it is trusted only as far as the
                    // document is long enough to hold that many jobs.
                    let hint = attr(attrs, "jobCount").and_then(|n| n.parse::<usize>().ok());
                    w.jobs.reserve(hint.unwrap_or(0).min(self.text.len() / 16));
                    self.ids = JobIndex::of(&w);
                    self.wf = Some(w);
                }
                "job" => {
                    if self.wf.is_none() {
                        return Err(err("<job> outside <adag>".into()));
                    }
                    let id = attr(attrs, "id")
                        .ok_or_else(|| err("<job> missing id attribute".into()))?;
                    let id = unpadded("job id", id).map_err(err)?;
                    let tname = attr(attrs, "name").unwrap_or(id);
                    let transformation = self.transformations.share(tname);
                    // A duration in seconds: `NaN`, `inf` or a negative
                    // would reach the planner's critical path and the
                    // simulator's clock.
                    let runtime_hint = match attr(attrs, "runtime") {
                        Some(rt) => rt
                            .parse()
                            .ok()
                            .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                            .ok_or_else(|| err(format!("bad runtime {rt:?}")))?,
                        None => 1.0,
                    };
                    let job = OpenJob {
                        id: Name::from(id),
                        transformation,
                        runtime_hint,
                    };
                    self.scratch.clear();
                    if self_closing {
                        self.store_job(job, tag)?;
                    } else {
                        self.cur_job = Some(job);
                    }
                }
                "argument" => {
                    if self.cur_job.is_none() {
                        return Err(err("<argument> outside <job>".into()));
                    }
                    self.in_argument = !self_closing;
                }
                "uses" => {
                    if self.cur_job.is_none() {
                        return Err(err("<uses> outside <job>".into()));
                    }
                    let size: u64 = attr(attrs, "size")
                        .unwrap_or("0")
                        .parse()
                        .map_err(|_| err("bad size attribute".into()))?;
                    let side = match attr(attrs, "link") {
                        Some("input") => &mut self.scratch.inputs,
                        Some("output") => &mut self.scratch.outputs,
                        other => {
                            return Err(err(format!(
                                "<uses> link must be input or output, got {other:?}"
                            )))
                        }
                    };
                    let file = take_attr(attrs, "file")
                        .ok_or_else(|| err("<uses> missing file attribute".into()))?;
                    unpadded("<uses> file", &file).map_err(err)?;
                    side.push((file, size));
                }
                "child" => {
                    let r =
                        take_attr(attrs, "ref").ok_or_else(|| err("<child> missing ref".into()))?;
                    self.cur_child = Some(r);
                }
                "parent" => {
                    let child = (self.cur_child.clone())
                        .ok_or_else(|| err("<parent> outside <child>".into()))?;
                    let r = take_attr(attrs, "ref")
                        .ok_or_else(|| err("<parent> missing ref".into()))?;
                    self.pending_edges.push((r, child));
                }
                other => return Err(err(format!("unexpected element <{other}>"))),
            },
            XmlEvent::Close(name) => match name {
                "job" => {
                    let job = (self.cur_job.take()).ok_or_else(|| err("stray </job>".into()))?;
                    self.store_job(job, tag)?;
                }
                "argument" => self.in_argument = false,
                "child" => self.cur_child = None,
                "adag" => self.adag_closed = true,
                "parent" | "uses" => {}
                other => return Err(err(format!("unexpected closing </{other}>"))),
            },
            XmlEvent::Text(text) => {
                if self.in_argument {
                    self.scratch
                        .args
                        .extend(text.split_whitespace().map(Name::from));
                }
            }
        }
        Ok(())
    }

    /// The workflow, once the scanner has read the whole input and
    /// stands at its end, `at`.
    fn finish(self, at: usize) -> Result<AbstractWorkflow, WmsError> {
        let end_err = |reason: String| Format::Dax.error(span_at(self.text, at), reason);
        if let Some(job) = &self.cur_job {
            return Err(end_err(format!(
                "unclosed <job id={:?}> at end of input",
                job.id
            )));
        }
        if self.cur_child.is_some() {
            return Err(end_err("unclosed <child> at end of input".into()));
        }
        let Some(mut wf) = self.wf else {
            return Err(Format::Dax.error(Span::none(), "no <adag> element found"));
        };
        if !self.adag_closed {
            return Err(end_err("unclosed <adag> at end of input".into()));
        }
        // A <child>/<parent> ref is dangling only once every job is in.
        let dangling = |side: &str, id: &str| {
            let reason = format!("edge references unknown {side} {id:?}");
            Format::Dax.error_as("E0105", Span::none(), reason)
        };
        for (p, c) in self.pending_edges {
            let pid = self
                .ids
                .get(&wf, &p)
                .ok_or_else(|| dangling("parent", &p))?;
            let cid = self.ids.get(&wf, &c).ok_or_else(|| dangling("child", &c))?;
            wf.add_edge(pid, cid)
                .map_err(|e| Format::Dax.error(Span::none(), e.to_string()))?;
        }
        wf.shrink_to_fit();
        Ok(wf)
    }
}

/// An error about the tag that opens at offset `tag` of `text`.
#[cold]
fn tag_err(text: &str, tag: usize, reason: impl Into<String>) -> WmsError {
    Format::Dax.error(span_at(text, tag), reason)
}

/// `name`, unless it begins or ends with ASCII whitespace: the rescue
/// DAG's `DONE` lines and the event log's `name=` tail are trimmed as
/// they are read, so no line format carries such a name back.
fn unpadded<'s>(what: &str, name: &'s str) -> Result<&'s str, String> {
    if name.trim_ascii() == name {
        Ok(name)
    } else {
        Err(format!("{what} {name:?} begins or ends with whitespace"))
    }
}

/// Parses a DAX document without running [`AbstractWorkflow::validate`].
///
/// `pegasus lint` uses this so it can report cycles with the full path
/// and *every* conflicting producer, instead of stopping at the first
/// typed error the way [`from_dax`] does.  Anything that plans or runs
/// a workflow must go through [`from_dax`] instead.
///
/// The scanner reads the document a batch of events at a time
/// (`dax.scan`) and the builder turns each batch into rows
/// (`dax.build`), so the two show apart in a profile.
pub fn from_dax_unvalidated(text: &str) -> Result<AbstractWorkflow, WmsError> {
    let mut scan = XmlScanner::new(text);
    let mut tape = Tape::default();
    let mut build = Builder::new(text);
    loop {
        let scanned = {
            let _prof = crate::prof::scope("dax.scan");
            tape.fill(&mut scan)
        };
        let _prof = crate::prof::scope("dax.build");
        for (event, tag, (from, to)) in tape.events.drain(..) {
            let attrs = &mut tape.attrs[from..to];
            build.event(event, tag, attrs)?;
        }
        if !scanned? {
            return build.finish(scan.pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::JobId;
    use crate::workflow::declare_job;

    fn args(list: &[&str]) -> Args {
        list.iter()
            .map(|&a| Name::from(a))
            .collect::<Vec<_>>()
            .into()
    }

    fn sample() -> AbstractWorkflow {
        let mut wf = AbstractWorkflow::new("blast2cap3");
        let mut rows = wf.declare();
        let kind = args(&["--kind", "transcripts"]);
        let transcripts = [("transcripts.fasta", 404_000_000)];
        let dict = [("transcripts_dict.txt", 0)];
        let list_tx = rows.job("list_tx", "make_list", kind, 120.0, transcripts, dict);
        let alignments = [("alignments.out", 155_000_000)];
        let proteins = [("protein_1.txt", 0), ("protein_2.txt", 0)];
        let n = args(&["-n", "300"]);
        let split = rows.job("split", "split", n, 1.0, alignments, proteins);
        let inputs = [("transcripts_dict.txt", 0), ("protein_1.txt", 0)];
        let joined = [("joined_1.fasta", 0)];
        rows.job("cap3_1", "run_cap3", Args::new(), 1.0, inputs, joined)
            .unwrap();
        drop(rows);
        wf.add_edge(list_tx.unwrap(), split.unwrap()).unwrap();
        wf
    }

    #[test]
    fn writer_emits_wellformed_skeleton() {
        let text = to_dax(&sample());
        assert!(text.starts_with("<?xml"));
        assert!(text.contains("<adag name=\"blast2cap3\" jobCount=\"3\">"));
        assert!(text.contains("<job id=\"split\" name=\"split\""));
        assert!(text.contains("link=\"input\""));
        assert!(text.contains("<child ref=\"split\"><parent ref=\"list_tx\"/></child>"));
        assert!(text.trim_end().ends_with("</adag>"));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let original = sample();
        let parsed = from_dax(&to_dax(&original)).unwrap();
        assert_eq!(parsed.name, original.name);
        assert_eq!(parsed.jobs.len(), original.jobs.len());
        for (a, b) in parsed.jobs.iter().zip(&original.jobs) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.transformation, b.transformation);
            assert_eq!(a.args, b.args);
            assert!((a.runtime_hint - b.runtime_hint).abs() < 1e-9);
        }
        for j in parsed.job_ids() {
            assert_eq!(parsed.inputs(j), original.inputs(j));
            assert_eq!(parsed.outputs(j), original.outputs(j));
        }
        // The writer's runtime text parses back to the same float,
        // so the round trip is exact.
        assert_eq!(parsed, original);
        assert_eq!(parsed.edges().unwrap(), original.edges().unwrap());
    }

    #[test]
    fn equality_does_not_depend_on_the_order_a_job_lists_its_uses_in() {
        // Job `a` lists its output first; file ids still follow
        // inputs-then-outputs, as for a job declared row by row.
        let text = "<adag name=\"w\"><job id=\"a\" name=\"t\" runtime=\"1\">\
                    <uses file=\"out\" link=\"output\" size=\"2\"/>\
                    <uses file=\"in\" link=\"input\" size=\"1\"/></job></adag>";
        let parsed = from_dax(text).unwrap();
        let mut built = AbstractWorkflow::new("w");
        declare_job(&mut built, "a", "t", 1.0, &[("in", 1)], &[("out", 2)]);
        assert_eq!(parsed, built);
        assert_eq!(from_dax(&to_dax(&parsed)).unwrap(), parsed);
    }

    #[test]
    fn special_characters_survive_round_trip() {
        let mut wf = AbstractWorkflow::new("weird & <name>");
        let expr = args(&["--expr", "a<b&&c>d"]);
        let none: [(&str, u64); 0] = [];
        (wf.declare())
            .job("j\"1\"", "tool", expr, 1.0, [("in'put", 0)], none)
            .unwrap();
        let parsed = from_dax(&to_dax(&wf)).unwrap();
        assert_eq!(parsed.name, "weird & <name>");
        assert_eq!(parsed.jobs[0].id, "j\"1\"");
        assert_eq!(parsed.jobs[0].args, vec!["--expr", "a<b&&c>d"]);
        let input = parsed.inputs(JobId::new(0)).iter().next().unwrap();
        assert_eq!(input.name, "in'put");
    }

    #[test]
    fn scanner_borrows_what_has_no_entity_to_decode() {
        let text = "<a plain=\"p q\" esc='x&amp;y'>  words here </a><b>1 &lt; 2</b>";
        let inside = |s: &str| text.as_bytes().as_ptr_range().contains(&s.as_ptr());
        let mut scan = XmlScanner::new(text);
        let mut attrs = Attrs::new();
        let open = scan.next_event(&mut attrs).unwrap().unwrap();
        let XmlEvent::Open { name, self_closing } = open else {
            panic!("unexpected {open:?}");
        };
        assert!(inside(name) && !self_closing);
        assert!(inside(attrs[0].0) && inside(attrs[1].0));
        // A value without `&` is a slice of the input, not a copy.
        assert!(matches!(attrs[0].1, Cow::Borrowed(v) if v == "p q" && inside(v)));
        assert!(matches!(&attrs[1].1, Cow::Owned(v) if v == "x&y"));
        // Text is trimmed by slicing, and copied only to decode.
        let words = scan.next_event(&mut attrs).unwrap().unwrap();
        assert!(
            matches!(words, XmlEvent::Text(Cow::Borrowed(t)) if t == "words here" && inside(t))
        );
        assert_eq!(
            scan.next_event(&mut attrs).unwrap(),
            Some(XmlEvent::Close("a"))
        );
        scan.next_event(&mut attrs).unwrap();
        let decoded = scan.next_event(&mut attrs).unwrap().unwrap();
        assert!(matches!(&decoded, XmlEvent::Text(Cow::Owned(t)) if t == "1 < 2"));
    }

    #[test]
    fn unescape_is_one_left_to_right_pass() {
        assert!(matches!(
            unescape_xml("no entity"),
            Cow::Borrowed("no entity")
        ));
        // An escaped ampersand does not start a second entity.
        assert_eq!(unescape_xml("&amp;lt;"), "&lt;");
        assert_eq!(unescape_xml("&amp;amp;"), "&amp;");
        assert_eq!(unescape_xml("&lt;&gt;&quot;&apos;&amp;"), "<>\"'&");
        // What is not one of the five entities stays as written.
        assert_eq!(unescape_xml("a && b &#38; &lt"), "a && b &#38; &lt");
        let mut escaped = String::new();
        push_escaped(&mut escaped, "<é&\"名'>");
        assert_eq!(escaped, "&lt;é&amp;&quot;名&apos;&gt;");
        assert_eq!(unescape_xml(&escaped), "<é&\"名'>");
    }

    #[test]
    fn line_and_column_come_from_the_byte_offset() {
        // Columns count bytes, as they always have: `é` is two.
        let text = "<adag>\n  <!-- é -->\n  é<job/>";
        match from_dax(text).unwrap_err() {
            WmsError::Parse { span, .. } => assert_eq!(span, Span::new(3, 5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_pi_are_skipped() {
        let text = "<?xml version=\"1.0\"?>\n<!-- generated -->\n<adag name=\"w\">\n<job id=\"a\" name=\"t\"/>\n</adag>";
        let wf = from_dax(text).unwrap();
        assert_eq!(wf.jobs.len(), 1);
        assert_eq!(wf.jobs[0].id, "a");
    }

    #[test]
    fn missing_adag_is_an_error() {
        let err = from_dax("<job id=\"a\"/>").unwrap_err();
        assert!(matches!(err, WmsError::Parse { .. }));
    }

    #[test]
    fn bad_link_attribute_is_an_error() {
        let text = "<adag name=\"w\"><job id=\"a\" name=\"t\"><uses file=\"f\" link=\"inout\"/></job></adag>";
        assert!(from_dax(text).is_err());
    }

    #[test]
    fn unknown_edge_reference_is_an_error() {
        let text = "<adag name=\"w\"><job id=\"a\" name=\"t\"/><child ref=\"a\"><parent ref=\"ghost\"/></child></adag>";
        let err = from_dax(text).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn duplicate_job_in_dax_is_an_error() {
        let text = "<adag name=\"w\"><job id=\"a\" name=\"t\"/><job id=\"a\" name=\"t\"/></adag>";
        assert!(from_dax(text).is_err());
    }

    #[test]
    fn line_numbers_in_errors() {
        let text = "<adag name=\"w\">\n\n<job name=\"missing-id\"/>\n</adag>";
        match from_dax(text).unwrap_err() {
            WmsError::Parse { span, .. } => assert_eq!(span, Span::new(3, 1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn names_no_line_format_carries_are_refused_at_their_tag() {
        // Rescue `DONE` lines and the event log's `name=` tail are
        // trimmed as they are read: a padded name would not come back.
        for (doc, line) in [
            ("<adag name=\" w\">\n<job id=\"a\"/>\n</adag>", 1),
            ("<adag name=\"w\">\n<job id=\"a \"/>\n</adag>", 2),
            ("<adag name=\"w\">\n<job id=\"a\">\n<uses file=\"f\t\" link=\"input\"/>\n</job>\n</adag>", 3),
        ] {
            match from_dax(doc).unwrap_err() {
                WmsError::Parse {
                    span, code, reason, ..
                } => {
                    assert_eq!((span, code), (Span::new(line, 1), "E0101"), "{doc}");
                    assert!(reason.ends_with("begins or ends with whitespace"), "{reason}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let inner =
            "<adag name=\"w v\"><job id=\"a b\"><uses file=\"f g\" link=\"input\"/></job></adag>";
        assert_eq!(from_dax(inner).unwrap().jobs[0].id, "a b");
    }

    #[test]
    fn spans_point_at_the_offending_tag() {
        let text = "<adag name=\"w\">\n  <job name=\"missing-id\"/>\n</adag>";
        match from_dax(text).unwrap_err() {
            WmsError::Parse { span, .. } => assert_eq!(span, Span::new(2, 3)),
            other => panic!("unexpected {other:?}"),
        }
        // Duplicate ids point at the second declaration.
        let text =
            "<adag name=\"w\">\n<job id=\"a\" name=\"t\"/>\n<job id=\"a\" name=\"t\"/>\n</adag>";
        match from_dax(text).unwrap_err() {
            WmsError::Parse { span, reason, .. } => {
                assert_eq!(span, Span::new(3, 1));
                assert!(reason.contains("duplicate"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unvalidated_parse_accepts_cycles() {
        let text = "<adag name=\"w\">\
                    <job id=\"a\" name=\"t\"/><job id=\"b\" name=\"t\"/>\
                    <child ref=\"b\"><parent ref=\"a\"/></child>\
                    <child ref=\"a\"><parent ref=\"b\"/></child>\
                    </adag>";
        let wf = from_dax_unvalidated(text).unwrap();
        assert_eq!(wf.jobs.len(), 2);
        assert!(wf.validate().is_err());
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(from_dax("<!-- never closed").is_err());
    }

    #[test]
    fn unclosed_tags_are_errors_not_silent_drops() {
        // A <job> still open at end of input used to be dropped.
        let err = from_dax("<adag name=\"w\"><job id=\"a\" name=\"t\">").unwrap_err();
        match err {
            WmsError::Parse { reason, .. } => assert!(reason.contains("unclosed <job")),
            other => panic!("unexpected {other:?}"),
        }
        let err = from_dax("<adag name=\"w\"><job id=\"a\" name=\"t\"/>").unwrap_err();
        match err {
            WmsError::Parse { reason, .. } => assert!(reason.contains("unclosed <adag>")),
            other => panic!("unexpected {other:?}"),
        }
        let err =
            from_dax("<adag name=\"w\"><job id=\"a\" name=\"t\"/><child ref=\"a\">").unwrap_err();
        match err {
            WmsError::Parse { reason, .. } => assert!(reason.contains("unclosed <child>")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cyclic_explicit_edges_are_a_typed_error() {
        let text = "<adag name=\"w\">\
                    <job id=\"a\" name=\"t\"/><job id=\"b\" name=\"t\"/>\
                    <child ref=\"b\"><parent ref=\"a\"/></child>\
                    <child ref=\"a\"><parent ref=\"b\"/></child>\
                    </adag>";
        assert!(matches!(
            from_dax(text).unwrap_err(),
            WmsError::CycleDetected(_)
        ));
    }

    #[test]
    fn conflicting_producers_are_a_typed_error() {
        let text = "<adag name=\"w\">\
                    <job id=\"a\" name=\"t\"><uses file=\"f\" link=\"output\"/></job>\
                    <job id=\"b\" name=\"t\"><uses file=\"f\" link=\"output\"/></job>\
                    </adag>";
        assert!(matches!(
            from_dax(text).unwrap_err(),
            WmsError::ConflictingProducer { .. }
        ));
    }

    #[test]
    fn parsed_workflow_validates() {
        let parsed = from_dax(&to_dax(&sample())).unwrap();
        assert!(parsed.validate().is_ok());
    }

    /// Picks from `pool` by the next choice, `0` once they run out.
    fn pick<'p>(choices: &mut impl Iterator<Item = u64>, pool: &[&'p str]) -> &'p str {
        pool[choices.next().unwrap_or(0) as usize % pool.len()]
    }

    /// A DAX of a few jobs whose every piece `choices` picks among
    /// well-formed and broken ones: odd values, entities, missing
    /// attributes and closing tags, self-closing jobs, edges to
    /// unknown jobs and repeated ids.
    fn document(choices: &[u64]) -> String {
        let mut c = choices.iter().copied();
        let c = &mut c;
        let ids = ["a", "b", "c", "a&amp;b", "j&lt;1", "", "x y", "a"];
        let names = ["t", "run_cap3", "t&quot;", "é"];
        let runtimes = ["1", "0.5", "120.25", "1e3", "-1", "nan", "inf", "x", ""];
        let sizes = ["0", "7", "404000000", "-1", "x", ""];
        let files = ["f", "g", "h", "f&amp;g", "é.txt"];
        let links = ["input", "output", "output", "inout"];
        let args = ["-n 3", "a &lt; b", "", "  x  y  ", "&#38;"];
        let mut doc = String::new();
        doc.push_str(pick(c, &["", "<?xml version=\"1.0\"?>\n", "<!-- c -->\n"]));
        doc.push_str(pick(
            c,
            &[
                "<adag name=\"w\" jobCount=\"3\">\n",
                "<adag>",
                "<adag jobCount='x'>",
            ],
        ));
        for _ in 0..c.next().unwrap_or(0) % 5 {
            let attrs = [
                ("id", pick(c, &ids)),
                ("name", pick(c, &names)),
                ("runtime", pick(c, &runtimes)),
            ];
            doc.push_str("  <job");
            for (key, value) in attrs {
                if c.next().unwrap_or(0) % 8 != 0 {
                    doc.push_str(&format!(" {key}=\"{value}\""));
                }
            }
            if c.next().unwrap_or(0) % 4 == 0 {
                doc.push_str("/>\n");
                continue;
            }
            doc.push_str(">\n");
            if c.next().unwrap_or(0) % 2 == 0 {
                doc.push_str(&format!("    <argument>{}</argument>\n", pick(c, &args)));
            }
            for _ in 0..c.next().unwrap_or(0) % 4 {
                let (file, link, size) = (pick(c, &files), pick(c, &links), pick(c, &sizes));
                doc.push_str(&format!(
                    "    <uses file=\"{file}\" link=\"{link}\" size=\"{size}\"/>\n"
                ));
            }
            doc.push_str(pick(c, &["  </job>\n", "  </job>\n", "", "</argument>"]));
        }
        for _ in 0..c.next().unwrap_or(0) % 3 {
            let (child, parent) = (pick(c, &ids), pick(c, &ids));
            doc.push_str(&format!(
                "  <child ref=\"{child}\"><parent ref=\"{parent}\"/></child>\n"
            ));
        }
        doc.push_str(pick(c, &["</adag>\n", "</adag>\n", "", "</adag><adag>"]));
        doc
    }

    /// Cuts and patches `doc` where `edits` say, on character
    /// boundaries: deletes a character, inserts a piece of markup, or
    /// ends the text there.
    fn mutate(mut doc: String, edits: &[(u64, u64)]) -> String {
        let pieces = [
            "<",
            ">",
            "/",
            "\"",
            "'",
            "&",
            "&amp;",
            "=",
            " ",
            "\n",
            "<!--",
            "-->",
            "<?",
            "?>",
            "<!DOCTYPE a [<!x '>'>]>",
            "<![CDATA[x]]>",
            "<!x>",
            "</job>",
            "<job id=\"a\"/>",
            "<uses file=\"f\"/>",
            "é",
            "<parent ref=\"a\"/>",
            "</ child >",
        ];
        for &(at, op) in edits {
            let mut at = at as usize % (doc.len() + 1);
            while !doc.is_char_boundary(at) {
                at -= 1;
            }
            match op % 5 {
                0 | 1 => {
                    if let Some(ch) = doc[at..].chars().next() {
                        doc.replace_range(at..at + ch.len_utf8(), "");
                    }
                }
                2 | 3 => doc.insert_str(at, pieces[(op / 5) as usize % pieces.len()]),
                _ => doc.truncate(at),
            }
        }
        doc
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(2000))]

        /// The batched scanner reads every document as the scanner it
        /// replaced does: the same workflow, or the same error at the
        /// same span.
        #[test]
        fn the_reader_agrees_with_the_oracle_on_generated_and_mutated_documents(
            choices in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..64),
            edits in proptest::collection::vec(
                (proptest::arbitrary::any::<u64>(), proptest::arbitrary::any::<u64>()),
                0..4,
            ),
        ) {
            let doc = mutate(document(&choices), &edits);
            proptest::prop_assert_eq!(from_dax_unvalidated(&doc), oracle::from_dax_unvalidated(&doc));
        }
    }

    #[test]
    fn the_reader_agrees_with_the_oracle_across_batches() {
        // A few thousand jobs span several batches; an edit anywhere
        // in them must read as the oracle reads it, and a semantic
        // error in one batch wins over a scan error in a later one.
        let text = to_dax(&crate::synthetic::montage(600));
        let events = text.matches('<').count();
        assert!(events > 2 * BATCH, "{events} tags");
        // Both where a job opens, between two others.
        let job_at = |from: usize| from + text[from..].find("  <job").unwrap();
        let (duplicate, broken) = (job_at(text.len() / 3), job_at(2 * text.len() / 3));
        let first = &text[job_at(0)..];
        let job = &first[..first.find('>').unwrap() + 1];
        let mut twice = text.clone();
        twice.insert_str(broken, "<job id=");
        twice.insert_str(duplicate, &format!("{}</job>", job));
        let cases = [
            text.clone(),
            twice,
            mutate(text.clone(), &[(broken as u64, 2)]),
            mutate(text.clone(), &[(duplicate as u64, 4)]),
            mutate(text.clone(), &[(broken as u64, 0), (duplicate as u64, 2)]),
        ];
        for (i, doc) in cases.iter().enumerate() {
            let (got, want) = (from_dax_unvalidated(doc), oracle::from_dax_unvalidated(doc));
            assert_eq!(got, want, "case {i}");
            assert_eq!(got.is_ok(), i == 0, "case {i}");
        }
        let e = from_dax_unvalidated(&cases[1]).unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
    }
}
