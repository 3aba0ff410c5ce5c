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
use crate::symbols::{Args, JobId, Name, NamePool, SymbolTable};
use crate::workflow::AbstractWorkflow;
use std::borrow::Cow;
use std::fmt::Write as _;

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

/// Serializes a workflow as a DAX document.
pub fn to_dax(wf: &AbstractWorkflow) -> String {
    // Close to a line of markup per job and per file use.
    let mut out = String::with_capacity(96 * wf.jobs.len() + 64 * wf.use_count());
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    push_markup(&mut out, &["<adag name=\"", &wf.name, "\" jobCount=\""]);
    let _ = writeln!(out, "{}\">", wf.jobs.len());
    for id in wf.job_ids() {
        let job = wf.job(id);
        let header = ["  <job id=\"", &job.id, "\" name=\"", &job.transformation];
        push_markup(&mut out, &header);
        let _ = writeln!(out, "\" runtime=\"{}\">", job.runtime_hint);
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
                let _ = writeln!(out, "{}\"/>", f.size_bytes);
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

/// The attributes of one tag, in document order. Names are slices of
/// the input; so are values, unless they had an entity to decode.
type Attrs<'a> = Vec<(&'a str, Cow<'a, str>)>;

#[derive(Debug, Clone, PartialEq)]
enum XmlEvent<'a> {
    /// An opening tag; its attributes are in the buffer handed to
    /// [`XmlScanner::next_event`].
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
/// are counted from the offset when the error is raised.
struct XmlScanner<'a> {
    text: &'a str,
    pos: usize,
    /// Offset of the `<` that opened the most recent tag; semantic
    /// errors about a tag point here rather than at the scan cursor.
    tag: usize,
}

impl<'a> XmlScanner<'a> {
    fn new(text: &'a str) -> Self {
        XmlScanner {
            text,
            pos: 0,
            tag: 0,
        }
    }

    /// One-based line and column (in bytes) of byte offset `pos`.
    fn span_at(&self, pos: usize) -> Span {
        let before = &self.text.as_bytes()[..pos];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let line = 1 + before[..line_start].iter().filter(|&&b| b == b'\n').count();
        Span::new(line, pos - line_start + 1)
    }

    fn err(&self, reason: impl Into<String>) -> WmsError {
        Format::Dax.error(self.span_at(self.pos), reason)
    }

    fn tag_err(&self, reason: impl Into<String>) -> WmsError {
        Format::Dax.error(self.span_at(self.tag), reason)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

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

    fn read_name(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b':' || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        // Both ends sit on ASCII bytes (or the input's ends), so the
        // slice is on character boundaries.
        &self.text[start..self.pos]
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Reads attributes up to the tag's end into `attrs`; returns
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
                    let Some(len) = find_byte(&self.text[start..], quote) else {
                        self.pos = self.text.len();
                        return Err(self.err("unterminated attribute value"));
                    };
                    self.pos = start + len + 1;
                    attrs.push((name, unescape_xml(&self.text[start..start + len])));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
    }

    /// Next event, or `None` at clean end of input. The attributes of
    /// an `Open` event replace the contents of `attrs`.
    fn next_event(&mut self, attrs: &mut Attrs<'a>) -> Result<Option<XmlEvent<'a>>, WmsError> {
        loop {
            // Text before the next '<'.
            let start = self.pos;
            self.pos = find_byte(&self.text[start..], b'<').map_or(self.text.len(), |i| start + i);
            let trimmed = self.text[start..self.pos].trim();
            if !trimmed.is_empty() {
                return Ok(Some(XmlEvent::Text(unescape_xml(trimmed))));
            }
            if self.peek().is_none() {
                return Ok(None);
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
                    attrs.clear();
                    let self_closing = self.read_attrs(attrs)?;
                    return Ok(Some(XmlEvent::Open { name, self_closing }));
                }
                None => return Err(self.err("dangling '<' at end of input")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing DAX
// ---------------------------------------------------------------------------

/// Offset of the first `byte` of `s`. The scanner's delimiters are
/// ASCII and a few bytes away, so it looks for them as bytes:
/// `str::find(char)` is only as fast inlined with its needle known,
/// which the compiler does or does not do as the crate around this
/// file changes shape (EXPERIMENTS.md E29).
#[inline]
fn find_byte(s: &str, byte: u8) -> Option<usize> {
    s.bytes().position(|b| b == byte)
}

fn attr<'b>(attrs: &'b Attrs<'_>, key: &str) -> Option<&'b str> {
    attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| &**v)
}

/// Takes the value of attribute `key` out of `attrs`, keeping the
/// input's lifetime on a borrowed value.
fn take_attr<'a>(attrs: &mut Attrs<'a>, key: &str) -> Option<Cow<'a, str>> {
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

/// Parses a DAX document without running [`AbstractWorkflow::validate`].
///
/// `pegasus lint` uses this so it can report cycles with the full path
/// and *every* conflicting producer, instead of stopping at the first
/// typed error the way [`from_dax`] does.  Anything that plans or runs
/// a workflow must go through [`from_dax`] instead.
pub fn from_dax_unvalidated(text: &str) -> Result<AbstractWorkflow, WmsError> {
    let mut scan = XmlScanner::new(text);
    let mut attrs: Attrs<'_> = Vec::new();
    let mut wf: Option<AbstractWorkflow> = None;
    // Job ids are interned as they are declared, so duplicate
    // detection and the `<child>`/`<parent>` ref resolution below are
    // hash lookups rather than linear scans over the job list —
    // without this a million-job DAX costs O(n²) to parse. The table
    // lives as long as the parse; the stored job keeps its id as a
    // `Name` of its own.
    let mut ids: SymbolTable<JobId> = SymbolTable::new();
    // A workflow has few transformations and many jobs of each.
    let mut transformations = NamePool::default();
    let mut adag_closed = false;
    let mut cur_job: Option<OpenJob> = None;
    let mut scratch = JobScratch::default();
    let mut in_argument = false;
    let mut cur_child: Option<Cow<'_, str>> = None;
    let mut pending_edges: Vec<(Cow<'_, str>, Cow<'_, str>)> = Vec::new(); // (parent, child)

    // Intern-then-store, erroring on redeclaration at the tag: the row
    // path under `AbstractWorkflow::declare`, whose duplicate check
    // the id table above already makes, with a span.
    fn store_job(
        wf: &mut AbstractWorkflow,
        ids: &mut SymbolTable<JobId>,
        job: OpenJob,
        scratch: &JobScratch<'_>,
        scan: &XmlScanner<'_>,
    ) -> Result<(), WmsError> {
        if ids.get(&job.id).is_some() {
            let reason = WmsError::DuplicateJob(job.id.into()).to_string();
            return Err(Format::Dax.error_as("E0102", scan.span_at(scan.tag), reason));
        }
        let id = ids.intern(&job.id);
        debug_assert_eq!(id.idx(), wf.jobs.len());
        let args = Args::from(scratch.args.as_slice());
        let row = (job.id, job.transformation, args, job.runtime_hint);
        fn side<'s>(uses: &'s [(Cow<'_, str>, u64)]) -> impl Iterator<Item = (&'s str, u64)> {
            uses.iter().map(|(name, size)| (&**name, *size))
        }
        wf.push_row(row, side(&scratch.inputs), side(&scratch.outputs));
        Ok(())
    }

    while let Some(ev) = scan.next_event(&mut attrs)? {
        match ev {
            XmlEvent::Open { name, self_closing } => match name {
                "adag" => {
                    // A second <adag> would start over and drop every
                    // job read so far.
                    if wf.is_some() {
                        return Err(scan.tag_err("unexpected second <adag>"));
                    }
                    let wname = attr(&attrs, "name").unwrap_or("workflow").to_string();
                    let mut w = AbstractWorkflow::new(wname);
                    // A hint, so it is trusted only as far as the
                    // document is long enough to hold that many jobs.
                    let hint = attr(&attrs, "jobCount").and_then(|n| n.parse::<usize>().ok());
                    w.jobs.reserve(hint.unwrap_or(0).min(text.len() / 16));
                    wf = Some(w);
                }
                "job" => {
                    if wf.is_none() {
                        return Err(scan.tag_err("<job> outside <adag>"));
                    }
                    let id = attr(&attrs, "id")
                        .ok_or_else(|| scan.tag_err("<job> missing id attribute"))?;
                    let tname = attr(&attrs, "name").unwrap_or(id);
                    let transformation = transformations.share(tname);
                    // A duration in seconds: `NaN`, `inf` or a negative
                    // would reach the planner's critical path and the
                    // simulator's clock.
                    let runtime_hint = match attr(&attrs, "runtime") {
                        Some(rt) => rt
                            .parse()
                            .ok()
                            .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                            .ok_or_else(|| scan.tag_err(format!("bad runtime {rt:?}")))?,
                        None => 1.0,
                    };
                    let job = OpenJob {
                        id: Name::from(id),
                        transformation,
                        runtime_hint,
                    };
                    scratch.clear();
                    if self_closing {
                        let w = wf.as_mut().expect("checked above");
                        store_job(w, &mut ids, job, &scratch, &scan)?;
                    } else {
                        cur_job = Some(job);
                    }
                }
                "argument" => {
                    if cur_job.is_none() {
                        return Err(scan.tag_err("<argument> outside <job>"));
                    }
                    in_argument = !self_closing;
                }
                "uses" => {
                    if cur_job.is_none() {
                        return Err(scan.tag_err("<uses> outside <job>"));
                    }
                    let size: u64 = attr(&attrs, "size")
                        .unwrap_or("0")
                        .parse()
                        .map_err(|_| scan.tag_err("bad size attribute"))?;
                    let side = match attr(&attrs, "link") {
                        Some("input") => &mut scratch.inputs,
                        Some("output") => &mut scratch.outputs,
                        other => {
                            return Err(scan.tag_err(format!(
                                "<uses> link must be input or output, got {other:?}"
                            )))
                        }
                    };
                    let file = take_attr(&mut attrs, "file")
                        .ok_or_else(|| scan.tag_err("<uses> missing file attribute"))?;
                    side.push((file, size));
                }
                "child" => {
                    let r = take_attr(&mut attrs, "ref")
                        .ok_or_else(|| scan.tag_err("<child> missing ref"))?;
                    cur_child = Some(r);
                }
                "parent" => {
                    let child = cur_child
                        .clone()
                        .ok_or_else(|| scan.tag_err("<parent> outside <child>"))?;
                    let r = take_attr(&mut attrs, "ref")
                        .ok_or_else(|| scan.tag_err("<parent> missing ref"))?;
                    pending_edges.push((r, child));
                }
                other => {
                    return Err(scan.tag_err(format!("unexpected element <{other}>")));
                }
            },
            XmlEvent::Close(name) => match name {
                "job" => {
                    let job = cur_job.take().ok_or_else(|| scan.tag_err("stray </job>"))?;
                    let w = wf
                        .as_mut()
                        .ok_or_else(|| scan.tag_err("</job> outside <adag>"))?;
                    store_job(w, &mut ids, job, &scratch, &scan)?;
                }
                "argument" => in_argument = false,
                "child" => cur_child = None,
                "adag" => adag_closed = true,
                "parent" | "uses" => {}
                other => return Err(scan.tag_err(format!("unexpected closing </{other}>"))),
            },
            XmlEvent::Text(text) => {
                if in_argument {
                    scratch.args.extend(text.split_whitespace().map(Name::from));
                }
            }
        }
    }

    if let Some(job) = &cur_job {
        return Err(scan.err(format!("unclosed <job id={:?}> at end of input", job.id)));
    }
    if cur_child.is_some() {
        return Err(scan.err("unclosed <child> at end of input"));
    }
    let mut wf = wf.ok_or_else(|| Format::Dax.error(Span::none(), "no <adag> element found"))?;
    if !adag_closed {
        return Err(scan.err("unclosed <adag> at end of input"));
    }
    // A <child>/<parent> ref is dangling only once every job is in.
    let dangling = |side: &str, id: &str| {
        let reason = format!("edge references unknown {side} {id:?}");
        Format::Dax.error_as("E0105", Span::none(), reason)
    };
    for (p, c) in pending_edges {
        let pid = ids.get(&p).ok_or_else(|| dangling("parent", &p))?;
        let cid = ids.get(&c).ok_or_else(|| dangling("child", &c))?;
        wf.add_edge(pid, cid)
            .map_err(|e| Format::Dax.error(Span::none(), e.to_string()))?;
    }
    wf.shrink_to_fit();
    Ok(wf)
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
