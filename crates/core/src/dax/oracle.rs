//! The DAX reader as it was before it read in batches and a word at a
//! time — each event handled as soon as it is scanned, delimiters found
//! byte by byte, job ids copied into a table of their own: the oracle
//! the reader must agree with, value for value and error for error,
//! span included.

use super::unescape_xml;
use crate::error::{Format, Span, WmsError};
use crate::symbols::{Args, JobId, Name, NamePool, SymbolTable};
use crate::workflow::AbstractWorkflow;
use std::borrow::Cow;

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
/// Whether a name's first or last character is ASCII whitespace,
/// which every line format trims away.
fn padded(name: &str) -> bool {
    let ws = |c: char| c.is_ascii_whitespace();
    name.starts_with(ws) || name.ends_with(ws)
}

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
pub(super) fn from_dax_unvalidated(text: &str) -> Result<AbstractWorkflow, WmsError> {
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
                    let wname = attr(&attrs, "name").unwrap_or("workflow");
                    if padded(wname) {
                        let reason =
                            format!("<adag> name {wname:?} begins or ends with whitespace");
                        return Err(scan.tag_err(reason));
                    }
                    let mut w = AbstractWorkflow::new(wname.to_string());
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
                    if padded(id) {
                        let reason = format!("job id {id:?} begins or ends with whitespace");
                        return Err(scan.tag_err(reason));
                    }
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
                    if padded(&file) {
                        let reason = format!("<uses> file {file:?} begins or ends with whitespace");
                        return Err(scan.tag_err(reason));
                    }
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
