//! The line grammar every `keyword key=value …` text format shares:
//! the event log, the serve protocol and journal, fault plans,
//! `sites.def`, the transformation/replica catalog and rescue DAGs
//! (DESIGN.md "Line grammar").
//!
//! A reading half of two pieces, and a writing half of one. [`lines`]
//! numbers the lines of a text from one, skips blank and `#` lines,
//! and splits each of the rest into its keyword and what follows it.
//! [`Fields`] splits what follows into `key=value` tokens — plus,
//! where the format has one, a free-text tail field that runs to the
//! end of the line — hands them out by key or in order as typed
//! values, and [`finish`](Fields::finish) refuses the first field
//! nobody asked for. A reader takes one field of a name, so a repeated
//! field is one nobody asked for. [`Writer`] appends such lines to a
//! `String`, field by field, and formats a number without
//! `core::fmt`.
//!
//! Whitespace, wherever the grammar says it, is ASCII whitespace: it
//! is what every writer emits, a byte scan finds it, and any other
//! character — a no-break space in a job name, say — is data. A name
//! that is not the line's tail and may hold whitespace is written with
//! `Writer::token` and read back as a `Cow<str>`: the one place that
//! knows the escape.
//!
//! Errors are [`WmsError::Parse`]s of the calling [`Format`] at the
//! line being read. What the keywords and keys *mean* stays in the
//! format's module.

use crate::error::{Format, Span, WmsError};
use std::borrow::Cow;
use std::fmt::Write as _;

/// One line of a text, split at its keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line<'a> {
    /// One-based line number.
    pub number: usize,
    /// The first whitespace-delimited word (empty on a blank line).
    pub keyword: &'a str,
    /// What follows the keyword, trimmed.
    pub rest: &'a str,
    /// The whole line, trimmed — for `sites.def`, whose field lines
    /// carry no keyword.
    pub text: &'a str,
}

impl<'a> Line<'a> {
    /// Splits one line; `number` is what its errors will name.
    #[inline]
    pub(crate) fn split(raw: &'a str, number: usize) -> Self {
        let text = raw.trim_ascii();
        let end = text
            .bytes()
            .position(|b| b.is_ascii_whitespace())
            .unwrap_or(text.len());
        Line {
            number,
            keyword: &text[..end],
            rest: text[end..].trim_ascii_start(),
            text,
        }
    }

    /// Blank lines and `#` comments carry nothing.
    pub(crate) fn is_skipped(&self) -> bool {
        self.keyword.is_empty() || self.keyword.starts_with('#')
    }
}

/// Every line of `text` that carries something, numbered from one.
pub fn lines(text: &str) -> impl Iterator<Item = Line<'_>> {
    text.lines()
        .enumerate()
        .map(|(idx, raw)| Line::split(raw, idx + 1))
        .filter(|line| !line.is_skipped())
}

/// One `key=value` token. Opaque: it exists so a caller can own the
/// buffer [`Fields::split`] reuses from line to line.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    key: &'a str,
    value: &'a str,
}

/// A typed field value.
pub trait Value<'a>: Sized {
    /// What a parse error calls the type (`bad <WHAT> "x" for key`).
    const WHAT: &'static str;
    /// Reads the raw text, or `None` when it is not one of these.
    fn read(raw: &'a str) -> Option<Self>;
}

impl<'a> Value<'a> for &'a str {
    const WHAT: &'static str = "text";
    fn read(raw: &'a str) -> Option<Self> {
        Some(raw)
    }
}

/// The owned face of `&str`, for the items of a list that outlives
/// its line (`packages=python,cap3`).
impl Value<'_> for String {
    const WHAT: &'static str = "text";
    fn read(raw: &str) -> Option<Self> {
        Some(raw.to_string())
    }
}

macro_rules! integer_values {
    ($($t:ty),*) => {$(
        impl Value<'_> for $t {
            const WHAT: &'static str = "integer";
            fn read(raw: &str) -> Option<Self> {
                raw.parse().ok()
            }
        }
    )*};
}
integer_values!(usize, u32, u64, i32);

impl Value<'_> for f64 {
    const WHAT: &'static str = "number";
    /// Finite numbers only: `nan` and `inf` compare their way past
    /// every range guard downstream.
    fn read(raw: &str) -> Option<Self> {
        raw.parse().ok().filter(|v: &f64| v.is_finite())
    }
}

impl Value<'_> for bool {
    const WHAT: &'static str = "boolean";
    fn read(raw: &str) -> Option<Self> {
        match raw {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }
}

/// The values a number from outside may take, stated where it is
/// declared — a command-line flag's row, a protocol field, a
/// `sites.def` key — and judged where it is read, in one sentence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Range {
    /// A count in `min..=max`; a `max` of `usize::MAX` is no ceiling.
    Count {
        /// The least count admitted.
        min: usize,
        /// The greatest count admitted.
        max: usize,
    },
    /// Finite seconds, at least `min` — or above it, when `open`.
    Secs {
        /// The lower bound.
        min: f64,
        /// Whether `min` itself is refused.
        open: bool,
    },
}

impl Range {
    /// Whether `raw`, read by [`Value`]'s rule for the range's kind
    /// (an integer, or a finite number), lies in the range.
    pub fn admits(&self, raw: &str) -> bool {
        match *self {
            Range::Count { min, max } => usize::read(raw).is_some_and(|v| (min..=max).contains(&v)),
            Range::Secs { min, open } => {
                f64::read(raw).is_some_and(|v| v > min || !open && v == min)
            }
        }
    }

    /// The one sentence that refuses `raw` for the number `name`:
    /// `--n must be in 1..=20000, not "20001"`.
    pub fn refusal(&self, name: &str, raw: &str) -> String {
        format!("{name} must be {self}, not {raw:?}")
    }
}

/// `in 1..=20000`, `>= 1` (no ceiling), `>= 0` or `> 0` (seconds).
impl std::fmt::Display for Range {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Range::Count {
                min,
                max: usize::MAX,
            } => write!(f, ">= {min}"),
            Range::Count { min, max } => write!(f, "in {min}..={max}"),
            Range::Secs { min, open } => write!(f, "{} {min}", if open { ">" } else { ">=" }),
        }
    }
}

/// What a token cannot hold raw — the grammar's separators and the
/// escape character — and, under each, the letter that follows `\`.
const ESCAPES: [&str; 2] = ["\\ \t\n\r\x0c", "\\stnrf"];

/// `c`'s partner in the other row of [`ESCAPES`].
fn escape(from: usize, c: char) -> Option<char> {
    let at = ESCAPES[from].find(c)?;
    Some(char::from(ESCAPES[1 - from].as_bytes()[at]))
}

/// A name written by `Writer::token`; borrows `raw` unless it holds
/// an escape.
impl<'a> Value<'a> for Cow<'a, str> {
    const WHAT: &'static str = "token";
    fn read(raw: &'a str) -> Option<Self> {
        if !raw.contains('\\') {
            return Some(Cow::Borrowed(raw));
        }
        let mut chars = raw.chars();
        let mut out = String::with_capacity(raw.len());
        while let Some(c) = chars.next() {
            out.push(match c {
                '\\' => escape(1, chars.next()?)?,
                c => c,
            });
        }
        Some(Cow::Owned(out))
    }
}

/// The fields of one line, being read.
#[derive(Debug)]
pub struct Fields<'b, 'a> {
    line: usize,
    format: Format,
    fields: &'b [Field<'a>],
    /// Bit `i` is set once field `i` has been read.
    read: u64,
    /// One past the last field read: where the in-order readers
    /// read, and where the keyed ones look first.
    next: usize,
}

impl<'b, 'a> Fields<'b, 'a> {
    /// Splits `rest` into its whitespace-separated `key=value` fields,
    /// in `buf` (cleared first, so one buffer serves a whole text).
    /// With `tail` naming a free-text field, the first `<tail>=` that
    /// opens `rest` or follows whitespace ends the tokens: everything
    /// after it, spaces and all, is that field's value.
    ///
    /// # Errors
    /// A token with no `=`; more than 64 fields.
    pub fn split(
        rest: &'a str,
        tail: Option<&str>,
        line: usize,
        format: Format,
        buf: &'b mut Vec<Field<'a>>,
    ) -> Result<Self, WmsError> {
        let err = |reason: String| format.at(line, reason);
        buf.clear();
        // Where the tail's key starts and ends, when the line has it.
        let tail = tail.and_then(|key| {
            let bytes = rest.as_bytes();
            rest.match_indices(key)
                .map(|(at, _)| (at, at + key.len()))
                .find(|&(at, end)| {
                    (at == 0 || bytes[at - 1].is_ascii_whitespace())
                        && bytes.get(end) == Some(&b'=')
                })
        });
        let head = tail.map_or(rest, |(at, _)| &rest[..at]);
        for tok in head.split_ascii_whitespace() {
            let Some((key, value)) = tok.split_once('=') else {
                return Err(err(format!("expected key=value, got {tok:?}")));
            };
            buf.push(Field { key, value });
        }
        if let Some((at, end)) = tail {
            buf.push(Field {
                key: &rest[at..end],
                value: &rest[end + 1..],
            });
        }
        if buf.len() > u64::BITS as usize {
            return Err(err(format!("{} fields on one line", buf.len())));
        }
        Ok(Fields {
            line,
            format,
            fields: buf,
            read: 0,
            next: 0,
        })
    }

    /// An error of the calling format, at this line.
    pub fn err(&self, reason: impl Into<String>) -> WmsError {
        self.err_as(self.format.code(), reason)
    }

    /// [`err`](Self::err) under the lint code of the rule the caller
    /// found broken.
    pub fn err_as(&self, code: &'static str, reason: impl Into<String>) -> WmsError {
        self.format.error_as(code, Span::line(self.line), reason)
    }

    /// Reads `raw` as a `T`; `key` is what the error names. For values
    /// inside values (`members=0,2,5`, `churn=21600,3600`).
    ///
    /// # Errors
    /// `bad <what> "<raw>" for <key>`.
    pub fn parse<T: Value<'a>>(&self, key: &str, raw: &'a str) -> Result<T, WmsError> {
        match T::read(raw) {
            Some(value) => Ok(value),
            None => Err(self.err(format!("bad {} {raw:?} for {key}", T::WHAT))),
        }
    }

    /// Reads `raw` as a comma-separated list of `T`s (`members=0,2,5`,
    /// `packages=python,cap3`); an empty `raw` is the empty list.
    ///
    /// # Errors
    /// `<key> contains an empty item`, or an item that is not a `T`.
    pub fn list<T: Value<'a>>(&self, key: &str, raw: &'a str) -> Result<Vec<T>, WmsError> {
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|item| match item {
                "" => Err(self.err(format!("{key} contains an empty item"))),
                item => self.parse(key, item),
            })
            .collect()
    }

    fn take<T: Value<'a>>(&mut self, idx: usize) -> Result<T, WmsError> {
        self.read |= 1 << idx;
        self.next = idx + 1;
        let Field { key, value } = self.fields[idx];
        self.parse(key, value)
    }

    /// The field a keyed reader means by `key`: the one after the last
    /// field read when it has that name — parsers mostly ask in the
    /// order writers write — and otherwise the first of that name.
    fn find(&self, key: &str) -> Option<usize> {
        match self.fields.get(self.next) {
            Some(field) if field.key == key => Some(self.next),
            _ => self.fields.iter().position(|f| f.key == key),
        }
    }

    #[cold]
    fn missing(&self, key: &str) -> WmsError {
        self.err(format!("missing field {key}"))
    }

    /// The field named `key`, wherever it stands; `None` when the
    /// line has none.
    ///
    /// # Errors
    /// A value that is not a `T`.
    pub fn opt<T: Value<'a>>(&mut self, key: &str) -> Result<Option<T>, WmsError> {
        match self.find(key) {
            Some(idx) => self.take(idx).map(Some),
            None => Ok(None),
        }
    }

    /// The field named `key`, wherever it stands.
    ///
    /// # Errors
    /// `missing field <key>`, or a value that is not a `T`.
    pub fn get<T: Value<'a>>(&mut self, key: &str) -> Result<T, WmsError> {
        match self.find(key) {
            Some(idx) => self.take(idx),
            None => Err(self.missing(key)),
        }
    }

    /// In order: the next field, when it is named `key`.
    ///
    /// # Errors
    /// A value that is not a `T`.
    pub(crate) fn next_opt<T: Value<'a>>(&mut self, key: &str) -> Result<Option<T>, WmsError> {
        match self.fields.get(self.next) {
            Some(field) if field.key == key => self.take(self.next).map(Some),
            _ => Ok(None),
        }
    }

    /// In order: the next field, which must be named `key`.
    ///
    /// # Errors
    /// `expected <key>=, found <other>=`, `missing field <key>` at the
    /// end of the line, or a value that is not a `T`.
    pub(crate) fn next<T: Value<'a>>(&mut self, key: &str) -> Result<T, WmsError> {
        if let Some(value) = self.next_opt(key)? {
            return Ok(value);
        }
        Err(match self.fields.get(self.next) {
            Some(other) => self.err(format!("expected {key}=, found {}=", other.key)),
            None => self.missing(key),
        })
    }

    /// In order: the next field whatever its name, for formats whose
    /// key set is open (`ok k=v …`) or whose lines carry any subset of
    /// it (`sites.def`).
    pub fn next_any(&mut self) -> Option<(&'a str, &'a str)> {
        let Field { key, value } = *self.fields.get(self.next)?;
        self.read |= 1 << self.next;
        self.next += 1;
        Some((key, value))
    }

    /// Accounts for the line: every field must have been read.
    ///
    /// # Errors
    /// `unknown field <key>` for the first field nobody read, or
    /// `repeated field <key>` when another field has its name.
    pub fn finish(&self) -> Result<(), WmsError> {
        let idx = self.read.trailing_ones() as usize;
        match self.fields.get(idx) {
            None => Ok(()),
            Some(unread) => Err(self.unread(unread.key)),
        }
    }

    #[cold]
    fn unread(&self, key: &str) -> WmsError {
        let named = self.fields.iter().filter(|f| f.key == key).count();
        let what = if named > 1 { "repeated" } else { "unknown" };
        self.err(format!("{what} field {key}"))
    }
}

/// The decimal digit pairs `00` to `99`, end to end.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal, as `Display` writes it, without `core::fmt`.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while v >= 100 {
        let pair = usize::from((v % 100) as u8) * 2;
        v /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = usize::from(v as u8) * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + v as u8;
    }
    // Every byte is an ASCII digit, so this never fails.
    if let Ok(text) = std::str::from_utf8(&digits[at..]) {
        out.push_str(text);
    }
}

/// Appends `v` in decimal, as `Display` writes it, without `core::fmt`.
pub fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// The fraction bits of the fixed point [`push_f64`] finds digits in.
/// Every float of at least 2^-70 and below 2^53, and the quarter of
/// its last place that bounds its rounding interval, is exact in it,
/// and ten times a fraction still fits a `u128`.
const FRACTION_BITS: i32 = 124;

/// Appends `v` exactly as `Display` writes it: the fewest digits that
/// read back to `v`, the nearer of two candidates when both do and the
/// upper of two equally near, in positional notation (`1e21` is 22
/// digits, `1e-7` is `0.0000001`), `-0`, `NaN`, `inf` and `-inf`.
///
/// A finite `v` with `2^-70 <= |v| < 2^53` — every time, size and
/// runtime the formats write — is found in integer arithmetic: its
/// integer part is written as an integer, and its fraction one digit
/// at a time, each step checking whether the digits so far, or the
/// digits so far with the last one raised, lie within `v`'s rounding
/// interval (inclusive when `v`'s mantissa is even, as a reader rounds
/// half to even). The first digit at which one does is the shortest
/// text; that is the free-format method of Steele and White, which
/// `Display` answers with too. Anything else is handed to `Display`.
pub fn push_f64(out: &mut String, v: f64) {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // v = ±m × 2^e
    let (m, e) = (fraction | 1 << 52, biased - 1075);
    if v.is_nan() {
        return out.push_str("NaN");
    }
    if v.is_sign_negative() {
        out.push('-');
    }
    if v == 0.0 {
        return out.push('0');
    }
    if v.is_infinite() {
        return out.push_str("inf");
    }
    if biased == 0 || !(2 - FRACTION_BITS..=0).contains(&e) {
        return push_f64_display(out, v.abs());
    }
    let m = u128::from(m);
    push_u64(out, (m >> -e) as u64);
    let one = 1u128 << FRACTION_BITS;
    let mut rest = (m << (FRACTION_BITS + e)) & (one - 1);
    if rest == 0 {
        return;
    }
    // Half a last place on either side, a quarter below a power of
    // two, whose lower neighbour is half as far.
    let mut above = 1u128 << (FRACTION_BITS - 1 + e);
    let mut below = if fraction == 0 { above / 2 } else { above };
    let inclusive = m % 2 == 0;
    out.push('.');
    loop {
        (rest, below, above) = (rest * 10, below * 10, above * 10);
        let digit = (rest >> FRACTION_BITS) as u8;
        rest &= one - 1;
        let down = rest < below || inclusive && rest == below;
        let up = one - rest < above || inclusive && one - rest == above;
        if down || up {
            // The nearer of the two, the upper one on a tie. A raised
            // 9 never carries: the shorter text it would carry to was
            // the candidate one digit earlier.
            let raise = up && (!down || 2 * rest >= one);
            out.push(char::from(b'0' + digit + u8::from(raise)));
            return;
        }
        out.push(char::from(b'0' + digit));
    }
}

/// `Display`'s text of a finite `v` outside [`push_f64`]'s own range:
/// subnormal, below 2^-70, or of 2^53 and above.
#[cold]
fn push_f64_display(out: &mut String, v: f64) {
    let _ = write!(out, "{v}");
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// A float a [`Writer`] has written: its bits, its text and the
/// text's length, zero in a free slot.
type Memo = (u64, [u8; 23], u8);

/// log2 of the number of floats a [`Writer`] remembers.
const MEMO_BITS: u32 = 8;

/// Appends `keyword key=value …` lines to a `String`:
/// `w.kw("submitted").f64("time", t).u64("job", j).end()`.
///
/// An integer is written digit by digit. A float is written exactly
/// as `Display` writes it — the shortest digits that read back to the
/// same bits — but only the first time: a log repeats most of its
/// timestamps (a `started time=` inside the `completed` that follows
/// it, one `submitted time=` across a whole fan-out), so the writer
/// keeps the text of the floats it wrote last in a small
/// direct-mapped table of its own, and copies a repeat from there.
pub struct Writer<'o> {
    out: &'o mut String,
    memo: [Memo; 1 << MEMO_BITS],
}

impl<'o> Writer<'o> {
    /// A writer appending to `out`, remembering nothing yet.
    pub fn new(out: &'o mut String) -> Self {
        let memo = [(0, [0; 23], 0); 1 << MEMO_BITS];
        Writer { out, memo }
    }

    /// Opens a line with its keyword.
    pub(crate) fn kw(&mut self, keyword: &str) -> &mut Self {
        self.out.push_str(keyword);
        self
    }

    /// Closes the line.
    pub(crate) fn end(&mut self) {
        self.out.push('\n');
    }

    fn key(&mut self, key: &str) -> &mut Self {
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push('=');
        self
    }

    /// An integer field.
    pub(crate) fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        push_u64(self.key(key).out, v);
        self
    }

    /// A float field.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        let bits = v.to_bits();
        let slot = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize;
        self.key(key);
        let Writer { out, memo } = self;
        let (known, text, len) = &mut memo[slot];
        if *known == bits && *len != 0 {
            // The slot holds bytes copied from a `str`, so this reads.
            if let Ok(text) = std::str::from_utf8(&text[..usize::from(*len)]) {
                out.push_str(text);
                return self;
            }
        }
        let start = out.len();
        push_f64(out, v);
        // `Display` uses no exponent: `f64::MAX` is 309 digits, which
        // no slot has room for and which is written afresh each time.
        let written = &out.as_bytes()[start..];
        if let Some(room) = text.get_mut(..written.len()) {
            room.copy_from_slice(written);
            (*known, *len) = (bits, written.len() as u8);
        }
        self
    }

    /// A field whose value is one of the format's own words (`true`,
    /// `compute`, `preempted`), written as it is.
    pub(crate) fn word(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key).out.push_str(value);
        self
    }

    /// A name from outside, whatever it holds: `my tool` is written
    /// `my\stool`, and [`Value`] for `Cow<str>` reads it back.
    pub(crate) fn token(&mut self, key: &str, value: &str) -> &mut Self {
        // The bytes of `ESCAPES[0]`, found without decoding a char.
        if !value.bytes().any(|b| b == b'\\' || b.is_ascii_whitespace()) {
            return self.word(key, value);
        }
        self.key(key);
        for c in value.chars() {
            match escape(0, c) {
                Some(letter) => self.out.extend(['\\', letter]),
                None => self.out.push(c),
            }
        }
        self
    }

    /// The free-text field that ends a line: everything survives but a
    /// line break, which becomes a space.
    pub(crate) fn tail(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        for (i, part) in value.split(['\n', '\r']).enumerate() {
            if i > 0 {
                self.out.push(' ');
            }
            self.out.push_str(part);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reason(e: WmsError) -> String {
        let WmsError::Parse {
            format,
            span,
            reason,
            ..
        } = e
        else {
            panic!("not a parse error: {e:?}");
        };
        assert_eq!((format, span), (Format::EventLog, Span::line(7)));
        reason
    }

    #[test]
    fn lines_are_numbered_from_one_and_blank_and_comment_lines_skipped() {
        let text =
            "# header\n\nfirst a=1\n   \n  # indented comment\n\tsecond\r\nthird  x=1  y=2  \n";
        let got: Vec<_> = lines(text)
            .map(|l| (l.number, l.keyword, l.rest, l.text))
            .collect();
        assert_eq!(
            got,
            [
                (3, "first", "a=1", "first a=1"),
                (6, "second", "", "second"),
                (7, "third", "x=1  y=2", "third  x=1  y=2"),
            ]
        );
        assert!(Line::split("", 1).is_skipped());
        assert_eq!(Line::split("run\n", 0).keyword, "run");
    }

    #[test]
    fn only_ascii_whitespace_separates() {
        let mut buf = Vec::new();
        let line = Line::split("\u{a0}job a=1\u{2003}b=2\tc=3 \u{a0}", 7);
        assert_eq!(line.keyword, "\u{a0}job");
        assert_eq!(line.rest, "a=1\u{2003}b=2\tc=3 \u{a0}");
        let e = Fields::split(line.rest, None, 7, Format::EventLog, &mut buf).unwrap_err();
        assert_eq!(reason(e), r#"expected key=value, got "\u{a0}""#);
        let mut f =
            Fields::split("a=1\u{2003}b=2\tc=3", None, 7, Format::EventLog, &mut buf).unwrap();
        assert_eq!(f.get::<&str>("a").unwrap(), "1\u{2003}b=2");
        assert_eq!(f.get::<u32>("c").unwrap(), 3);
        f.finish().unwrap();
    }

    #[test]
    fn keyed_reads_find_fields_anywhere_and_type_them() {
        let mut buf = Vec::new();
        let mut f = Fields::split(
            "b=2 a=-1 on=true x=1.5 s=text",
            None,
            7,
            Format::EventLog,
            &mut buf,
        )
        .unwrap();
        assert_eq!(f.get::<i32>("a").unwrap(), -1);
        assert_eq!(f.get::<usize>("b").unwrap(), 2);
        assert!(f.get::<bool>("on").unwrap());
        assert_eq!(f.get::<f64>("x").unwrap(), 1.5);
        assert_eq!(f.opt::<&str>("s").unwrap(), Some("text"));
        assert_eq!(f.opt::<u64>("absent").unwrap(), None);
        f.finish().unwrap();
        assert_eq!(
            reason(f.get::<u32>("absent").unwrap_err()),
            "missing field absent"
        );
    }

    #[test]
    fn bad_values_name_type_text_and_key() {
        let mut buf = Vec::new();
        for (field, want) in [
            ("n=-1", "bad integer \"-1\" for n"),
            ("n=", "bad integer \"\" for n"),
            ("x=fast", "bad number \"fast\" for x"),
            ("x=nan", "bad number \"nan\" for x"),
            ("x=inf", "bad number \"inf\" for x"),
            ("x=-infinity", "bad number \"-infinity\" for x"),
            ("on=yes", "bad boolean \"yes\" for on"),
        ] {
            let mut f = Fields::split(field, None, 7, Format::EventLog, &mut buf).unwrap();
            let got = match &field[..1] {
                "n" => f.get::<usize>("n").map(drop),
                "x" => f.get::<f64>("x").map(drop),
                _ => f.get::<bool>("on").map(drop),
            };
            assert_eq!(reason(got.unwrap_err()), want);
        }
        let f = Fields::split("", None, 7, Format::EventLog, &mut buf).unwrap();
        assert_eq!(f.parse::<u64>("members", "7").unwrap(), 7);
        assert_eq!(
            reason(f.parse::<u64>("members", "x").unwrap_err()),
            "bad integer \"x\" for members"
        );
    }

    #[test]
    fn a_list_types_its_items_and_refuses_an_empty_one() {
        let mut buf = Vec::new();
        let f = Fields::split("", None, 7, Format::EventLog, &mut buf).unwrap();
        assert_eq!(f.list::<usize>("members", "0,2,5").unwrap(), [0, 2, 5]);
        assert_eq!(f.list::<&str>("packages", "cap3").unwrap(), ["cap3"]);
        assert!(f.list::<&str>("packages", "").unwrap().is_empty());
        for raw in ["0,,2", ",0", "0,", ","] {
            let e = f.list::<usize>("members", raw).unwrap_err();
            assert_eq!(reason(e), "members contains an empty item", "{raw}");
        }
        assert_eq!(
            reason(f.list::<usize>("members", "0,x").unwrap_err()),
            "bad integer \"x\" for members"
        );
    }

    #[test]
    fn a_token_without_an_equals_sign_and_a_line_of_too_many_fields_are_refused() {
        let mut buf = Vec::new();
        let e = Fields::split("a=1 stray b=2", None, 7, Format::EventLog, &mut buf).unwrap_err();
        assert_eq!(reason(e), "expected key=value, got \"stray\"");
        // One bit per field says whether it was read.
        let full = "k=v ".repeat(64);
        Fields::split(&full, None, 7, Format::EventLog, &mut buf).unwrap();
        let over = "k=v ".repeat(65);
        let e = Fields::split(&over, None, 7, Format::EventLog, &mut buf).unwrap_err();
        assert_eq!(reason(e), "65 fields on one line");
    }

    #[test]
    fn the_tail_field_runs_to_the_end_of_the_line() {
        let mut buf = Vec::new();
        let mut f = Fields::split(
            "id=3 rename=x name=my file name=again k=v",
            Some("name"),
            7,
            Format::EventLog,
            &mut buf,
        )
        .unwrap();
        assert_eq!(f.get::<&str>("name").unwrap(), "my file name=again k=v");
        assert_eq!(f.get::<usize>("id").unwrap(), 3);
        assert_eq!(f.get::<&str>("rename").unwrap(), "x");
        f.finish().unwrap();
        // The tail may open the line, be empty, or be absent.
        let mut f = Fields::split(
            "name=only this",
            Some("name"),
            7,
            Format::EventLog,
            &mut buf,
        )
        .unwrap();
        assert_eq!(f.next::<&str>("name").unwrap(), "only this");
        let mut f =
            Fields::split("a=1 name=", Some("name"), 7, Format::EventLog, &mut buf).unwrap();
        assert_eq!(f.get::<&str>("name").unwrap(), "");
        let mut f =
            Fields::split("a=1 surname=x", Some("name"), 7, Format::EventLog, &mut buf).unwrap();
        assert_eq!(f.opt::<&str>("name").unwrap(), None);
    }

    #[test]
    fn in_order_reads_insist_on_the_order() {
        let mut buf = Vec::new();
        let mut f = Fields::split("id=1 seed=9 n=4", None, 7, Format::EventLog, &mut buf).unwrap();
        assert_eq!(f.next::<usize>("id").unwrap(), 1);
        assert_eq!(f.next_opt::<u32>("retries").unwrap(), None);
        assert_eq!(f.next_opt::<u64>("seed").unwrap(), Some(9));
        assert_eq!(
            reason(f.next::<usize>("id").unwrap_err()),
            "expected id=, found n="
        );
        assert_eq!(f.next_any(), Some(("n", "4")));
        assert_eq!(f.next_any(), None);
        assert_eq!(
            reason(f.next::<usize>("id").unwrap_err()),
            "missing field id"
        );
        f.finish().unwrap();
    }

    #[test]
    fn keyed_reads_look_after_the_last_field_read_first() {
        let mut buf = Vec::new();
        // Asked in written order, each read is the next field ...
        let mut f = Fields::split(
            "time=1 job=2 attempt=3",
            None,
            7,
            Format::EventLog,
            &mut buf,
        )
        .unwrap();
        for (key, want) in [("time", 1), ("job", 2), ("attempt", 3)] {
            assert_eq!(f.get::<u32>(key).unwrap(), want);
        }
        f.finish().unwrap();
        // ... and a repeat is left over whichever of the two was read.
        let mut f =
            Fields::split("job=9 time=1 job=2", None, 7, Format::EventLog, &mut buf).unwrap();
        assert_eq!(f.get::<u32>("time").unwrap(), 1);
        assert_eq!(f.get::<u32>("job").unwrap(), 2);
        assert_eq!(reason(f.finish().unwrap_err()), "repeated field job");
    }

    #[test]
    fn the_writer_writes_what_the_reader_reads() {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.kw("job")
            .u64("id", 0)
            .u64("big", u64::MAX)
            .f64("time", 690.9675392546765)
            .f64("zero", -0.0)
            .word("kind", "compute")
            .token("tool", "my tool\t\\x")
            .token("plain", "run_cap3")
            .token("empty", "")
            .tail("name", "a b\r\nname=c")
            .end();
        w.kw("next").end();
        let text = "job id=0 big=18446744073709551615 time=690.9675392546765 zero=-0 \
                    kind=compute tool=my\\stool\\t\\\\x plain=run_cap3 empty= name=a b  name=c\nnext\n";
        assert_eq!(out, text);
        let mut buf = Vec::new();
        let line = lines(&out).next().unwrap();
        let mut f = Fields::split(line.rest, Some("name"), 7, Format::EventLog, &mut buf).unwrap();
        assert_eq!(f.next::<u64>("id").unwrap(), 0);
        assert_eq!(f.next::<u64>("big").unwrap(), u64::MAX);
        assert_eq!(f.next::<f64>("time").unwrap(), 690.9675392546765);
        assert!(f.next::<f64>("zero").unwrap().is_sign_negative());
        assert_eq!(f.next::<&str>("kind").unwrap(), "compute");
        assert_eq!(f.next::<Cow<'_, str>>("tool").unwrap(), "my tool\t\\x");
        // A token with nothing to escape is borrowed from the line.
        let plain = f.next::<Cow<'_, str>>("plain").unwrap();
        assert!(matches!(plain, Cow::Borrowed("run_cap3")));
        assert_eq!(f.next::<Cow<'_, str>>("empty").unwrap(), "");
        assert_eq!(f.next::<&str>("name").unwrap(), "a b  name=c");
        f.finish().unwrap();
        // An escape the writer never writes is not a token.
        for (field, bad) in [("tool=a\\qb", "a\\qb"), ("tool=ends\\", "ends\\")] {
            let mut f = Fields::split(field, None, 7, Format::EventLog, &mut buf).unwrap();
            let e = f.get::<Cow<'_, str>>("tool").unwrap_err();
            assert_eq!(reason(e), format!("bad token {bad:?} for tool"));
        }
    }

    fn pushed(v: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, v);
        out
    }

    #[test]
    fn a_float_is_written_as_display_writes_it() {
        // A decimal tie: this float's rounding interval holds both
        // 17-digit texts `.2` and `.3`, equally near, and `Display`
        // takes the upper one.
        let tie = 1_837_410_958_616_324.0_f64 + 0.25;
        assert_eq!(
            tie.fract(),
            0.25,
            "exact: a quarter is this float's last place"
        );
        assert_eq!(pushed(tie), "1837410958616324.3");
        assert_eq!(pushed(0.30000000000000004), "0.30000000000000004");
        let two = |k: i32| 2f64.powi(k);
        let mut cases = vec![
            0.0,
            1e21,
            1e23,
            1e-7,
            0.1,
            123.456,
            690.9675392546765,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            2.5e-320,
            two(53) - 1.0,
            two(-70),
            f64::NAN,
            f64::INFINITY,
        ];
        // Powers of two, whose lower neighbour is half as far as the
        // upper; the floats either side of them, whose mantissas are
        // odd and even; and the edges of the exact range.
        for k in [-75, -71, -70, -69, -8, -1, 0, 1, 10, 52, 53, 54, 70] {
            let bits = two(k).to_bits();
            cases.extend([bits - 2, bits - 1, bits, bits + 1, bits + 2].map(f64::from_bits));
        }
        for v in cases {
            for v in [v, -v] {
                assert_eq!(pushed(v), format!("{v}"), "{:#x}", v.to_bits());
            }
        }
        assert_eq!(pushed(-0.0), "-0");
        assert_eq!(pushed(-f64::NAN), "NaN");
        assert_eq!(pushed(f64::NEG_INFINITY), "-inf");
    }

    #[test]
    #[ignore = "ten million floats; CI's release step runs it"]
    fn ten_million_random_floats_are_written_as_display_writes_them() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let (mut got, mut want) = (String::new(), String::new());
        for i in 0..10_000_000u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Every other draw has an exponent in or near the exact
            // range, where most of a log's numbers are.
            let bits = match i % 2 {
                0 => state,
                _ => state & 0x800F_FFFF_FFFF_FFFF | (900 + (state >> 52) % 250) << 52,
            };
            let v = f64::from_bits(bits);
            got.clear();
            want.clear();
            push_f64(&mut got, v);
            let _ = write!(want, "{v}");
            assert_eq!(got, want, "{bits:#x}");
        }
    }

    #[test]
    fn integers_are_written_as_display_writes_them() {
        for v in [0, 9, 10, 99, 100, 101, 12_345, u64::MAX / 10, u64::MAX] {
            let (mut unsigned, mut signed) = (String::new(), String::new());
            push_u64(&mut unsigned, v);
            assert_eq!(unsigned, v.to_string());
            let v = v as i64;
            push_i64(&mut signed, v);
            assert_eq!(signed, v.to_string());
        }
        let mut min = String::new();
        push_i64(&mut min, i64::MIN);
        assert_eq!(min, i64::MIN.to_string());
    }

    #[test]
    fn finish_names_the_first_field_nobody_read() {
        let mut buf = Vec::new();
        let mut f =
            Fields::split("job=0 bogus=1 job=999", None, 7, Format::EventLog, &mut buf).unwrap();
        assert_eq!(f.get::<usize>("job").unwrap(), 0);
        assert_eq!(reason(f.finish().unwrap_err()), "unknown field bogus");
        assert_eq!(f.get::<usize>("bogus").unwrap(), 1);
        assert_eq!(reason(f.finish().unwrap_err()), "repeated field job");
        // The buffer is reused: nothing of the last line survives.
        let f = Fields::split("", None, 7, Format::EventLog, &mut buf).unwrap();
        f.finish().unwrap();
    }
}
