//! Minimal JSON support for the experiment regenerators: a value tree,
//! a pretty printer for `results/<name>.json`, a small strict parser,
//! [`Fields`], the one field reader of the JSON front ends (`customize`
//! scenario files and `dse` batch requests), and [`read_topology`], the
//! one reader of their `topology` objects.
//!
//! Local on purpose — the workspace builds offline, so the usual
//! serde/serde_json stack is not available. Only what the experiments
//! need is implemented: objects keep insertion order, numbers are `f64`
//! (integers up to 2^53 round-trip exactly), and the parser rejects
//! anything outside the JSON grammar instead of guessing.

use crate::limits::{MAX_HOSTS, MAX_LINKS, MAX_SWITCHES};
use tsn_topology::presets::TopologySpec;

/// A JSON value. Object members keep their insertion order, so emitted
/// files are stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers are printed without a fraction).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array by converting each item.
    pub fn arr<T: ToJson>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(|v| v.to_json()).collect())
    }

    /// Member lookup on an object; `None` on other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; null is the honest fallback.
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] tree.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

macro_rules! to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
to_json_int!(u8, u16, u32, u64, usize, i32, i64);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so without a bound a file of a few hundred
/// thousand `[` overflows the thread stack and aborts the process. The
/// shipped scenario and DSE batch files nest at most 6 deep.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON text.
///
/// # Errors
///
/// A human-readable message naming the byte offset of the problem,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a JSON value at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?} at byte {key_at}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {}", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character. `pos` only advances
                    // over ASCII bytes and whole characters, so it sits
                    // on a boundary of the `&str` input; slicing from it
                    // is O(1), where re-validating the rest as UTF-8 made
                    // long strings quadratic.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {}", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads the whole run of number characters, so the error quotes
    /// the token, then holds it to the JSON grammar before `f64::parse`
    /// (which alone would accept `01`, `1.` and the like).
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos]; // ASCII only, so on boundaries
        match text.parse::<f64>() {
            Ok(n) if is_json_number(text.as_bytes()) => Ok(Json::Num(n)),
            _ => Err(format!("bad number {text:?} at byte {start}")),
        }
    }
}

/// Whether `text` is exactly one JSON number (RFC 8259 §6):
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(text: &[u8]) -> bool {
    let digits_from = |i: usize| i + text[i..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut i = usize::from(text.first() == Some(&b'-'));
    i = match text.get(i) {
        Some(b'0') => i + 1,
        Some(b'1'..=b'9') => digits_from(i + 1),
        _ => return false,
    };
    if text.get(i) == Some(&b'.') {
        let end = digits_from(i + 1);
        if end == i + 1 {
            return false;
        }
        i = end;
    }
    if matches!(text.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(text.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let end = digits_from(i);
        if end == i {
            return false;
        }
        i = end;
    }
    i == text.len()
}

/// A type [`Fields`] reads out of one member, and what the member must
/// be to hold one.
pub trait FieldValue<'a>: Sized {
    /// The expected JSON, for the error message.
    const EXPECTED: &'static str;
    /// The member as `Self`, if it is one exactly.
    fn from_json(value: &'a Json) -> Option<Self>;
}

impl FieldValue<'_> for u64 {
    const EXPECTED: &'static str = "a non-negative integer";
    fn from_json(value: &Json) -> Option<Self> {
        value.as_u64()
    }
}

impl FieldValue<'_> for u32 {
    const EXPECTED: &'static str = "a non-negative integer below 2^32";
    fn from_json(value: &Json) -> Option<Self> {
        value.as_u64().and_then(|v| u32::try_from(v).ok())
    }
}

impl FieldValue<'_> for bool {
    const EXPECTED: &'static str = "a boolean";
    fn from_json(value: &Json) -> Option<Self> {
        match value {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl FieldValue<'_> for String {
    const EXPECTED: &'static str = "a string";
    fn from_json(value: &Json) -> Option<Self> {
        value.as_str().map(str::to_owned)
    }
}

impl<'a> FieldValue<'a> for &'a [Json] {
    const EXPECTED: &'static str = "an array";
    fn from_json(value: &'a Json) -> Option<Self> {
        match value {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// An object's members.
impl<'a> FieldValue<'a> for &'a [(String, Json)] {
    const EXPECTED: &'static str = "a JSON object";
    fn from_json(value: &'a Json) -> Option<Self> {
        match value {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// The strict reader over one object of a request, shared by the
/// `customize` scenario files and the `dse` batches.
///
/// - The view carries its error context (`"queries[3]"`, `"flows"`),
///   and every error reads `context: complaint`, naming the field:
///   `missing required field "k"`, `field "k" must be a string`,
///   `field "k" holds 5, above the limit of 4`, `unknown field "k"
///   (allowed: ...)` or `must be a JSON object`.
/// - Fields outside the allowed list are rejected when the view is made,
///   so a typo fails loudly instead of silently using a default.
/// - `null` on an optional field means the field is absent; on a
///   required one, it is missing.
/// - Bounded reads go through [`crate::limits::within`].
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    at: &'a str,
    members: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    /// Views `value` under the error context `at`; errors unless it is an
    /// object with no member outside `allowed`.
    pub fn new(value: &'a Json, at: &'a str, allowed: &[&str]) -> Result<Self, String> {
        let members = FieldValue::from_json(value)
            .ok_or_else(|| format!("{at}: must be {}", <&[(String, Json)]>::EXPECTED))?;
        Fields::of(members, at, allowed)
    }

    fn of(members: &'a [(String, Json)], at: &'a str, allowed: &[&str]) -> Result<Self, String> {
        let fields = Fields { at, members };
        match members.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((key, _)) => Err(fields.error(format!(
                "unknown field {key:?} (allowed: {})",
                allowed.join(", ")
            ))),
            None => Ok(fields),
        }
    }

    /// `message` prefixed with the view's context.
    #[must_use]
    pub fn error(&self, message: impl std::fmt::Display) -> String {
        format!("{}: {message}", self.at)
    }

    /// Member `key` as written, `null` included; `None` when absent.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&'a Json> {
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Optional member `key`, `None` when absent or `null`; errors when
    /// it is of another type.
    pub fn opt<T: FieldValue<'a>>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => T::from_json(value)
                .map(Some)
                .ok_or_else(|| self.error(format!("field {key:?} must be {}", T::EXPECTED))),
        }
    }

    /// Required member `key`; errors when it is missing, `null` or of
    /// another type.
    pub fn req<T: FieldValue<'a>>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| self.error(format!("missing required field {key:?}")))
    }

    /// `value` of field `key`; errors when it is above `max`.
    pub fn limit(&self, key: &str, value: u64, max: u64) -> Result<u64, String> {
        crate::limits::within(key, value, max).map_err(|e| self.error(e))
    }

    /// Required integer member `key`, at most `max`.
    pub fn within(&self, key: &str, max: u64) -> Result<u64, String> {
        self.limit(key, self.req(key)?, max)
    }

    /// Optional integer member `key`, at most `max`.
    pub fn opt_within(&self, key: &str, max: u64) -> Result<Option<u64>, String> {
        let value = self.opt(key)?;
        value.map(|v| self.limit(key, v, max)).transpose()
    }

    /// Required object member `key`, viewed as [`Fields::new`] does under
    /// the context `at`.
    pub fn object(&self, key: &str, at: &'a str, allowed: &[&str]) -> Result<Fields<'a>, String> {
        Fields::of(self.req(key)?, at, allowed)
    }

    /// Optional object member `key`, as [`Fields::object`]; absent or
    /// `null`, it reads as an empty object, whose fields are all absent.
    pub fn object_or_empty(
        &self,
        key: &str,
        at: &'a str,
        allowed: &[&str],
    ) -> Result<Fields<'a>, String> {
        Fields::of(self.opt(key)?.unwrap_or_default(), at, allowed)
    }
}

/// Fields of a named preset topology.
const NAMED_FIELDS: &[&str] = &["kind", "switches", "hosts"];
/// Fields of an inline topology.
const INLINE_FIELDS: &[&str] = &["switches", "hosts", "links"];

/// The `topology` member of `parent`, as either front end writes it: a
/// named preset `{"kind", "switches", "hosts"}` (a `kind` selects this
/// form) or an inline `{"switches": [names], "hosts": [names], "links":
/// [[a, b], ...]}`. Every error carries the caller's context `at`.
/// Counts are bounded by [`crate::limits`]; the preset name is left to
/// [`TopologySpec::build`].
///
/// # Errors
///
/// A missing or malformed member, a field of the other form, or a count
/// above its limit.
pub fn read_topology<'a>(parent: &Fields<'a>, at: &'a str) -> Result<TopologySpec, String> {
    let named = parent.get("topology").and_then(|t| t.get("kind")).is_some();
    let allowed = if named { NAMED_FIELDS } else { INLINE_FIELDS };
    let topo = parent.object("topology", at, allowed)?;
    if named {
        return Ok(TopologySpec::Named {
            kind: topo.req("kind")?,
            switches: topo.within("switches", MAX_SWITCHES)? as usize,
            hosts: topo.within("hosts", MAX_HOSTS)? as usize,
        });
    }
    let array = |key: &str, max: u64| -> Result<&[Json], String> {
        let items: &[Json] = topo.req(key)?;
        topo.limit(key, items.len() as u64, max)?;
        Ok(items)
    };
    let names = |key: &str, max: u64| -> Result<Vec<String>, String> {
        array(key, max)?
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| topo.error(format!("{key:?} entries must be strings")))
            })
            .collect()
    };
    let raw_links = array("links", MAX_LINKS)?;
    let mut links = Vec::with_capacity(raw_links.len());
    for link in raw_links {
        let Json::Arr(pair) = link else {
            return Err(topo.error("each link must be a two-element array"));
        };
        let [a, b] = pair.as_slice() else {
            return Err(topo.error("each link must name exactly two endpoints"));
        };
        let (Some(a), Some(b)) = (a.as_str(), b.as_str()) else {
            return Err(topo.error("link endpoints must be strings"));
        };
        links.push((a.to_owned(), b.to_owned()));
    }
    Ok(TopologySpec::Inline {
        switches: names("switches", MAX_SWITCHES)?,
        hosts: names("hosts", MAX_HOSTS)?,
        links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_the_printer_and_parser() {
        let value = Json::obj([
            ("name", Json::Str("ring \"demo\"\n".into())),
            ("count", Json::Num(1024.0)),
            ("ratio", Json::Num(2.5)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("items", Json::arr([1u64, 2, 3])),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj([("x", Json::Num(-7.0))])),
        ]);
        let text = value.pretty();
        let parsed = parse(&text).expect("own output parses");
        assert_eq!(parsed, value);
    }

    #[test]
    fn integers_print_without_a_fraction() {
        assert_eq!(Json::Num(65.0).pretty(), "65\n");
        assert_eq!(Json::Num(0.5).pretty(), "0.5\n");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("true false").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("-12.5", -12.5),
            ("0.25", 0.25),
            ("1e3", 1e3),
            ("1E+2", 1e2),
            ("25e-1", 2.5),
            ("-0.5e-0", -0.5),
        ] {
            assert_eq!(parse(text), Ok(Json::Num(value)), "{text}");
        }
        for text in [
            "01", "1.", "-", "1e", "00", "-.5", "1.e3", "1e+", "--1", "1-", "1.2.3", "-01",
        ] {
            let err = parse(text).expect_err(text);
            assert!(
                err.starts_with("bad number") && err.ends_with("at byte 0"),
                "{text}: {err}"
            );
        }
        let err = parse(r#"{"seed": 01}"#).expect_err("leading zero");
        assert_eq!(err, r#"bad number "01" at byte 9"#);
        // Signs and dots that cannot start a number are not numbers.
        for text in ["+1", ".5"] {
            assert!(parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn parser_rejects_duplicate_keys() {
        let err = parse(r#"{"a": 1, "a": 2}"#).expect_err("duplicates rejected");
        assert!(err.contains("duplicate key \"a\""), "{err}");
        // Nested objects are checked too; sibling objects may repeat keys.
        assert!(parse(r#"{"o": {"x": 1, "x": 2}}"#).is_err());
        assert!(parse(r#"{"o": {"x": 1}, "p": {"x": 2}}"#).is_ok());
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let deep = "[".repeat(200_000);
        let err = parse(&deep).expect_err("too deep");
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        assert!(parse(&format!("{{\"queries\": {deep}")).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        assert!(parse(&format!("[{at_limit}]")).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(parse("{} {}").is_err());
        assert!(parse("[1] x").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn accessors_read_typed_members() {
        let v = parse(r#"{"a": 3, "b": "x", "c": true, "d": 1.5}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(Json::as_f64), Some(1.5));
        assert_eq!(
            v.get("d").and_then(Json::as_u64),
            None,
            "1.5 is not integral"
        );
    }

    #[test]
    fn fields_read_typed_members_and_name_their_context() {
        let v = parse(r#"{"n": 3, "s": "x", "b": true, "z": null, "a": [1], "o": {"k": 1}}"#)
            .expect("parses");
        let all = ["n", "s", "b", "z", "a", "o", "absent"];
        let f = Fields::new(&v, "flows", &all).expect("object with known fields");
        assert_eq!(f.req::<u64>("n"), Ok(3));
        assert_eq!(f.req::<u32>("n"), Ok(3));
        assert_eq!(f.req::<String>("s").as_deref(), Ok("x"));
        assert_eq!(f.req::<bool>("b"), Ok(true));
        assert_eq!(f.req::<&[Json]>("a").map(<[Json]>::len), Ok(1));
        assert_eq!(f.within("n", 3), Ok(3));
        assert_eq!(f.opt_within("absent", 0), Ok(None));
        let o = f.object("o", "options", &["k"]).expect("nested object");
        assert_eq!(o.req::<u64>("k"), Ok(1));
        // `null` on an optional field means absent; on a required one it
        // is missing.
        assert_eq!(f.opt::<u64>("z"), Ok(None));
        let empty = f.object_or_empty("z", "run", &[]).expect("null object");
        assert_eq!(empty.opt::<u64>("n"), Ok(None));
        assert!(f.object("z", "run", &[]).is_err());
        assert_eq!(
            f.req::<u64>("z"),
            Err("flows: missing required field \"z\"".to_owned())
        );
        assert_eq!(
            f.req::<u64>("s"),
            Err("flows: field \"s\" must be a non-negative integer".to_owned())
        );
        assert_eq!(
            f.within("n", 2),
            Err("flows: field \"n\" holds 3, above the limit of 2".to_owned())
        );
        assert_eq!(
            f.object("n", "x", &[]).map(|_| ()),
            Err("flows: field \"n\" must be a JSON object".to_owned())
        );
        let e = f
            .object("o", "options", &[])
            .map(|_| ())
            .expect_err("k unknown");
        assert_eq!(e, "options: unknown field \"k\" (allowed: )");
        let e = Fields::new(&v, "request", &["n"]).expect_err("s unknown");
        assert_eq!(e, "request: unknown field \"s\" (allowed: n)");
        let e = Fields::new(&Json::Num(1.0), "queries[0]", &[]).expect_err("not an object");
        assert_eq!(e, "queries[0]: must be a JSON object");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Each character used to re-validate the rest of the input.
        let text = format!("[\"{}\"]", "é".repeat(1 << 20));
        let Ok(Json::Arr(items)) = parse(&text) else {
            panic!("parses");
        };
        assert_eq!(items[0].as_str().map(str::len), Some(2 << 20));
        assert!(parse("\"abc").expect_err("open").contains("at byte 4"));
    }
}
