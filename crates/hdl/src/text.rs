//! [`Text`]: every identifier and text item of the IR, either owned (the
//! templates build it) or a span of the one source a parse read.
//!
//! A parse copies its input once into one shared source and records,
//! from the same lexer pass that feeds the parser, the byte span of
//! every non-keyword identifier token. Each parsed name, connection,
//! assign side, block line or comment is then a span of that source: no
//! token allocates, and [`Text::idents`] answers from the recorded
//! table instead of lexing the text again. Owned text (built IR) is
//! lexed when asked.

use crate::parse::{is_keyword, lex, Lexer, Tok};
use crate::validate::is_identifier;
use core::fmt;
use core::ops::Deref;
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One parse's input and the names its lexer found.
#[derive(Debug)]
pub(crate) struct Source {
    text: Box<str>,
    /// `(start, end)` byte spans of every name (non-keyword identifier
    /// token), in source order.
    names: Vec<(u32, u32)>,
}

impl Source {
    /// Wraps a parse's input with its name table. Offsets are `u32`, so
    /// the caller bounds `text` to 4 GiB.
    pub(crate) fn new(text: &str, names: Vec<(u32, u32)>) -> Arc<Self> {
        Arc::new(Source {
            text: text.into(),
            names,
        })
    }
}

/// A name or text item of the IR. It compares, hashes, prints and
/// dereferences as the `str` it holds, wherever that lives.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    Owned(String),
    Parsed {
        src: Arc<Source>,
        start: u32,
        end: u32,
        /// The indices of the source's names that this text holds.
        names: (u32, u32),
    },
}

impl Text {
    /// The bytes `start..end` of a parse's source, on char
    /// boundaries, holding the source's names `names.0..names.1`.
    pub(crate) fn span(src: &Arc<Source>, (start, end): (usize, usize), names: (u32, u32)) -> Self {
        Text(Repr::Parsed {
            src: Arc::clone(src),
            start: start as u32,
            end: end as u32,
            names,
        })
    }

    /// The length of the text in bytes, read without touching a parsed
    /// text's source: comparisons check it first.
    fn byte_len(&self) -> usize {
        match &self.0 {
            Repr::Owned(text) => text.len(),
            Repr::Parsed { start, end, .. } => (end - start) as usize,
        }
    }

    /// The text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Owned(text) => text,
            Repr::Parsed {
                src, start, end, ..
            } => &src.text[*start as usize..*end as usize],
        }
    }

    /// Every non-keyword identifier in the text, in order; comments and
    /// literals hold none. Parsed text reads the names its parse
    /// recorded; owned text that is not one identifier is lexed. (The
    /// text of a parsed [`Item::Comment`](crate::Item::Comment) was a
    /// comment to the lexer, so it holds none either.)
    pub fn idents(&self) -> Idents<'_> {
        Idents(match &self.0 {
            Repr::Owned(text) if is_identifier(text) => IdentsRepr::One(Some(text)),
            Repr::Owned(text) => IdentsRepr::Lexed(lex(text)),
            Repr::Parsed {
                src,
                names: (from, to),
                ..
            } => IdentsRepr::Table(&src.text, src.names[*from as usize..*to as usize].iter()),
        })
    }
}

/// The iterator [`Text::idents`] returns.
#[derive(Clone)]
pub struct Idents<'a>(IdentsRepr<'a>);

#[derive(Clone)]
enum IdentsRepr<'a> {
    One(Option<&'a str>),
    Lexed(Lexer<'a>),
    Table(&'a str, core::slice::Iter<'a, (u32, u32)>),
}

impl<'a> Iterator for Idents<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        match &mut self.0 {
            IdentsRepr::One(word) => word.take().filter(|w| !is_keyword(w)),
            IdentsRepr::Lexed(lexer) => lexer.find(Tok::is_name).map(|tok| tok.text),
            IdentsRepr::Table(text, spans) => {
                spans.next().map(|&(s, e)| &text[s as usize..e as usize])
            }
        }
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    fn from(text: &str) -> Self {
        Text(Repr::Owned(text.to_owned()))
    }
}

impl From<String> for Text {
    fn from(text: String) -> Self {
        Text(Repr::Owned(text))
    }
}

impl From<&String> for Text {
    fn from(text: &String) -> Self {
        Text::from(text.as_str())
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.byte_len() == other.byte_len() && self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.byte_len() == other.len() && self.as_str() == other
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        *self == **other
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_modules;

    #[test]
    fn parsed_and_owned_text_agree() {
        let src =
            "module m ( input clk );\n    assign a = b & c // ghost\n        + 8'h0f;\nendmodule\n";
        let m = &parse_modules(src).expect("parses")[0];
        let crate::Item::Assign { lhs, rhs } = &m.items[0] else {
            panic!("one assign");
        };
        assert_eq!(lhs.idents().collect::<Vec<_>>(), ["a"]);
        assert_eq!(rhs.idents().collect::<Vec<_>>(), ["b", "c"]);
        let owned = Text::from(rhs.as_str());
        assert_eq!(owned, *rhs);
        assert_eq!(owned.idents().collect::<Vec<_>>(), ["b", "c"]);
        assert_eq!(format!("{rhs:?}"), format!("{:?}", rhs.as_str()));
        assert_eq!(Text::from("begin").idents().count(), 0);
        assert_eq!(m.name, "m");
    }

    /// Every text of a module but its comments.
    fn texts(m: &crate::Module) -> Vec<&Text> {
        use crate::Item;
        let mut out = vec![&m.name];
        out.extend(m.params.iter().map(|p| &p.name));
        out.extend(m.ports.iter().map(|p| &p.name));
        for item in &m.items {
            match item {
                Item::Comment(_) => {}
                Item::Wire { name, .. }
                | Item::Reg { name, .. }
                | Item::Memory { name, .. }
                | Item::Localparam { name, .. }
                | Item::Raw(name) => out.push(name),
                Item::Assign { lhs, rhs } => out.extend([lhs, rhs]),
                Item::Always { sensitivity, body } => out.extend(body.iter().chain([sensitivity])),
                Item::Initial { body } => out.extend(body),
                Item::Instance(inst) => {
                    out.extend([&inst.module, &inst.name]);
                    out.extend(inst.params.iter().map(|(p, _)| p));
                    out.extend(inst.connections.iter().flat_map(|(p, e)| [p, e]));
                }
            }
        }
        out
    }

    #[test]
    fn recorded_names_match_a_fresh_lex_of_every_parsed_text() {
        let config = tsn_resource::ResourceConfig::new();
        let source = crate::generate(&config).expect("generates").concatenated();
        let mut checked = 0;
        for m in parse_modules(&source).expect("parses") {
            for text in texts(&m) {
                let lexed = Text::from(text.as_str());
                assert!(text.idents().eq(lexed.idents()), "{text:?}");
                checked += 1;
            }
        }
        assert!(checked > 500, "only {checked} texts");
    }
}
