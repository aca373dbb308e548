//! A structural Verilog parser: reads back what [`crate::templates`]
//! emits into the same [`Module`] IR the templates built.
//!
//! This is deliberately not a full Verilog front-end. It recovers module
//! names, parameter defaults, port directions and ranges, net and memory
//! declarations, `localparam`s, `assign`s, `always`/`initial` blocks,
//! module instantiations and `//` comments. Width, depth, parameter and
//! override expressions are parsed once into [`Expr`] trees; everything
//! else is kept as a slice of the source text, so rendering a parsed
//! module gives back the text it came from. A body statement outside
//! these shapes becomes an [`Item::Raw`] holding its source text.
//!
//! Every public entry point returns [`TsnError::InvalidArtifact`] on
//! malformed or truncated input — never a panic (pinned by the
//! prefix-truncation tests below).

use crate::ast::{Dir, Instance, Item, Module, Param, Port};
use crate::expr::{Expr, Op, Range};
use crate::text::{Source, Text};
use std::sync::Arc;
use tsn_types::{TsnError, TsnResult};

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A non-keyword identifier.
    Name,
    /// One of the dialect's [keywords](is_keyword).
    Keyword,
    /// A digit, then letters, digits, `_` and `'`.
    Number,
    /// Any other single character.
    Symbol,
}

/// One token: a slice of the source and its kind. (Its offset is where
/// the slice lies in the source; see [`Parser::start`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tok<'a> {
    pub(crate) text: &'a str,
    kind: Kind,
    /// How many names (non-keyword identifiers) the lexer produced
    /// before this token.
    names_before: u32,
}

impl Tok<'_> {
    pub(crate) fn is_ident(&self) -> bool {
        matches!(self.kind, Kind::Name | Kind::Keyword)
    }

    /// A non-keyword identifier.
    pub(crate) fn is_name(&self) -> bool {
        self.kind == Kind::Name
    }

    /// The names among tokens `self..=last`, as indices of the lexer's
    /// name sequence.
    fn names_through(&self, last: &Tok) -> (u32, u32) {
        let end = last.names_before + u32::from(last.is_name());
        (self.names_before, end)
    }
}

/// Lexes a source fragment into identifiers (letters, digits, `_`,
/// `$`), numbers (a digit, then letters, digits, `_` and `'`, which
/// covers sized literals like `8'h00`) and single-character symbols.
/// `//` line comments and `/* … */` block comments are skipped; an
/// unterminated block comment silently swallows the rest of the input,
/// which the structural checks downstream then report.
pub(crate) fn lex(source: &str) -> Lexer<'_> {
    Lexer {
        source,
        i: 0,
        names: 0,
    }
}

/// The token iterator [`lex`] returns.
#[derive(Clone)]
pub(crate) struct Lexer<'a> {
    source: &'a str,
    /// Byte offset of the next token, always on a char boundary.
    i: usize,
    /// Names produced so far.
    names: u32,
}

/// Byte classes: [`START`] begins an identifier, [`DIGIT`] a number;
/// [`IDENT`] and [`NUMBER`] continue them, [`TAIL`] continues a
/// multi-byte character, and [`SPACE`] separates tokens.
const START: u8 = 1;
const DIGIT: u8 = 2;
const IDENT: u8 = 4;
const NUMBER: u8 = 8;
const TAIL: u8 = 16;
const SPACE: u8 = 32;

/// The class bits of every byte.
const CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        class[b] = if c.is_ascii_alphabetic() || c == b'_' {
            START | IDENT | NUMBER
        } else if c.is_ascii_digit() {
            DIGIT | IDENT | NUMBER
        } else if c == b'$' {
            IDENT
        } else if c == b'\'' {
            NUMBER
        } else if c.is_ascii_whitespace() {
            SPACE
        } else if c & 0xc0 == 0x80 {
            TAIL
        } else {
            0
        };
        b += 1;
    }
    class
};

fn class(b: u8) -> u8 {
    CLASS[usize::from(b)]
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Tok<'a>;

    fn next(&mut self) -> Option<Tok<'a>> {
        let bytes = self.source.as_bytes();
        let n = bytes.len();
        let mut i = self.i;
        let first = loop {
            if i >= n {
                self.i = n;
                return None;
            }
            let b = bytes[i];
            if class(b) & SPACE != 0 {
                i += 1;
            } else if b == b'/' && i + 1 < n && bytes[i + 1] == b'/' {
                let line = bytes[i..].iter().position(|&c| c == b'\n');
                i = line.map_or(n, |len| i + len);
            } else if b == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                let body = &self.source[i + 2..];
                i += 2 + body.find("*/").map_or(body.len(), |len| len + 2);
            } else {
                break class(b);
            }
        };
        let start = i;
        let (tail, kind) = if first & START != 0 {
            (IDENT, Kind::Name)
        } else if first & DIGIT != 0 {
            (NUMBER, Kind::Number)
        } else {
            (TAIL, Kind::Symbol)
        };
        i += 1;
        while i < n && class(bytes[i]) & tail != 0 {
            i += 1;
        }
        let text = &self.source[start..i];
        let kind = if kind == Kind::Name && is_keyword(text) {
            Kind::Keyword
        } else {
            kind
        };
        let tok = Tok {
            text,
            kind,
            names_before: self.names,
        };
        self.i = i;
        self.names += u32::from(kind == Kind::Name);
        Some(tok)
    }
}

/// The byte offset of `part`, a slice of `source`, within it.
fn offset(source: &str, part: &str) -> usize {
    part.as_ptr() as usize - source.as_ptr() as usize
}

/// The Verilog keywords of the emitted dialect: never identifiers.
pub(crate) fn is_keyword(word: &str) -> bool {
    let candidates: &[&str] = match word.as_bytes().first() {
        Some(b'a') => &["assign", "always"],
        Some(b'b') => &["begin"],
        Some(b'e') => &["end", "endmodule", "else"],
        Some(b'f') => &["forever"],
        Some(b'i') => &["input", "inout", "if", "initial", "integer"],
        Some(b'l') => &["localparam"],
        Some(b'm') => &["module"],
        Some(b'n') => &["negedge"],
        Some(b'o') => &["output"],
        Some(b'p') => &["parameter", "posedge"],
        Some(b'r') => &["reg"],
        Some(b'w') => &["wire"],
        _ => return false,
    };
    candidates.contains(&word)
}

/// Most literals and identifiers one expression may hold: bounds the
/// tree depth, so evaluating or dropping a tree cannot exhaust the
/// stack.
const MAX_EXPR_TERMS: usize = 256;

/// The indent [`Module::render`] puts before each block body line.
const BODY_INDENT: &str = "        ";

fn invalid(message: impl Into<String>) -> TsnError {
    TsnError::InvalidArtifact(message.into())
}

/// A decimal literal, `_` separators allowed; `None` when the token
/// holds anything else or overflows `i64`.
fn integer(text: &str) -> Option<i64> {
    text.bytes()
        .filter(|&b| b != b'_')
        .try_fold(0i64, |acc, b| {
            let digit = char::from(b).to_digit(10)?;
            acc.checked_mul(10)?.checked_add(i64::from(digit))
        })
}

/// Why a parse failed. It becomes a message only when
/// [`parse_modules`] reports it: [`Parser::item`] backtracks from its
/// failures to keep a statement as raw text and builds nothing to throw
/// away.
#[derive(Debug)]
enum Fail {
    /// `expected {0:?} in {1}`, at the token index.
    Symbol(&'static str, &'static str, usize),
    /// `expected {0}`, at the token index.
    Kind(&'static str, usize),
    /// An unexpected token in the `{0}` list, at the token index.
    List(&'static str, usize),
    /// The token at the index is not a plain integer.
    NotInteger(usize),
    /// An expression of more than [`MAX_EXPR_TERMS`] terms.
    TooLong,
    /// A fixed message.
    Other(&'static str),
    /// This module has no `endmodule`.
    Unterminated(Text),
}

type Parsed<T> = Result<T, Fail>;

struct Parser<'a> {
    /// The shared copy of the input every parsed [`Text`] spans.
    src: Arc<Source>,
    text: &'a str,
    toks: Vec<Tok<'a>>,
    pos: usize,
    /// Terms read by the expression being parsed.
    terms: usize,
}

impl<'a> Parser<'a> {
    /// Lexes `text` once: the tokens the parser walks, and the
    /// identifier table its [`Text`]s answer [`Text::idents`] from.
    fn new(text: &'a str) -> TsnResult<Self> {
        if u32::try_from(text.len()).is_err() {
            return Err(invalid("Verilog source larger than 4 GiB"));
        }
        let mut toks = Vec::with_capacity(text.len() / 4);
        let mut names = Vec::with_capacity(text.len() / 8);
        for tok in lex(text) {
            if tok.is_name() {
                let start = offset(text, tok.text);
                names.push((start as u32, (start + tok.text.len()) as u32));
            }
            toks.push(tok);
        }
        Ok(Parser {
            src: Source::new(text, names),
            text,
            toks,
            pos: 0,
            terms: 0,
        })
    }

    /// The message for `fail`.
    fn report(&self, fail: Fail) -> TsnError {
        let found = |at: usize| self.get(at).map(|t| t.text);
        invalid(match fail {
            Fail::Symbol(text, context, at) => {
                format!("expected {text:?} in {context}, found {:?}", found(at))
            }
            Fail::Kind(what, at) => format!("expected {what}, found {:?}", found(at)),
            Fail::List(list, at) => format!("unexpected token in {list} list: {:?}", found(at)),
            Fail::NotInteger(at) => format!(
                "{:?} is not a plain integer expression",
                found(at).unwrap_or_default()
            ),
            Fail::TooLong => format!("expression longer than {MAX_EXPR_TERMS} terms"),
            Fail::Other(message) => message.to_owned(),
            Fail::Unterminated(module) => format!("module {module} missing endmodule"),
        })
    }

    /// The byte offset of `tok` in the source.
    fn start(&self, tok: Tok) -> usize {
        offset(self.text, tok.text)
    }

    /// The byte offset just past `tok` in the source.
    fn end(&self, tok: Tok) -> usize {
        self.start(tok) + tok.text.len()
    }

    /// One token as IR text.
    fn token(&self, tok: Tok) -> Text {
        let span = (self.start(tok), self.end(tok));
        Text::span(&self.src, span, tok.names_through(&tok))
    }

    /// Token `i`.
    fn get(&self, i: usize) -> Option<Tok<'a>> {
        self.toks.get(i).copied()
    }

    /// Token `i`, which must exist.
    fn at(&self, i: usize) -> Tok<'a> {
        self.get(i).expect("token index within the lexed source")
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let tok = self.peek();
        self.pos += 1;
        tok
    }

    fn eat(&mut self, text: &str) -> bool {
        let hit = self.peek().is_some_and(|t| t.text == text);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, text: &'static str, context: &'static str) -> Parsed<()> {
        if self.eat(text) {
            Ok(())
        } else {
            Err(Fail::Symbol(text, context, self.pos))
        }
    }

    fn ident(&mut self, what: &'static str) -> Parsed<Text> {
        match self.next() {
            Some(tok) if tok.is_ident() => Ok(self.token(tok)),
            _ => Err(Fail::Kind(what, self.pos - 1)),
        }
    }

    /// The source text of tokens `from..to`.
    fn slice(&self, from: usize, to: usize) -> Text {
        let to = to.min(self.toks.len());
        if to <= from {
            return Text::span(&self.src, (0, 0), (0, 0));
        }
        let (first, last) = (self.at(from), self.at(to - 1));
        Text::span(
            &self.src,
            (self.start(first), self.end(last)),
            first.names_through(&last),
        )
    }

    /// Skips tokens until one of `stops` appears at bracket depth 0 and
    /// returns their source text. Running out of tokens ends the scan:
    /// truncated input surfaces as a structured parse error at the
    /// caller (which will miss its stop symbol), never as a panic.
    fn text_until(&mut self, stops: &[&str]) -> Text {
        let (from, mut depth) = (self.pos, 0i32);
        while let Some(tok) = self.peek() {
            if depth == 0 && stops.contains(&tok.text) {
                break;
            }
            match tok.text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            self.pos += 1;
        }
        self.slice(from, self.pos)
    }

    /// One whole expression.
    fn value(&mut self) -> Parsed<Expr> {
        self.terms = 0;
        self.sum()
    }

    fn sum(&mut self) -> Parsed<Expr> {
        let mut acc = self.product()?;
        while let Some(op) = self.op(&[Op::Add, Op::Sub]) {
            acc = Expr::bin(op, acc, self.product()?);
        }
        Ok(acc)
    }

    fn product(&mut self) -> Parsed<Expr> {
        let mut acc = self.atom()?;
        while let Some(op) = self.op(&[Op::Mul, Op::Div, Op::Rem]) {
            acc = Expr::bin(op, acc, self.atom()?);
        }
        Ok(acc)
    }

    fn op(&mut self, ops: &[Op]) -> Option<Op> {
        let text = self.peek()?.text;
        let op = *ops
            .iter()
            .find(|op| text.len() == 1 && text.starts_with(op.symbol()))?;
        self.pos += 1;
        Some(op)
    }

    fn atom(&mut self) -> Parsed<Expr> {
        self.terms += 1;
        if self.terms > MAX_EXPR_TERMS {
            return Err(Fail::TooLong);
        }
        let at = self.pos;
        let tok = self.next().ok_or(Fail::Other("expression cut short"))?;
        match tok.text {
            "-" => Ok(Expr::Neg(Box::new(self.atom()?))),
            "(" => {
                let inner = self.sum()?;
                self.expect(")", "expression")?;
                Ok(inner)
            }
            _ if tok.is_ident() => Ok(Expr::Ident(self.token(tok))),
            text => integer(text).map(Expr::Num).ok_or(Fail::NotInteger(at)),
        }
    }

    /// An optional `[msb:lsb]` range.
    fn range(&mut self) -> Parsed<Option<Range>> {
        if !self.eat("[") {
            return Ok(None);
        }
        let msb = self.value()?;
        self.expect(":", "range")?;
        let lsb = self.value()?;
        self.expect("]", "range")?;
        Ok(Some(Range { msb, lsb }))
    }

    /// A `.name(value), …)` list, its opening `(` already consumed.
    fn named_list<T>(
        &mut self,
        what: &'static str,
        mut value: impl FnMut(&mut Self) -> Parsed<T>,
    ) -> Parsed<Vec<(Text, T)>> {
        let mut out = Vec::new();
        if self.eat(")") {
            return Ok(out);
        }
        loop {
            self.expect(".", what)?;
            let name = self.ident(what)?;
            self.expect("(", what)?;
            out.push((name, value(self)?));
            self.expect(")", what)?;
            if self.eat(")") {
                return Ok(out);
            }
            self.expect(",", what)?;
        }
    }

    /// A `begin … end` block whose `begin` ends its line and whose `end`
    /// starts its line: the lines in between, body indent stripped.
    fn block(&mut self) -> Parsed<Vec<Text>> {
        self.expect("begin", "block")?;
        let begin_at = self.pos - 1;
        let begin = self.at(begin_at);
        let mut depth = 1;
        let end = loop {
            let tok = self.next().ok_or(Fail::Other("unterminated block"))?;
            match tok.text {
                "begin" => depth += 1,
                "end" if depth == 1 => break tok,
                "end" => depth -= 1,
                "endmodule" => return Err(Fail::Other("block runs into endmodule")),
                _ => {}
            }
        };
        let after_begin = &self.text[self.end(begin)..];
        let first = after_begin
            .find('\n')
            .filter(|&n| after_begin[..n].trim().is_empty());
        let before_end = &self.text[..self.start(end)];
        let last = before_end
            .rfind('\n')
            .filter(|&n| before_end[n..].trim().is_empty());
        match (first, last) {
            (Some(first), Some(last)) if self.end(begin) + first <= last => {
                let mut at = self.end(begin) + first + 1;
                let lines = &self.text[at..=last];
                let mut body = Vec::with_capacity(lines.bytes().filter(|&b| b == b'\n').count());
                // The block's tokens, walked line by line: no token spans
                // a line, and the `end` token lies past the last line.
                let mut tok = begin_at + 1;
                for line in lines.split_terminator('\n') {
                    let text = line.strip_prefix(BODY_INDENT).unwrap_or(line.trim_start());
                    let start = at + line.len() - text.len();
                    let stop = start + text.len();
                    while self.start(self.at(tok)) < start {
                        tok += 1;
                    }
                    let from = self.at(tok).names_before;
                    while self.end(self.at(tok)) <= stop {
                        tok += 1;
                    }
                    let names = (from, self.at(tok).names_before);
                    body.push(Text::span(&self.src, (start, stop), names));
                    at += line.len() + 1;
                }
                Ok(body)
            }
            _ => Err(Fail::Other("block is not laid out one statement per line")),
        }
    }

    /// `[#(.P(expr), …)] IDENT ( .p(text), … );` after the module name.
    fn instance(&mut self, module: Text) -> Parsed<Instance> {
        let mut params = Vec::new();
        if self.eat("#") {
            self.expect("(", "parameter override")?;
            params = self.named_list("parameter override", Self::value)?;
        }
        let name = self.ident("instance name")?;
        self.expect("(", "instance")?;
        let connections = self.named_list("connection", |p| Ok(p.text_until(&[")"])))?;
        self.expect(";", "instance")?;
        Ok(Instance {
            module,
            name,
            params,
            connections,
        })
    }

    /// One structured body item, or `Err` when the statement has none of
    /// the IR's shapes.
    fn item(&mut self) -> Parsed<Item> {
        let tok = self.next().ok_or(Fail::Other("body cut short"))?;
        Ok(match tok.text {
            "wire" => {
                let range = self.range()?;
                let name = self.ident("wire name")?;
                self.expect(";", "wire declaration")?;
                Item::Wire { range, name }
            }
            "reg" => {
                let range = self.range()?;
                let name = self.ident("reg name")?;
                let depth = self.range()?;
                self.expect(";", "reg declaration")?;
                match depth {
                    Some(depth) => Item::Memory { range, depth, name },
                    None => Item::Reg { range, name },
                }
            }
            "localparam" => {
                let name = self.ident("localparam name")?;
                self.expect("=", "localparam")?;
                let value = self.value()?;
                self.expect(";", "localparam")?;
                Item::Localparam { name, value }
            }
            "assign" => {
                let lhs = self.text_until(&["="]);
                self.expect("=", "assign")?;
                let rhs = self.text_until(&[";"]);
                self.expect(";", "assign")?;
                Item::Assign { lhs, rhs }
            }
            "always" => {
                self.expect("@", "always")?;
                self.expect("(", "sensitivity list")?;
                let sensitivity = self.text_until(&[")"]);
                self.expect(")", "sensitivity list")?;
                let body = self.block()?;
                Item::Always { sensitivity, body }
            }
            "initial" => Item::Initial {
                body: self.block()?,
            },
            _ if tok.is_name() => Item::Instance(self.instance(self.token(tok))?),
            _ => return Err(Fail::Other("unstructured statement")),
        })
    }

    /// The statement at the cursor as source text: up to its `;` or the
    /// `end` closing its block, at bracket depth 0, or up to
    /// `endmodule`.
    fn raw(&mut self, module: &Text) -> Parsed<Item> {
        let from = self.pos;
        let (mut brackets, mut blocks) = (0i32, 0i32);
        loop {
            let tok = self
                .peek()
                .ok_or_else(|| Fail::Unterminated(module.clone()))?;
            if tok.text == "endmodule" && self.pos > from {
                break;
            }
            self.pos += 1;
            match tok.text {
                "(" | "[" | "{" => brackets += 1,
                ")" | "]" | "}" => brackets -= 1,
                "begin" => blocks += 1,
                "end" => blocks -= 1,
                _ => {}
            }
            let closes = tok.text == ";" || (tok.text == "end" && blocks <= 0);
            if closes && blocks <= 0 && brackets <= 0 {
                break;
            }
        }
        Ok(Item::Raw(self.slice(from, self.pos)))
    }

    /// The `//` comments between the previous token and the next one.
    fn comments(&self, items: &mut Vec<Item>) {
        let from = self.pos.checked_sub(1).map_or(0, |p| self.end(self.at(p)));
        let to = self.peek().map_or(self.text.len(), |t| self.start(t));
        let gap = self.text.get(from..to).unwrap_or("");
        let mut at = 0;
        while let Some(slash) = gap[at..].find('/') {
            at += slash;
            let rest = &gap[at..];
            if let Some(line) = rest.strip_prefix("//") {
                let len = line.find('\n').unwrap_or(line.len());
                let start = from + at + 2 + usize::from(line[..len].starts_with(' '));
                // The lexer skips comments: no names lie inside.
                let span = (start, from + at + 2 + len);
                items.push(Item::Comment(Text::span(&self.src, span, (0, 0))));
                at += 2 + len;
            } else if let Some(block) = rest.strip_prefix("/*") {
                at = block.find("*/").map_or(gap.len(), |n| at + 2 + n + 2);
            } else {
                at += 1;
            }
        }
    }

    fn module(&mut self) -> Parsed<Module> {
        let mut module = Module::new(self.ident("module name")?);

        // #( parameter N = V, ... )
        if self.eat("#") {
            self.expect("(", "parameter list")?;
            loop {
                match self.next().map(|t| t.text) {
                    Some("parameter") => {
                        let name = self.ident("parameter name")?;
                        self.expect("=", "parameter")?;
                        let value = self.value()?;
                        module.params.push(Param { name, value });
                    }
                    Some(",") => {}
                    Some(")") => break,
                    _ => return Err(Fail::List("parameter", self.pos - 1)),
                }
            }
        }

        // ( port declarations )
        if !self.eat("(") {
            return Err(Fail::Other("expected port list after module header"));
        }
        loop {
            match self.next().map(|t| t.text) {
                Some(")") => break,
                Some(",") => {}
                Some(kw @ ("input" | "output")) => {
                    let dir = match (kw, self.eat("reg")) {
                        ("output", true) => Dir::OutputReg,
                        ("output", false) => Dir::Output,
                        _ => Dir::Input,
                    };
                    let range = self.range()?;
                    let name = self.ident("port name")?;
                    module.ports.push(Port { dir, range, name });
                }
                _ => return Err(Fail::List("port", self.pos - 1)),
            }
        }
        self.expect(";", "module header")?;

        // Body: structured items, anything else as raw text, endmodule.
        loop {
            self.comments(&mut module.items);
            let from = self.pos;
            match self.peek().map(|t| t.text) {
                None => return Err(Fail::Unterminated(module.name)),
                Some("endmodule") => {
                    self.pos += 1;
                    return Ok(module);
                }
                Some(_) => {}
            }
            let item = match self.item() {
                Ok(item) => item,
                Err(_) => {
                    self.pos = from;
                    self.raw(&module.name)?
                }
            };
            module.items.push(item);
        }
    }
}

/// Parses every module in a Verilog source string.
///
/// The source is lexed once; every name and text item of the returned
/// modules is a span of one shared copy of it (see [`Text`]).
///
/// # Errors
///
/// Returns [`TsnError::InvalidArtifact`] on structurally broken input
/// (missing `endmodule`, malformed parameter/port lists, a width or
/// parameter expression outside the [`Expr`] grammar).
///
/// # Example
///
/// ```
/// use tsn_hdl::expr::Expr;
/// use tsn_hdl::parse::parse_modules;
///
/// let src = "module m #(\n parameter W = 8\n) (\n input clk,\n output [W-1:0] q\n);\nendmodule\n";
/// let modules = parse_modules(src)?;
/// assert_eq!(modules.len(), 1);
/// assert_eq!(modules[0].name, "m");
/// assert_eq!(modules[0].params[0].value, Expr::Num(8));
/// assert_eq!(modules[0].ports.len(), 2);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
pub fn parse_modules(source: &str) -> TsnResult<Vec<Module>> {
    let mut parser = Parser::new(source)?;
    let mut modules = Vec::new();
    while let Some(tok) = parser.next() {
        if tok.text == "module" {
            let module = parser.module().map_err(|fail| parser.report(fail))?;
            modules.push(module);
        }
    }
    Ok(modules)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ast::tests::references;
    use crate::cost::cost_of;
    use crate::lint::lint_modules;
    use crate::templates::{generate, modules};
    use tsn_resource::ResourceConfig;

    /// Parses one whole expression.
    pub(crate) fn parse_expr(text: &str) -> TsnResult<Expr> {
        let mut parser = Parser::new(text)?;
        let value = parser.value().map_err(|fail| parser.report(fail))?;
        match parser.peek() {
            None => Ok(value),
            Some(tok) => Err(invalid(format!("trailing {:?}", tok.text))),
        }
    }

    fn items(build: impl FnOnce(&mut Module)) -> Vec<Item> {
        let mut m = Module::new("m");
        build(&mut m);
        m.items
    }

    fn only(src: &str) -> Module {
        let mut modules = parse_modules(src).expect("parses");
        assert_eq!(modules.len(), 1);
        modules.remove(0)
    }

    fn bits(msb: &str) -> Option<Range> {
        Some(Range {
            msb: parse_expr(msb).expect("parses"),
            lsb: Expr::Num(0),
        })
    }

    #[test]
    fn parses_a_hand_written_module() {
        let src = "module demo #(\n    parameter WIDTH = 32,\n    parameter DEPTH = 16\n) (\n    input clk,\n    input [WIDTH-1:0] din,\n    output reg [WIDTH-1:0] dout\n);\n    reg [WIDTH-1:0] mem [0:DEPTH-1];\nendmodule\n";
        let m = only(src);
        assert_eq!(m.name, "demo");
        assert_eq!(m.params.len(), 2);
        assert_eq!(m.params[0].name, "WIDTH");
        assert_eq!(m.params[0].value, Expr::Num(32));
        assert_eq!(m.ports.len(), 3);
        let mut want = Module::new("demo");
        want.input(1, "clk").output_reg("WIDTH", "dout");
        assert_eq!(m.ports[0], want.ports[0]);
        assert_eq!(m.ports[2], want.ports[1]);
        assert_eq!(
            m.items,
            items(|m| {
                m.memory("WIDTH", "DEPTH", "mem");
            })
        );
        assert_eq!(m.render(), src);
    }

    #[test]
    fn parses_instances_with_overrides_and_connections() {
        let src = "module top (\n    input clk\n);\n    fifo #(.DEPTH(12)) u_f (\n        .clk(clk),\n        .din(8'h00)\n    );\nendmodule\n";
        let m = only(src);
        assert_eq!(
            m.instances().collect::<Vec<_>>(),
            vec![&Instance {
                module: "fifo".into(),
                name: "u_f".into(),
                params: vec![("DEPTH".into(), Expr::Num(12))],
                connections: vec![("clk".into(), "clk".into()), ("din".into(), "8'h00".into())],
            }]
        );
        assert!(references(&m).contains("fifo"));
        assert!(references(&m).contains("clk"));
        assert_eq!(m.render(), src);
    }

    #[test]
    fn parses_wires_regs_assigns_and_localparams() {
        let src = "module m (\n    input clk\n);\n    localparam LP = 7;\n    wire [LP-1:0] w;\n    reg r;\n    reg [3:0] counter;\n    assign w = counter + LP;\nendmodule\n";
        let m = only(src);
        let counter = Item::Reg {
            range: bits("3"),
            name: "counter".into(),
        };
        let want = items(|m| {
            m.item(Item::Localparam {
                name: "LP".into(),
                value: Expr::Num(7),
            })
            .wire("LP", "w")
            .reg(1, "r")
            .item(counter)
            .assign("w", "counter + LP");
        });
        assert_eq!(m.items, want);
        assert!(references(&m).contains("counter"));
        assert_eq!(m.render(), src);
    }

    #[test]
    fn comments_blocks_and_raw_statements_keep_their_text() {
        let src = "module m (\n    input clk\n);\n    // a comment\n    always @(posedge clk) begin\n        if (x) begin\n            y <= 1; // tail\n        end\n    end\n    initial begin\n    end\n    always #4 clk = ~clk;\n    wire a, b;\nendmodule\n";
        let m = only(src);
        let want = items(|m| {
            m.comment("a comment")
                .clocked(&["if (x) begin", "    y <= 1; // tail", "end"])
                .item(Item::Initial { body: vec![] })
                .item(Item::Raw("always #4 clk = ~clk;".into()))
                .item(Item::Raw("wire a, b;".into()));
        });
        assert_eq!(m.items, want);
        assert_eq!(m.render(), src);
        // A block not laid out one statement per line stays raw text.
        let one_line =
            "module m ( input clk );\n always @(posedge clk) begin x <= 1; end\nendmodule\n";
        assert_eq!(
            only(one_line).items,
            vec![Item::Raw("always @(posedge clk) begin x <= 1; end".into())]
        );
    }

    #[test]
    fn block_comments_are_skipped_even_with_keywords_inside() {
        let src =
            "module m ( input clk );\n/* module fake ( input x );\n   begin [ ( */\nendmodule\n";
        let modules = parse_modules(src).expect("parses");
        assert_eq!(modules.len(), 1);
        assert_eq!(modules[0].name, "m");
        assert!(modules[0].items.is_empty());
        // Inline form too.
        let src2 = "module /* not_the_name */ n ( input clk );\nendmodule\n";
        assert_eq!(parse_modules(src2).expect("parses")[0].name, "n");
    }

    #[test]
    fn rejects_missing_endmodule() {
        assert!(parse_modules("module broken ( input clk );\n").is_err());
    }

    #[test]
    fn rejects_expressions_outside_the_grammar() {
        for src in [
            "module m #( parameter W = 8'h00 ) ( input clk ); endmodule",
            "module m ( input [a[3]:0] clk ); endmodule",
            "module m #( parameter W = 99999999999999999999 ) (); endmodule",
        ] {
            assert!(parse_modules(src).is_err(), "{src}");
        }
        let deep = format!(
            "module m #( parameter W = {}1 ) (); endmodule",
            "-".repeat(300)
        );
        assert!(parse_modules(&deep).is_err());
        let long = format!(
            "module m #( parameter W = 1{} ) (); endmodule",
            "+1".repeat(300)
        );
        assert!(parse_modules(&long).is_err());
    }

    #[test]
    fn every_template_module_round_trips() {
        for ports in [1, 4] {
            let mut cfg = ResourceConfig::new();
            cfg.set_gate_tbl(2, 8, ports)
                .expect("valid")
                .set_buffers(96, ports)
                .expect("valid");
            for m in modules(&cfg) {
                let text = m.render();
                assert_eq!(parse_modules(&text).expect("parses"), vec![m], "{text}");
            }
        }
    }

    #[test]
    fn every_generated_file_parses_and_matches_structure() {
        let bundle = generate(&ResourceConfig::new()).expect("generates");
        let mut all = Vec::new();
        for (name, src) in bundle.files() {
            let modules =
                parse_modules(src).unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
            assert_eq!(modules.len(), 1, "{name} holds exactly one module");
            all.push(modules.into_iter().next().expect("one module"));
        }
        let names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "dpram",
                "meta_fifo",
                "time_sync",
                "packet_switch",
                "ingress_filter",
                "gate_ctrl",
                "egress_sched",
                "tsn_switch_top",
                "tsn_switch_tb"
            ]
        );
        // The top instantiates the shared blocks plus one gate_ctrl and
        // one egress_sched per enabled port (1 for the default ring
        // config).
        let top = &all[7];
        let count = |module: &str| top.instances().filter(|i| i.module == module).count();
        assert_eq!(count("time_sync"), 1);
        assert_eq!(count("packet_switch"), 1);
        assert_eq!(count("ingress_filter"), 1);
        assert_eq!(count("gate_ctrl"), 1);
        assert_eq!(count("egress_sched"), 1);
        // gate_ctrl holds the 8 per-queue FIFOs, each with full override
        // and connection lists.
        let gates = &all[5];
        let fifos: Vec<_> = gates
            .instances()
            .filter(|i| i.module == "meta_fifo")
            .collect();
        assert_eq!(fifos.len(), 8);
        for fifo in &fifos {
            assert_eq!(fifo.params.len(), 3);
            assert_eq!(fifo.connections.len(), 8);
        }
        // Memories: GCLs in gate_ctrl, meter table in the filter.
        let has_memory = |m: &Module, want: &str| {
            m.items
                .iter()
                .any(|item| matches!(item, Item::Memory { name, .. } if name == want))
        };
        assert!(has_memory(gates, "in_gcl"));
        assert!(has_memory(gates, "out_gcl"));
        assert!(has_memory(&all[4], "meter_tbl"));
    }

    #[test]
    fn parsed_parameters_track_the_config() {
        let mut cfg = ResourceConfig::new();
        cfg.set_queues(24, 8, 2).expect("valid");
        let bundle = generate(&cfg).expect("generates");
        let gates = parse_modules(bundle.file("gate_ctrl.v").expect("file")).expect("parses");
        let depth = gates[0].params.iter().find(|p| p.name == "QUEUE_DEPTH");
        assert_eq!(depth.map(|p| &p.value), Some(&Expr::Num(24)));
        let top = parse_modules(bundle.file("tsn_switch_top.v").expect("file")).expect("parses");
        assert_eq!(
            top[0]
                .instances()
                .filter(|i| i.module == "gate_ctrl")
                .count(),
            2,
            "two enabled ports, two gate controllers"
        );
    }

    #[test]
    fn truncated_verilog_errors_instead_of_panicking() {
        // Every prefix of every generated file must parse to Ok or a
        // structured error — cutting the token stream mid-construct used
        // to hit `self.next().expect("peeked")`.
        let bundle = generate(&ResourceConfig::new()).expect("generates");
        for (name, src) in bundle.files() {
            for cut in (0..src.len()).step_by(61).chain([src.len() - 1]) {
                let Some(prefix) = src.get(..cut) else {
                    continue; // not a char boundary
                };
                let _ = parse_modules(prefix); // Ok or Err, never a panic
                let _ = std::hint::black_box(name);
            }
        }
    }

    #[test]
    fn garbage_input_errors_instead_of_panicking() {
        let cases = [
            "module",
            "module m",
            "module m #(",
            "module m #( parameter W = ",
            "module m #( parameter W = 8",
            "module m #( parameter W = [8",
            "module m (",
            "module m ( input ",
            "module m ( input [7:0",
            "module m ( input [7",
            "module m ( input clk ); reg [7:0] mem [0:3",
            "module m ( input clk ); wire [3",
            "module m ( input clk ); localparam X",
            "module m ( input clk ); assign a",
            "module m ( input clk ); sub #( .W(8",
            "module m ( input clk ); sub u0 ( .a(b",
            "module m ( input clk ); always @(posedge clk) begin",
            "module m ( input clk ); initial begin\n end end end",
            ")))]]]}}}",
            "module ; ( ) # = , .",
            "/ // /// #(((",
            "module m ( input clk ); /* unterminated",
            "module m ( input clk ); // é\u{2028}\n ü ; endmodule",
            "module m #( parameter A = (-9223372036854775807-1)/-1 ) ( input clk ); endmodule",
            "module m ( input clk ); reg [9223372036854775807:-9223372036854775807] r; endmodule",
        ];
        for src in cases {
            // Parse, lint and cost must all return, never panic.
            for module in parse_modules(src).iter().flatten() {
                let modules = std::slice::from_ref(module);
                let _ = (lint_modules(modules), cost_of(modules, &module.name));
            }
        }
    }
}
