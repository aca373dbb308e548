//! Lexical validation of emitted Verilog.
//!
//! Not a parser — a safety net that catches the classes of generator bug
//! that actually happen: unbalanced `module`/`endmodule`, unbalanced
//! `begin`/`end`, unbalanced parentheses/brackets, illegal identifiers,
//! and duplicate module names in one source file. The same pass hands
//! back the declared names, so a caller can check uniqueness across
//! files without scanning them again.

use crate::parse::{lex, offset};
use std::collections::HashSet;
use std::ops::Range;
use tsn_types::{TsnError, TsnResult};

/// Checks a Verilog source string for structural sanity.
///
/// One pass over the parser's tokens ([`crate::parse`]), which skip
/// comments: the brackets feed a bracket stack, and every word feeds
/// the `module`/`endmodule` and `begin`/`end` balances and the
/// module-name rules. A word is a run of letters, digits, `_` and `$`,
/// so `$end` is not `end` and `module $x` names `$x`. When several
/// checks fail, the error reported is the one the checks give in this
/// order: unterminated block comment, module balance, `begin`/`end`
/// balance, brackets, module names.
///
/// # Errors
///
/// Returns [`TsnError::InvalidArtifact`] describing the first problem
/// found.
///
/// # Example
///
/// ```
/// use tsn_hdl::validate::check_source;
///
/// check_source("module m (\n    input clk\n);\nendmodule\n")?;
/// assert!(check_source("module m ();\n").is_err()); // missing endmodule
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
pub fn check_source(source: &str) -> TsnResult<()> {
    module_names(source).map(drop)
}

/// As [`check_source`], returning the names of the modules `source`
/// declares, in order — what a caller needs to check name uniqueness
/// across several files without scanning them again.
///
/// # Errors
///
/// As [`check_source`].
pub(crate) fn module_names(source: &str) -> TsnResult<Vec<&str>> {
    let mut modules = Balance::new("module", "endmodule");
    let mut blocks = Balance::new("begin", "end");
    let mut brackets = Vec::new();
    let mut bracket_error = None;
    let mut names = Names::default();
    let mut feed = |word: Range<usize>| {
        if !word.is_empty() {
            let word = &source[word];
            match word {
                "module" => modules.step(1),
                "endmodule" => modules.step(-1),
                "begin" => blocks.step(1),
                "end" => blocks.step(-1),
                _ => {}
            }
            names.feed(word);
        }
    };
    // The word being read, as a byte range of `source`. The parser's
    // tokens split some words (`$` before a name, `'` inside a sized
    // number), so a word grows over every word piece that touches it.
    let mut word = 0..0;
    let mut piece = |piece: &str| {
        let start = offset(source, piece);
        if start != word.end {
            feed(word.clone());
            word = start..start;
        }
        word.end += piece.len();
    };
    let mut tokens = lex(source);
    for tok in &mut tokens {
        let b = tok.text.as_bytes()[0];
        match b {
            b'(' | b'[' | b'{' => brackets.push(b),
            b')' | b']' | b'}' => {
                let expected = match b {
                    b')' => b'(',
                    b']' => b'[',
                    _ => b'{',
                };
                if brackets.pop() != Some(expected) && bracket_error.is_none() {
                    bracket_error = Some(format!("unbalanced bracket {:?}", char::from(b)));
                }
            }
            // Only a number can hold a `'`.
            _ if b.is_ascii_digit() => tok.text.split('\'').for_each(&mut piece),
            _ if is_word_byte(b) => piece(tok.text),
            _ => {}
        }
    }
    feed(word);
    if tokens.unterminated_comment {
        // It swallowed the rest of the file, `endmodule`s included.
        return Err(TsnError::InvalidArtifact(
            "unterminated block comment".to_owned(),
        ));
    }
    modules.finish()?;
    blocks.finish()?;
    if let Some(message) = bracket_error.or_else(|| {
        brackets
            .last()
            .map(|&open| format!("unclosed bracket {:?}", char::from(open)))
    }) {
        return Err(TsnError::InvalidArtifact(message));
    }
    names.finish()
}

/// `true` if `name` is a legal (non-escaped) Verilog identifier.
#[must_use]
pub fn is_identifier(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
}

/// Bytes of a word; everything else (punctuation, white space, any
/// non-ASCII byte) separates words.
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$'
}

/// The nesting depth of one `open`/`close` keyword pair, with the first
/// error it ran into.
struct Balance {
    open: &'static str,
    close: &'static str,
    depth: i64,
    underflow: bool,
}

impl Balance {
    fn new(open: &'static str, close: &'static str) -> Self {
        Balance {
            open,
            close,
            depth: 0,
            underflow: false,
        }
    }

    /// One `open` (`1`) or `close` (`-1`) keyword.
    fn step(&mut self, by: i64) {
        if !self.underflow {
            self.depth += by;
            self.underflow = self.depth < 0;
        }
    }

    fn finish(&self) -> TsnResult<()> {
        let (open, close, depth) = (self.open, self.close, self.depth);
        if self.underflow {
            return Err(TsnError::InvalidArtifact(format!(
                "{close} without matching {open}"
            )));
        }
        if depth != 0 {
            return Err(TsnError::InvalidArtifact(format!(
                "{depth} unclosed {open} block(s)"
            )));
        }
        Ok(())
    }
}

/// The module-name rules: the token after each `module` keyword names
/// the module, must be a legal identifier and must be unique.
#[derive(Default)]
struct Names<'a> {
    names: Vec<&'a str>,
    seen: HashSet<&'a str>,
    expect_name: bool,
    error: Option<String>,
}

impl<'a> Names<'a> {
    fn feed(&mut self, token: &'a str) {
        if self.error.is_some() {
            return;
        }
        if !self.expect_name {
            self.expect_name = token == "module";
            return;
        }
        self.expect_name = false;
        if !is_identifier(token) {
            self.error = Some(format!("illegal module name {token:?}"));
        } else if !self.seen.insert(token) {
            self.error = Some(format!("duplicate module {token:?}"));
        } else {
            self.names.push(token);
        }
    }

    fn finish(self) -> TsnResult<Vec<&'a str>> {
        let error = self.error.or_else(|| {
            self.expect_name
                .then(|| "module keyword without a name".to_owned())
        });
        match error {
            Some(message) => Err(TsnError::InvalidArtifact(message)),
            None => Ok(self.names),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four-pass checker the one-pass scan replaced, kept as the
    /// differential reference: strip comments into a copy, then
    /// tokenize that copy once per check.
    mod reference {
        use std::collections::HashSet;
        use tsn_types::{TsnError, TsnResult};

        pub fn check_source(source: &str) -> TsnResult<()> {
            let stripped = strip_comments(source)?;
            check_balance(&stripped, "module", "endmodule")?;
            check_balance(&stripped, "begin", "end")?;
            check_brackets(&stripped)?;
            check_module_names(&stripped)?;
            Ok(())
        }

        fn strip_comments(source: &str) -> TsnResult<String> {
            let mut out = String::with_capacity(source.len());
            let mut chars = source.chars().peekable();
            while let Some(c) = chars.next() {
                if c != '/' {
                    out.push(c);
                    continue;
                }
                match chars.peek() {
                    Some(&'/') => {
                        for c in chars.by_ref() {
                            if c == '\n' {
                                out.push('\n');
                                break;
                            }
                        }
                    }
                    Some(&'*') => {
                        chars.next();
                        let mut prev = ' ';
                        let mut terminated = false;
                        for c in chars.by_ref() {
                            if prev == '*' && c == '/' {
                                terminated = true;
                                break;
                            }
                            if c == '\n' {
                                out.push('\n');
                            }
                            prev = c;
                        }
                        if !terminated {
                            return Err(TsnError::InvalidArtifact(
                                "unterminated block comment".to_owned(),
                            ));
                        }
                        out.push(' ');
                    }
                    _ => out.push('/'),
                }
            }
            Ok(out)
        }

        fn tokens(source: &str) -> impl Iterator<Item = &str> {
            source.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '$'))
        }

        fn check_balance(source: &str, open: &str, close: &str) -> TsnResult<()> {
            let mut depth: i64 = 0;
            for token in tokens(source) {
                if token == open {
                    depth += 1;
                } else if token == close {
                    depth -= 1;
                    if depth < 0 {
                        return Err(TsnError::InvalidArtifact(format!(
                            "{close} without matching {open}"
                        )));
                    }
                }
            }
            if depth != 0 {
                return Err(TsnError::InvalidArtifact(format!(
                    "{depth} unclosed {open} block(s)"
                )));
            }
            Ok(())
        }

        fn check_brackets(source: &str) -> TsnResult<()> {
            let mut stack = Vec::new();
            for c in source.chars() {
                match c {
                    '(' | '[' | '{' => stack.push(c),
                    ')' | ']' | '}' => {
                        let expected = match c {
                            ')' => '(',
                            ']' => '[',
                            _ => '{',
                        };
                        if stack.pop() != Some(expected) {
                            return Err(TsnError::InvalidArtifact(format!(
                                "unbalanced bracket {c:?}"
                            )));
                        }
                    }
                    _ => {}
                }
            }
            if let Some(open) = stack.pop() {
                return Err(TsnError::InvalidArtifact(format!(
                    "unclosed bracket {open:?}"
                )));
            }
            Ok(())
        }

        fn check_module_names(source: &str) -> TsnResult<()> {
            let mut seen = HashSet::new();
            let mut toks = tokens(source).filter(|t| !t.is_empty());
            while let Some(tok) = toks.next() {
                if tok == "module" {
                    let Some(name) = toks.next() else {
                        return Err(TsnError::InvalidArtifact(
                            "module keyword without a name".to_owned(),
                        ));
                    };
                    if !super::is_identifier(name) {
                        return Err(TsnError::InvalidArtifact(format!(
                            "illegal module name {name:?}"
                        )));
                    }
                    if !seen.insert(name.to_owned()) {
                        return Err(TsnError::InvalidArtifact(format!(
                            "duplicate module {name:?}"
                        )));
                    }
                }
            }
            Ok(())
        }
    }

    /// Bundles for the paper's settings (linear, 2 ports), an
    /// automatically derived ring (1 port) and a TAS star (3 ports,
    /// 154-entry gate lists).
    fn bundles() -> Vec<crate::HdlBundle> {
        use tsn_resource::ResourceConfig;
        let paper = {
            let mut cfg = ResourceConfig::new();
            cfg.set_switch_tbl(1024, 0)
                .and_then(|c| c.set_class_tbl(1024))
                .and_then(|c| c.set_meter_tbl(1024))
                .and_then(|c| c.set_gate_tbl(2, 8, 2))
                .and_then(|c| c.set_cbs_tbl(3, 3, 2))
                .and_then(|c| c.set_queues(12, 8, 2))
                .and_then(|c| c.set_buffers(96, 2))
                .expect("valid paper config");
            cfg
        };
        let automatic_ring = {
            let mut cfg = ResourceConfig::new();
            cfg.set_switch_tbl(256, 0)
                .and_then(|c| c.set_class_tbl(256))
                .and_then(|c| c.set_meter_tbl(256))
                .and_then(|c| c.set_gate_tbl(2, 8, 1))
                .and_then(|c| c.set_cbs_tbl(0, 0, 1))
                .and_then(|c| c.set_queues(3, 8, 1))
                .and_then(|c| c.set_buffers(24, 1))
                .expect("valid ring config");
            cfg
        };
        let tas = {
            let mut cfg = ResourceConfig::new();
            cfg.set_switch_tbl(16, 0)
                .and_then(|c| c.set_class_tbl(128))
                .and_then(|c| c.set_meter_tbl(128))
                .and_then(|c| c.set_gate_tbl(154, 8, 3))
                .and_then(|c| c.set_cbs_tbl(0, 0, 3))
                .and_then(|c| c.set_queues(2, 8, 3))
                .and_then(|c| c.set_buffers(16, 3))
                .expect("valid TAS config");
            cfg
        };
        [paper, automatic_ring, tas]
            .iter()
            .map(|cfg| crate::generate(cfg).expect("emits"))
            .collect()
    }

    #[test]
    fn one_pass_matches_the_reference_on_every_prefix() {
        for bundle in bundles() {
            for (name, src) in bundle.files() {
                for end in 0..=src.len() {
                    if let Some(prefix) = src.get(..end) {
                        assert_eq!(
                            check_source(prefix),
                            reference::check_source(prefix),
                            "{name}[..{end}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_pass_matches_the_reference_on_edge_cases() {
        // Single-edit mutants of well-formed files always fail a balance
        // check first; these reach the later checks.
        const CASES: &[&str] = &[
            "",
            "module module 1x ();\nendmodule\nendmodule\n",
            "module module ();\nendmodule\nendmodule\nmodule module ();\nendmodule\nendmodule\n",
            "module m ();\nendmodule\nmodule",
            "module 1x ();\nendmodule\n",
            "module $x ();\nendmodule\n",
            "module m$ ();\nendmodule\nmodule m$ ();\nendmodule\n",
            "module/**/m ();\nendmodule\n",
            "module m (); /*/ endmodule */ endmodule",
            "module m (); // endmodule\nendmodule",
            "module m (); endmodule //",
            "module m (); endmodule /",
            "module m (); end begin endmodule",
            "module m ([)]); endmodule",
            "module m ()); begin endmodule",
            "module m (); endmodule\u{e9}module",
        ];
        for case in CASES {
            assert_eq!(
                check_source(case),
                reference::check_source(case),
                "{case:?}"
            );
        }
    }

    #[test]
    fn one_pass_matches_the_reference_on_mutants() {
        const INSERTS: &[&str] = &[
            "/*",
            "*/",
            "//",
            "module module",
            " end ",
            "end",
            "begin",
            " module ",
            "endmodule",
            "1x",
            "\n",
            "(",
            "]",
            "}",
        ];
        const BYTES: &[u8] = b"()[]{}/*$_a1 \n;";
        let mut rng = tsn_types::SplitMix64::seed_from_u64(15);
        let (mut accepted, mut rejected) = (0, 0);
        for bundle in bundles() {
            let sources: Vec<String> = bundle
                .files()
                .iter()
                .map(|(_, src)| src.clone())
                .chain([bundle.concatenated()])
                .collect();
            for src in &sources {
                for _ in 0..100 {
                    let mut mutant = src.clone().into_bytes();
                    let at = rng.gen_range(mutant.len() as u64 + 1) as usize;
                    match rng.gen_range(3) {
                        0 if at < mutant.len() => {
                            mutant[at] = BYTES[rng.gen_range(BYTES.len() as u64) as usize];
                        }
                        1 if at < mutant.len() => {
                            mutant.remove(at);
                        }
                        _ => {
                            let insert = INSERTS[rng.gen_range(INSERTS.len() as u64) as usize];
                            mutant.splice(at..at, insert.bytes());
                        }
                    }
                    let mutant = String::from_utf8(mutant).expect("ASCII edits of ASCII text");
                    let result = check_source(&mutant);
                    assert_eq!(result, reference::check_source(&mutant), "{mutant}");
                    if result.is_ok() {
                        accepted += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
        }
        assert!(
            accepted > 100 && rejected > 100,
            "{accepted} ok, {rejected} err"
        );
    }

    #[test]
    fn accepts_a_well_formed_module() {
        let src = "module m #(\n parameter W = 8\n) (\n input clk\n);\n\
                   always @(posedge clk) begin\n end\nendmodule\n";
        assert!(check_source(src).is_ok());
    }

    #[test]
    fn rejects_unbalanced_endmodule() {
        assert!(check_source("module a ();\nendmodule\nendmodule\n").is_err());
        assert!(check_source("module a ();\n").is_err());
    }

    #[test]
    fn rejects_unbalanced_begin_end() {
        let src = "module m ( input clk );\nalways @(posedge clk) begin\nendmodule\n";
        assert!(check_source(src).is_err());
    }

    #[test]
    fn rejects_unbalanced_brackets() {
        assert!(check_source("module m ( input [7:0 d );\nendmodule\n").is_err());
        assert!(check_source("module m ( input d ));\nendmodule\n").is_err());
    }

    #[test]
    fn rejects_duplicate_modules() {
        let src = "module a ();\nendmodule\nmodule a ();\nendmodule\n";
        assert!(check_source(src).is_err());
    }

    #[test]
    fn comments_are_ignored() {
        let src = "module m ( input clk ); // begin ( [ module\nendmodule\n";
        assert!(check_source(src).is_ok());
    }

    #[test]
    fn block_comments_are_ignored() {
        // Keywords and brackets inside `/* … */` must not reach the
        // balance checks, whether the comment is inline or multi-line.
        let src = "module m ( input clk ); /* begin ( [ module */\nendmodule\n";
        assert!(check_source(src).is_ok());
        let multiline = "module m ( input clk );\n\
                         /* module ghost ( input x );\n\
                            begin begin [ { (\n\
                         */\n\
                         endmodule\n";
        assert!(check_source(multiline).is_ok());
        // A block comment must also not glue its neighbours into one
        // token: `module/* */m` still declares module `m`.
        assert!(check_source("module/* x */m ( input clk );\nendmodule\n").is_ok());
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        let src = "module m ( input clk );\nendmodule\n/* trailing";
        assert!(check_source(src).is_err());
    }

    #[test]
    fn line_comment_inside_block_comment_does_not_resurrect_code() {
        let src = "module m ( input clk );\n/* // still a block comment\nbegin [\n*/\nendmodule\n";
        assert!(check_source(src).is_ok());
    }

    #[test]
    fn identifier_rules() {
        assert!(is_identifier("tsn_switch_top"));
        assert!(is_identifier("_x$1"));
        assert!(!is_identifier("1abc"));
        assert!(!is_identifier(""));
        assert!(!is_identifier("a-b"));
    }

    #[test]
    fn end_keyword_inside_identifiers_is_not_counted() {
        // `endmodule`, `legend`, `end_of_frame` must not confuse `end`.
        let src =
            "module m ( input clk );\nalways @(posedge clk) begin\nlegend <= end_of_frame;\nend\nendmodule\n";
        assert!(check_source(src).is_ok());
    }
}
