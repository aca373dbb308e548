//! Integer expressions: the widths, depths, parameter defaults and
//! overrides of the Verilog IR, parsed once into a small tree.
//!
//! The generated Verilog only ever uses `+ - * / %`, parentheses, unary
//! minus, plain decimal numbers and parameter names in these positions,
//! so that is the whole grammar. [`Expr::eval`] works against an
//! environment of resolved parameter values with checked arithmetic;
//! missing identifiers, division by zero and overflow are a soft `Err`
//! the callers turn into "could not resolve" rather than a lint finding
//! or a panic.

use core::fmt;
use core::ops::{Add, Mul, Sub};
use std::collections::BTreeMap;

/// Parameter-name → resolved-value environment.
pub type Env<'a> = BTreeMap<&'a str, i64>;

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (truncating)
    Div,
    /// `%`
    Rem,
}

impl Op {
    /// The operator's symbol.
    pub(crate) fn symbol(self) -> char {
        match self {
            Op::Add => '+',
            Op::Sub => '-',
            Op::Mul => '*',
            Op::Div => '/',
            Op::Rem => '%',
        }
    }

    /// `1` for `+ -`, `2` for `* / %`.
    fn precedence(self) -> u8 {
        match self {
            Op::Add | Op::Sub => 1,
            Op::Mul | Op::Div | Op::Rem => 2,
        }
    }
}

/// An integer expression tree.
///
/// # Example
///
/// ```
/// use tsn_hdl::expr::{Env, Expr};
///
/// let width = Expr::from("WIDTH") * 2 - 1;
/// assert_eq!(width.to_string(), "WIDTH*2-1");
/// let env = Env::from([("WIDTH", 32)]);
/// assert_eq!(width.eval(&env), Ok(63));
/// assert!(Expr::from("MISSING").eval(&env).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A plain decimal literal.
    Num(i64),
    /// A parameter name.
    Ident(String),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `lhs op rhs`.
    Bin(Op, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluates the tree against `env` with checked arithmetic.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when an identifier is missing
    /// from `env`, a divisor is zero or a step overflows `i64`.
    pub fn eval(&self, env: &Env) -> Result<i64, String> {
        match self {
            Expr::Num(n) => Ok(*n),
            Expr::Ident(name) => env
                .get(name.as_str())
                .copied()
                .ok_or_else(|| format!("unknown identifier {name:?}")),
            Expr::Neg(e) => e
                .eval(env)?
                .checked_neg()
                .ok_or_else(|| format!("-({e}) overflows")),
            Expr::Bin(op, l, r) => {
                let (a, b) = (l.eval(env)?, r.eval(env)?);
                if b == 0 && matches!(op, Op::Div | Op::Rem) {
                    return Err(format!("{self}: division by zero"));
                }
                match op {
                    Op::Add => a.checked_add(b),
                    Op::Sub => a.checked_sub(b),
                    Op::Mul => a.checked_mul(b),
                    Op::Div => a.checked_div(b),
                    Op::Rem => a.checked_rem(b),
                }
                .ok_or_else(|| format!("{self} overflows"))
            }
        }
    }

    /// Adds every identifier in the tree to `out`, left to right.
    pub fn idents<'a>(&'a self, out: &mut impl Extend<&'a str>) {
        match self {
            Expr::Num(_) => {}
            Expr::Ident(name) => out.extend([name.as_str()]),
            Expr::Neg(e) => e.idents(out),
            Expr::Bin(_, l, r) => {
                l.idents(out);
                r.idents(out);
            }
        }
    }

    fn bin(op: Op, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// `3` for atoms and negations, else the operator's precedence.
    fn precedence(&self) -> u8 {
        match self {
            Expr::Bin(op, ..) => op.precedence(),
            _ => 3,
        }
    }
}

impl From<u32> for Expr {
    fn from(n: u32) -> Self {
        Expr::Num(n.into())
    }
}

/// A parameter name.
impl From<&str> for Expr {
    fn from(name: &str) -> Self {
        Expr::Ident(name.to_owned())
    }
}

impl<T: Into<Expr>> Add<T> for Expr {
    type Output = Expr;
    fn add(self, rhs: T) -> Expr {
        Expr::bin(Op::Add, self, rhs.into())
    }
}

impl<T: Into<Expr>> Sub<T> for Expr {
    type Output = Expr;
    fn sub(self, rhs: T) -> Expr {
        Expr::bin(Op::Sub, self, rhs.into())
    }
}

impl<T: Into<Expr>> Mul<T> for Expr {
    type Output = Expr;
    fn mul(self, rhs: T) -> Expr {
        Expr::bin(Op::Mul, self, rhs.into())
    }
}

/// Prints the tree with the fewest parentheses that parse back to it.
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let operand = |f: &mut fmt::Formatter<'_>, e: &Expr, paren: bool| {
            if paren {
                write!(f, "({e})")
            } else {
                write!(f, "{e}")
            }
        };
        match self {
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Ident(name) => f.write_str(name),
            Expr::Neg(e) => {
                f.write_str("-")?;
                operand(f, e, e.precedence() < 3)
            }
            Expr::Bin(op, l, r) => {
                let p = op.precedence();
                operand(f, l, l.precedence() < p)?;
                write!(f, "{}", op.symbol())?;
                // Left-associative: an equal-precedence right operand
                // needs its parentheses back.
                operand(f, r, r.precedence() <= p)
            }
        }
    }
}

/// A declaration range `[msb:lsb]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Range {
    /// Left (most-significant / first) bound.
    pub msb: Expr,
    /// Right (least-significant / second) bound.
    pub lsb: Expr,
}

impl Range {
    /// `[width-1:0]`: a bus `width` bits wide.
    #[must_use]
    pub fn bits(width: Expr) -> Self {
        Range {
            msb: width - 1,
            lsb: Expr::Num(0),
        }
    }

    /// `[0:depth-1]`: a memory `depth` words deep.
    #[must_use]
    pub fn words(depth: Expr) -> Self {
        Range {
            msb: Expr::Num(0),
            lsb: depth - 1,
        }
    }

    /// Width of the range: `|msb - lsb| + 1`. Works for both `[W-1:0]`
    /// (width) and `[0:D-1]` (depth) orderings.
    ///
    /// # Errors
    ///
    /// Propagates [`Expr::eval`] failures from either bound, and reports
    /// a width that overflows `i64`.
    pub fn width(&self, env: &Env) -> Result<i64, String> {
        let (msb, lsb) = (self.msb.eval(env)?, self.lsb.eval(env)?);
        msb.checked_sub(lsb)
            .and_then(i64::checked_abs)
            .and_then(|d| d.checked_add(1))
            .ok_or_else(|| format!("range [{self}] overflows"))
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.msb, self.lsb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::tests::parse_expr;

    fn eval(text: &str, env: &Env) -> Result<i64, String> {
        parse_expr(text).map_err(|e| e.to_string())?.eval(env)
    }

    #[test]
    fn evaluates_arithmetic() {
        let e = Env::from([("W", 32), ("D", 12)]);
        assert_eq!(eval("W-1", &e), Ok(31));
        assert_eq!(eval("2*W+D", &e), Ok(76));
        assert_eq!(eval("(W+D)/2", &e), Ok(22));
        assert_eq!(eval("W%5", &e), Ok(2));
        assert_eq!(eval("-3+W", &e), Ok(29));
        assert_eq!(eval("1_024", &e), Ok(1024));
    }

    #[test]
    fn rejects_bad_expressions() {
        let e = Env::from([("W", 32)]);
        assert!(eval("Q-1", &e).is_err());
        assert!(eval("W/0", &e).is_err());
        assert!(eval("W%0", &e).is_err());
        assert!(eval("(W", &e).is_err());
        assert!(eval("W 3", &e).is_err());
        assert!(eval("8'h00", &e).is_err());
        assert!(eval("", &e).is_err());
    }

    #[test]
    fn overflow_is_a_soft_error() {
        let e = Env::new();
        for text in [
            "(-9223372036854775807-1)/-1",
            "(-9223372036854775807-1)%-1",
            "9223372036854775807+1",
            "-(-9223372036854775807-1)",
            "9223372036854775807*2",
        ] {
            assert!(eval(text, &e).is_err(), "{text}");
        }
        let range = Range {
            msb: Expr::Num(i64::MAX),
            lsb: Expr::Neg(Box::new(Expr::Num(i64::MAX))),
        };
        assert!(range.width(&e).is_err());
    }

    #[test]
    fn range_widths_work_both_orderings() {
        let e = Env::from([("W", 32), ("D", 12)]);
        assert_eq!(Range::bits(Expr::from("W")).width(&e), Ok(32));
        assert_eq!(Range::words(Expr::from("D")).width(&e), Ok(12));
        assert_eq!(Range::bits(Expr::from("W")).to_string(), "W-1:0");
        assert_eq!(Range::words(Expr::from("D")).to_string(), "0:D-1");
    }

    #[test]
    fn display_parses_back_to_the_same_tree() {
        for text in [
            "W-1",
            "A+1-1",
            "A-(B+C)",
            "A-(B-C)",
            "(A+B)*C",
            "A*(B*C)",
            "A/(B%C)",
            "-A*B",
            "-(A*B)",
            "--A",
            "A--B",
            "2*GATE_WIDTH-1",
        ] {
            let tree = parse_expr(text).expect("parses");
            assert_eq!(tree.to_string(), text);
            assert_eq!(parse_expr(&tree.to_string()), Ok(tree));
        }
        // Redundant parentheses go; the tree is what matters.
        assert_eq!(
            parse_expr("((A))+(B*C)").expect("parses").to_string(),
            "A+B*C"
        );
    }

    #[test]
    fn idents_are_visited_in_order() {
        let tree = parse_expr("a + b*a - 3").expect("parses");
        let mut seen = Vec::new();
        tree.idents(&mut seen);
        assert_eq!(seen, ["a", "b", "a"]);
    }
}
