//! Integer expressions: the widths, depths, parameter defaults and
//! overrides of the Verilog IR, parsed once into a small tree.
//!
//! The generated Verilog only ever uses `+ - * / %`, parentheses, unary
//! minus, plain decimal numbers and parameter names in these positions,
//! so that is the whole grammar. [`Expr::eval`] works against an
//! environment of resolved parameter values with checked arithmetic;
//! missing identifiers, division by zero and overflow are a soft
//! [`EvalError`] the callers turn into "could not resolve" rather than a
//! lint finding or a panic. The error borrows the failing subtree and is
//! only printed when a caller reports it.

use crate::text::Text;
use core::fmt;
use core::ops::{Add, Mul, Sub};

/// Parameter-name → resolved-value environment: the handful of names
/// one module instance resolves, kept in a list. A lookup compares the
/// bytes only of names with the lookup's length; setting a name again
/// replaces its value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Env<'a>(Vec<(&'a str, i64)>);

impl<'a> Env<'a> {
    /// An empty environment.
    #[must_use]
    pub fn new() -> Self {
        Env(Vec::new())
    }

    /// An empty environment with room for `names` names.
    pub(crate) fn with_capacity(names: usize) -> Self {
        Env(Vec::with_capacity(names))
    }

    /// The value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<i64> {
        self.0.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Sets `name` to `value`, replacing any earlier value.
    pub fn insert(&mut self, name: &'a str, value: i64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Every `(name, value)`, in the order the names were first set.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, i64)> + '_ {
        self.0.iter().copied()
    }
}

impl<'a, const N: usize> From<[(&'a str, i64); N]> for Env<'a> {
    fn from(pairs: [(&'a str, i64); N]) -> Self {
        let mut env = Env::with_capacity(N);
        for (name, value) in pairs {
            env.insert(name, value);
        }
        env
    }
}

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
    Ident(Text),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `lhs op rhs`, both operands in one allocation.
    Bin(Op, Box<[Expr; 2]>),
}

/// Why an [`Expr`] or [`Range`] did not evaluate. It borrows the failing
/// part and builds its message only when printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError<'a> {
    /// An identifier the environment does not hold.
    Unknown(&'a str),
    /// Negating this operand overflows `i64`.
    NegOverflow(&'a Expr),
    /// This division or remainder has a zero divisor.
    DivByZero(&'a Expr),
    /// This operation overflows `i64`.
    Overflow(&'a Expr),
    /// The width of this range overflows `i64`.
    RangeOverflow(&'a Range),
}

impl fmt::Display for EvalError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Unknown(name) => write!(f, "unknown identifier {name:?}"),
            EvalError::NegOverflow(e) => write!(f, "-({e}) overflows"),
            EvalError::DivByZero(e) => write!(f, "{e}: division by zero"),
            EvalError::Overflow(e) => write!(f, "{e} overflows"),
            EvalError::RangeOverflow(r) => write!(f, "range [{r}] overflows"),
        }
    }
}

impl Expr {
    /// Evaluates the tree against `env` with checked arithmetic.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] when an identifier is missing from
    /// `env`, a divisor is zero or a step overflows `i64`.
    pub fn eval(&self, env: &Env) -> Result<i64, EvalError<'_>> {
        match self {
            Expr::Num(n) => Ok(*n),
            Expr::Ident(name) => env.get(name).ok_or(EvalError::Unknown(name)),
            Expr::Neg(e) => e.eval(env)?.checked_neg().ok_or(EvalError::NegOverflow(e)),
            Expr::Bin(op, operands) => {
                let [l, r] = &**operands;
                let (a, b) = (l.eval(env)?, r.eval(env)?);
                if b == 0 && matches!(op, Op::Div | Op::Rem) {
                    return Err(EvalError::DivByZero(self));
                }
                match op {
                    Op::Add => a.checked_add(b),
                    Op::Sub => a.checked_sub(b),
                    Op::Mul => a.checked_mul(b),
                    Op::Div => a.checked_div(b),
                    Op::Rem => a.checked_rem(b),
                }
                .ok_or(EvalError::Overflow(self))
            }
        }
    }

    /// Calls `visit` on every identifier in the tree, left to right.
    pub fn idents<'a>(&'a self, visit: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Num(_) => {}
            Expr::Ident(name) => visit(name),
            Expr::Neg(e) => e.idents(visit),
            Expr::Bin(_, operands) => operands.iter().for_each(|e| e.idents(visit)),
        }
    }

    pub(crate) fn bin(op: Op, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new([lhs, rhs]))
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
        Expr::Ident(name.into())
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
            Expr::Bin(op, operands) => {
                let [l, r] = &**operands;
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

    /// Calls `visit` on every identifier of both bounds, left to right.
    pub(crate) fn idents<'a>(&'a self, visit: &mut impl FnMut(&'a str)) {
        self.msb.idents(visit);
        self.lsb.idents(visit);
    }

    /// Width of the range: `|msb - lsb| + 1`. Works for both `[W-1:0]`
    /// (width) and `[0:D-1]` (depth) orderings.
    ///
    /// # Errors
    ///
    /// Propagates [`Expr::eval`] failures from either bound, and reports
    /// a width that overflows `i64`.
    pub fn width(&self, env: &Env) -> Result<i64, EvalError<'_>> {
        let (msb, lsb) = (self.msb.eval(env)?, self.lsb.eval(env)?);
        msb.checked_sub(lsb)
            .and_then(i64::checked_abs)
            .and_then(|d| d.checked_add(1))
            .ok_or(EvalError::RangeOverflow(self))
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
        let tree = parse_expr(text).map_err(|e| e.to_string())?;
        tree.eval(env).map_err(|e| e.to_string())
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
        tree.idents(&mut |name| seen.push(name));
        assert_eq!(seen, ["a", "b", "a"]);
    }
}
