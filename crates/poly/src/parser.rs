//! A parser for ISL-like set and relation notation.
//!
//! The paper (and the original IOLB implementation) describe domains and
//! dependence relations in ISL syntax, e.g.
//!
//! ```text
//! [M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }
//! [M, N] -> { S[t, i] -> S[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }
//! ```
//!
//! This module parses that notation into [`BasicSet`] / [`BasicMap`] values so
//! that kernels and tests can be written in the same vocabulary the paper
//! uses. Supported syntax: an optional parameter prefix `[A, B] ->`, a tuple
//! (or a pair of tuples for relations), and a conjunction of chained affine
//! comparisons (`and` / `&&`). Identifiers appearing in output tuples that are
//! not input dimensions become fresh output dimensions; other output elements
//! may be arbitrary affine expressions of the input dimensions and parameters.

use crate::affine::{Constraint, LinExpr};
use crate::basic_map::BasicMap;
use crate::basic_set::BasicSet;
use crate::space::Space;
use std::fmt;

/// Error produced when parsing ISL-like notation fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset in the input near the error.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One raw (unparsed) tuple element: its tokens with byte offsets.
type TupleElem = Vec<(Token, usize)>;

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i128),
    Symbol(String),
}

fn tokenize(input: &str) -> Result<Vec<(Token, usize)>, ParseError> {
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric()
                    || bytes[i] == b'_'
                    || bytes[i] == b'\'')
            {
                i += 1;
            }
            out.push((Token::Ident(input[start..i].to_string()), start));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let v: i128 = input[start..i].parse().map_err(|_| ParseError {
                message: "integer literal out of range".to_string(),
                position: start,
            })?;
            out.push((Token::Int(v), start));
            continue;
        }
        // Multi-character symbols.
        let two = if i + 1 < bytes.len() {
            &input[i..i + 2]
        } else {
            ""
        };
        let sym = match two {
            "->" | "<=" | ">=" | "==" | "&&" => {
                i += 2;
                two.to_string()
            }
            _ => {
                i += 1;
                c.to_string()
            }
        };
        out.push((Token::Symbol(sym), i - 1));
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    params: Vec<String>,
}

impl Parser {
    fn new(input: &str) -> Result<Self, ParseError> {
        Ok(Parser {
            tokens: tokenize(input)?,
            pos: 0,
            params: Vec::new(),
        })
    }

    fn error(&self, message: &str) -> ParseError {
        let position = self.tokens.get(self.pos).map(|(_, p)| *p).unwrap_or(0);
        ParseError {
            message: message.to_string(),
            position,
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        if let Some(Token::Symbol(sym)) = self.peek() {
            if sym == s {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_symbol(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{s}`")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            _ => Err(self.error("expected identifier")),
        }
    }

    /// Parses an optional `[A, B] ->` parameter prefix.
    fn parse_param_prefix(&mut self) -> Result<(), ParseError> {
        let save = self.pos;
        if self.eat_symbol("[") {
            let mut params = Vec::new();
            loop {
                match self.next() {
                    Some(Token::Ident(p)) => params.push(p),
                    _ => {
                        self.pos = save;
                        return Ok(());
                    }
                }
                if self.eat_symbol(",") {
                    continue;
                }
                break;
            }
            if self.eat_symbol("]") && self.eat_symbol("->") {
                self.params = params;
                return Ok(());
            }
            self.pos = save;
        }
        Ok(())
    }

    /// Parses a tuple `Name[e0, e1, …]`, returning the name and element
    /// expressions as raw strings re-parsed later (we need to know the
    /// variable environment first).
    fn parse_tuple_raw(&mut self) -> Result<(String, Vec<TupleElem>), ParseError> {
        let name = self.expect_ident()?;
        self.expect_symbol("[")?;
        let mut elems: Vec<TupleElem> = Vec::new();
        if self.eat_symbol("]") {
            return Ok((name, elems));
        }
        loop {
            let mut depth = 0usize;
            let mut elem = Vec::new();
            loop {
                match self.peek() {
                    Some(Token::Symbol(s)) if s == "(" => depth += 1,
                    Some(Token::Symbol(s)) if s == ")" => {
                        if depth == 0 {
                            return Err(self.error("unbalanced parenthesis in tuple"));
                        }
                        depth -= 1;
                    }
                    Some(Token::Symbol(s)) if (s == "," || s == "]") && depth == 0 => break,
                    None => return Err(self.error("unterminated tuple")),
                    _ => {}
                }
                elem.push(self.tokens[self.pos].clone());
                self.pos += 1;
            }
            elems.push(elem);
            if self.eat_symbol(",") {
                continue;
            }
            self.expect_symbol("]")?;
            break;
        }
        Ok((name, elems))
    }

    /// Parses an affine expression over the given variable names; unknown
    /// identifiers are treated as parameters.
    fn parse_expr(&mut self, vars: &[String], nvars: usize) -> Result<LinExpr, ParseError> {
        let mut acc = self.parse_term(vars, nvars)?;
        loop {
            if self.eat_symbol("+") {
                let t = self.parse_term(vars, nvars)?;
                acc = acc.add(&t);
            } else if self.eat_symbol("-") {
                let t = self.parse_term(vars, nvars)?;
                acc = acc.sub(&t);
            } else {
                break;
            }
        }
        Ok(acc)
    }

    fn parse_term(&mut self, vars: &[String], nvars: usize) -> Result<LinExpr, ParseError> {
        let mut acc = self.parse_factor(vars, nvars)?;
        while self.eat_symbol("*") {
            let rhs = self.parse_factor(vars, nvars)?;
            // Affine restriction: one side must be constant.
            if acc.is_param_only() && acc.param_coeffs.is_empty() {
                acc = rhs.scale(acc.constant);
            } else if rhs.is_param_only() && rhs.param_coeffs.is_empty() {
                acc = acc.scale(rhs.constant);
            } else {
                return Err(self.error("non-affine product"));
            }
        }
        Ok(acc)
    }

    fn parse_factor(&mut self, vars: &[String], nvars: usize) -> Result<LinExpr, ParseError> {
        match self.next() {
            Some(Token::Int(v)) => Ok(LinExpr::constant(nvars, v)),
            Some(Token::Ident(name)) => {
                if let Some(i) = vars.iter().position(|v| *v == name) {
                    Ok(LinExpr::var(nvars, i))
                } else {
                    Ok(LinExpr::param(nvars, &name))
                }
            }
            Some(Token::Symbol(s)) if s == "-" => {
                let f = self.parse_factor(vars, nvars)?;
                Ok(f.scale(-1))
            }
            Some(Token::Symbol(s)) if s == "(" => {
                let e = self.parse_expr(vars, nvars)?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            _ => Err(self.error("expected expression")),
        }
    }

    /// Parses the condition part: a conjunction of chained comparisons.
    fn parse_condition(
        &mut self,
        vars: &[String],
        nvars: usize,
    ) -> Result<Vec<Constraint>, ParseError> {
        let mut out = Vec::new();
        loop {
            out.extend(self.parse_chain(vars, nvars)?);
            if self.eat_symbol("&&") {
                continue;
            }
            if let Some(Token::Ident(kw)) = self.peek() {
                if kw == "and" {
                    self.pos += 1;
                    continue;
                }
            }
            break;
        }
        Ok(out)
    }

    fn parse_chain(
        &mut self,
        vars: &[String],
        nvars: usize,
    ) -> Result<Vec<Constraint>, ParseError> {
        let mut exprs = vec![self.parse_expr(vars, nvars)?];
        let mut ops = Vec::new();
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(s))
                    if ["<=", "<", ">=", ">", "=", "=="].contains(&s.as_str()) =>
                {
                    s.clone()
                }
                _ => break,
            };
            self.pos += 1;
            ops.push(op);
            exprs.push(self.parse_expr(vars, nvars)?);
        }
        if ops.is_empty() {
            return Err(self.error("expected comparison operator"));
        }
        let mut out = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let a = &exprs[i];
            let b = &exprs[i + 1];
            let c = match op.as_str() {
                "<=" => Constraint::le(a.clone(), b.clone()),
                "<" => Constraint::ge0(b.sub(a).sub(&LinExpr::constant(nvars, 1))),
                ">=" => Constraint::ge(a.clone(), b.clone()),
                ">" => Constraint::ge0(a.sub(b).sub(&LinExpr::constant(nvars, 1))),
                "=" | "==" => Constraint::equals(a.clone(), b.clone()),
                _ => unreachable!(),
            };
            out.push(c);
        }
        Ok(out)
    }
}

/// Parses a set in ISL-like notation, e.g.
/// `"[N] -> { S[i, j] : 0 <= i < N and 0 <= j <= i }"`.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax problem encountered.
///
/// # Examples
///
/// ```
/// use iolb_poly::parse_set;
/// # let _session = iolb_poly::EngineCtx::new().enter();
/// let s = parse_set("[N] -> { S[i, j] : 0 <= i < N and 0 <= j <= i }").unwrap();
/// assert!(s.contains(&[3, 2], &[("N", 5)]));
/// assert!(!s.contains(&[3, 4], &[("N", 5)]));
/// ```
pub fn parse_set(input: &str) -> Result<BasicSet, ParseError> {
    let mut p = Parser::new(input)?;
    p.parse_param_prefix()?;
    p.expect_symbol("{")?;
    let (name, elems) = p.parse_tuple_raw()?;
    // Set tuple elements must be plain identifiers (dimension names).
    let mut dims = Vec::new();
    for e in &elems {
        match e.as_slice() {
            [(Token::Ident(d), _)] => dims.push(d.clone()),
            _ => {
                return Err(ParseError {
                    message: "set tuple elements must be identifiers".to_string(),
                    position: e.first().map(|(_, p)| *p).unwrap_or(0),
                })
            }
        }
    }
    let nvars = dims.len();
    let mut constraints = Vec::new();
    if p.eat_symbol(":") {
        constraints = p.parse_condition(&dims, nvars)?;
    }
    p.expect_symbol("}")?;
    let space = Space::from_names(name, dims);
    Ok(BasicSet::from_constraints(space, constraints))
}

/// Parses a relation in ISL-like notation, e.g.
/// `"[M, N] -> { S[t, i] -> S[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }"`.
///
/// Identifiers in the output tuple that are not input dimensions become fresh
/// output dimensions; any other output element is an affine expression that
/// constrains the corresponding (anonymous) output dimension.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax problem encountered.
///
/// # Examples
///
/// ```
/// use iolb_poly::parse_map;
/// # let _session = iolb_poly::EngineCtx::new().enter();
/// let m = parse_map("[M, N] -> { C[t] -> S[t, i] : 0 <= t < M and 0 <= i < N }").unwrap();
/// assert!(m.contains(&[2], &[2, 5], &[("M", 4), ("N", 7)]));
/// ```
pub fn parse_map(input: &str) -> Result<BasicMap, ParseError> {
    let mut p = Parser::new(input)?;
    p.parse_param_prefix()?;
    p.expect_symbol("{")?;
    let (in_name, in_elems) = p.parse_tuple_raw()?;
    p.expect_symbol("->")?;
    let (out_name, out_elems) = p.parse_tuple_raw()?;

    let mut in_dims = Vec::new();
    for e in &in_elems {
        match e.as_slice() {
            [(Token::Ident(d), _)] => in_dims.push(d.clone()),
            _ => {
                return Err(ParseError {
                    message: "input tuple elements must be identifiers".to_string(),
                    position: e.first().map(|(_, pos)| *pos).unwrap_or(0),
                })
            }
        }
    }

    // Decide output dimension names: a lone identifier that is neither an
    // input dimension nor a declared parameter becomes a fresh dimension;
    // everything else is an expression pinned by an equality constraint.
    let mut out_dims: Vec<String> = Vec::new();
    let mut out_exprs: Vec<Option<TupleElem>> = Vec::new();
    for (k, e) in out_elems.iter().enumerate() {
        match e.as_slice() {
            [(Token::Ident(d), _)] if !in_dims.contains(d) && !p.params.contains(d) => {
                out_dims.push(d.clone());
                out_exprs.push(None);
            }
            _ => {
                out_dims.push(format!("o{k}"));
                out_exprs.push(Some(e.clone()));
            }
        }
    }

    let n_in = in_dims.len();
    let n_out = out_dims.len();
    let nvars = n_in + n_out;
    let mut all_vars = in_dims.clone();
    all_vars.extend(out_dims.iter().cloned());

    let mut constraints = Vec::new();
    // Equalities for expression-valued output elements.
    for (k, expr_tokens) in out_exprs.iter().enumerate() {
        if let Some(tokens) = expr_tokens {
            let mut sub = Parser {
                tokens: tokens.clone(),
                pos: 0,
                params: p.params.clone(),
            };
            let e = sub.parse_expr(&all_vars, nvars)?;
            if sub.pos != sub.tokens.len() {
                return Err(sub.error("trailing tokens in output expression"));
            }
            let out_var = LinExpr::var(nvars, n_in + k);
            constraints.push(Constraint::equals(out_var, e));
        }
    }
    if p.eat_symbol(":") {
        constraints.extend(p.parse_condition(&all_vars, nvars)?);
    }
    p.expect_symbol("}")?;

    let in_space = Space::from_names(in_name, in_dims);
    let out_space = Space::from_names(out_name, out_dims);
    Ok(BasicMap::from_constraints(in_space, out_space, constraints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineCtx;

    #[test]
    fn parse_rectangle_set() {
        let _session = EngineCtx::new().enter();
        let s = parse_set("[M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }").unwrap();
        assert_eq!(s.dim(), 2);
        assert!(s.contains(&[0, 6], &[("M", 3), ("N", 7)]));
        assert!(!s.contains(&[3, 0], &[("M", 3), ("N", 7)]));
    }

    #[test]
    fn parse_chained_comparisons() {
        let _session = EngineCtx::new().enter();
        let s = parse_set("{ S[i, j] : 0 <= j <= i < N }").unwrap();
        assert!(s.contains(&[4, 4], &[("N", 5)]));
        assert!(!s.contains(&[4, 5], &[("N", 5)]));
        assert!(!s.contains(&[5, 1], &[("N", 5)]));
    }

    #[test]
    fn parse_translation_map() {
        let _session = EngineCtx::new().enter();
        let m = parse_map("[M, N] -> { S[t, i] -> S[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }")
            .unwrap();
        assert_eq!(m.translation_offsets(), Some(vec![1, 0]));
        assert!(m.contains(&[2, 3], &[3, 3], &[("M", 5), ("N", 5)]));
    }

    #[test]
    fn parse_broadcast_map_with_fresh_output_dim() {
        let _session = EngineCtx::new().enter();
        let m = parse_map("[M, N] -> { C[t] -> S[t, i] : 0 <= t < M and 0 <= i < N }").unwrap();
        assert_eq!(m.n_in(), 1);
        assert_eq!(m.n_out(), 2);
        assert!(m.contains(&[1], &[1, 4], &[("M", 3), ("N", 6)]));
        assert!(!m.contains(&[1], &[2, 4], &[("M", 3), ("N", 6)]));
        let f = m.as_function_of_range().unwrap();
        assert_eq!(f.kernel().dim(), 1);
    }

    #[test]
    fn parse_map_with_affine_output_of_params() {
        let _session = EngineCtx::new().enter();
        // Cholesky-style: S3[k - 1, i, k] -> S2[k, i].
        let m = parse_map(
            "[N] -> { S3[k, i, j] -> S2[k + 1, i] : j = k + 1 and 1 <= k + 1 < N and k + 2 <= i < N }",
        )
        .unwrap();
        assert!(m.contains(&[0, 2, 1], &[1, 2], &[("N", 5)]));
        assert!(!m.contains(&[0, 2, 2], &[1, 2], &[("N", 5)]));
    }

    #[test]
    fn parse_with_multiplication() {
        let _session = EngineCtx::new().enter();
        let s = parse_set("[N] -> { S[i] : 0 <= 2*i and 2 * i < N }").unwrap();
        assert!(s.contains(&[2], &[("N", 6)]));
        assert!(!s.contains(&[3], &[("N", 6)]));
    }

    #[test]
    fn parse_scalar_tuple() {
        let s = parse_set("{ s[] : }");
        // Empty condition after colon is a syntax error; without colon it parses.
        assert!(s.is_err());
        let ok = parse_set("{ s[] }").unwrap();
        assert_eq!(ok.dim(), 0);
    }

    #[test]
    fn parse_errors_are_reported() {
        let _session = EngineCtx::new().enter();
        assert!(parse_set("{ S[i : }").is_err());
        assert!(parse_set("S[i]").is_err());
        assert!(parse_map("{ S[i] - T[j] }").is_err());
        assert!(parse_set("{ S[i] : i ** 2 >= 0 }").is_err());
        assert!(parse_set("{ S[i] : i * j >= 0 }").is_err());
    }

    #[test]
    fn unknown_identifiers_become_parameters() {
        let _session = EngineCtx::new().enter();
        let s = parse_set("{ S[i] : 0 <= i < N + M }").unwrap();
        assert!(s.contains(&[8], &[("N", 5), ("M", 4)]));
        assert!(!s.contains(&[9], &[("N", 5), ("M", 4)]));
    }

    #[test]
    fn equality_in_condition() {
        let _session = EngineCtx::new().enter();
        let m = parse_map("{ A[i] -> S[t, i2] : i2 = i and t = 0 and 0 <= i < N }").unwrap();
        assert!(m.contains(&[3], &[0, 3], &[("N", 5)]));
        assert!(!m.contains(&[3], &[1, 3], &[("N", 5)]));
    }
}
