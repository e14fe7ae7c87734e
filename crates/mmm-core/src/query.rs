//! Model-lake query engine: one typed predicate API over catalog,
//! lineage, tags, branches, and storage.
//!
//! The read-side modules ([`crate::catalog`], [`crate::tags`],
//! [`crate::branch`], [`crate::lineage`]) each answer one narrow
//! question. This module joins them into a unified [`SetRecord`] view
//! and evaluates a small expression language against it:
//!
//! ```text
//! kind = "diff" and n_models >= 100 and tag:prod and bytes > 50MB
//! descendant-of(update:0) or branch:trial
//! similar-to(update:3, 0.9)
//! ```
//!
//! # Grammar
//!
//! ```text
//! expr    := or
//! or      := and ( "or" and )*
//! and     := unary ( "and" unary )*
//! unary   := "not" unary | primary
//! primary := "(" expr ")" | "true" | "false"
//!          | "tag" ":" name | "branch" ":" name
//!          | "descendant-of" "(" set-id ")"
//!          | "similar-to" "(" set-id "," number ")"
//!          | str-field  ("=" | "!=") string-or-word
//!          | num-field  ("=" | "!=" | "<" | "<=" | ">" | ">=") integer
//! str-field := "kind" | "approach" | "key" | "base"
//! num-field := "n_models" | "depth" | "bytes"
//! set-id  := word ":" segment ( ":" segment )*      (e.g. mmlib-base:0:3)
//! ```
//!
//! Integers accept byte-size suffixes (`KB`/`MB`/`GB`/`TB` decimal,
//! `KiB`/`MiB`/`GiB` binary). Parse errors carry the **byte offset** of
//! the offending token. Every accepted expression round-trips through
//! [`fmt::Display`] back to an equal AST (property-tested).
//!
//! # Planning
//!
//! [`Query::run`] plans first: it probes the tag and branch indexes
//! for top-level `and`-conjuncts. When a probe applies, the candidates
//! it names are fetched **by id** — one commit lookup, one fetch of
//! their set documents, blob stats of those rows only, and their
//! lineage resolved by following `base` pointers, one more fetch per
//! chain level — so `tag:prod and …` costs what its hits and their
//! chains cost, whatever the lake holds. Only when no probe applies is
//! the catalogue listed. Both ways build their rows with the
//! catalogue's row constructor and evaluate them the same way, so a
//! probe returns exactly what the scan would (property-tested). The
//! probes used are reported in [`QueryOutput::probes`].
//!
//! A run emits a root `query` span tiled by its four phases: `plan`,
//! `catalog` (the rows), `join` (tags, branches, lineage, similarity
//! references) and `eval`.
//!
//! # Similarity
//!
//! `similar-to(id, t)` matches sets whose per-layer content-hash
//! multiset (the Update approach's hash tables) shares at least
//! fraction `t` with the reference set's. Sets without a stored hash
//! table (baseline, mmlib, provenance) never match; the reference set
//! must have one.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::approach::{common, UpdateSaver};
use crate::branch;
use crate::catalog::{self, SetKind, TierBytes};
use crate::commit;
use crate::env::ManagementEnv;
use crate::model_set::ModelSetId;
use crate::tags;
use mmm_util::{Error, Result};
use serde_json::Value;

/// A string-valued record field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrField {
    /// Set kind ("full", "diff", "prov", "?").
    Kind,
    /// Saving approach ("baseline", "update", "provenance", "mmlib-base").
    Approach,
    /// Approach-specific key.
    Key,
    /// Base set key; records without a base compare as `"-"`.
    Base,
}

impl StrField {
    fn name(self) -> &'static str {
        match self {
            StrField::Kind => "kind",
            StrField::Approach => "approach",
            StrField::Key => "key",
            StrField::Base => "base",
        }
    }
}

/// A numeric record field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumField {
    /// Number of models in the set.
    NModels,
    /// Lineage depth (number of recovery hops to a full save).
    Depth,
    /// Total stored bytes across tiers.
    Bytes,
}

impl NumField {
    fn name(self) -> &'static str {
        match self {
            NumField::NModels => "n_models",
            NumField::Depth => "depth",
            NumField::Bytes => "bytes",
        }
    }
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn name(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    fn holds_u64(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// A parsed query expression. Built by [`Query::parse`]; printable via
/// [`fmt::Display`] in a form that parses back to an equal AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Matches every record.
    True,
    /// Matches no record.
    False,
    /// Logical negation.
    Not(Box<Expr>),
    /// Both operands must hold.
    And(Box<Expr>, Box<Expr>),
    /// Either operand must hold.
    Or(Box<Expr>, Box<Expr>),
    /// String-field comparison (`=` / `!=` only).
    StrCmp {
        /// Field compared.
        field: StrField,
        /// `true` for `!=`, `false` for `=`.
        negated: bool,
        /// Literal compared against.
        value: String,
    },
    /// Numeric-field comparison.
    NumCmp {
        /// Field compared.
        field: NumField,
        /// Operator.
        op: CmpOp,
        /// Literal compared against (byte suffixes already applied).
        value: u64,
    },
    /// The record carries this tag.
    Tag(String),
    /// The record is a node (or head) of this branch.
    Branch(String),
    /// The record is a strict lineage descendant of the given set.
    DescendantOf(ModelSetId),
    /// The record's layer-hash multiset shares at least the given
    /// fraction with the reference set's.
    SimilarTo(ModelSetId, f64),
}

/// `true` when `s` can be printed unquoted (a lexer word).
fn bare_word(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn fmt_name(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    // A numeric name prints bare only in its canonical form: `0123`
    // would lex as the integer 123 and re-parse as a different name.
    let canonical_int = !s.is_empty()
        && s.chars().all(|c| c.is_ascii_digit())
        && (s.len() == 1 || !s.starts_with('0'));
    if bare_word(s) || canonical_int {
        write!(f, "{s}")
    } else {
        write!(f, "\"{s}\"")
    }
}

impl Expr {
    // Precedence: or=0, and=1, unary=2, atom=3.
    fn prec(&self) -> u8 {
        match self {
            Expr::Or(..) => 0,
            Expr::And(..) => 1,
            Expr::Not(..) => 2,
            _ => 3,
        }
    }

    fn fmt_at(&self, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
        let me = self.prec();
        if me < min {
            write!(f, "(")?;
        }
        match self {
            Expr::True => write!(f, "true")?,
            Expr::False => write!(f, "false")?,
            Expr::Not(e) => {
                write!(f, "not ")?;
                e.fmt_at(f, 2)?;
            }
            Expr::And(a, b) => {
                a.fmt_at(f, 1)?;
                write!(f, " and ")?;
                b.fmt_at(f, 2)?;
            }
            Expr::Or(a, b) => {
                a.fmt_at(f, 0)?;
                write!(f, " or ")?;
                b.fmt_at(f, 1)?;
            }
            Expr::StrCmp { field, negated, value } => {
                write!(f, "{} {} \"{}\"", field.name(), if *negated { "!=" } else { "=" }, value)?;
            }
            Expr::NumCmp { field, op, value } => {
                write!(f, "{} {} {}", field.name(), op.name(), value)?;
            }
            Expr::Tag(t) => {
                write!(f, "tag:")?;
                fmt_name(f, t)?;
            }
            Expr::Branch(b) => {
                write!(f, "branch:")?;
                fmt_name(f, b)?;
            }
            Expr::DescendantOf(id) => write!(f, "descendant-of({id})")?,
            Expr::SimilarTo(id, t) => write!(f, "similar-to({id}, {t})")?,
        }
        if me < min {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_at(f, 0)
    }
}

/// A parse failure, anchored to the byte offset of the offending token
/// in the input string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the query string where the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

fn perr<T>(offset: usize, message: impl Into<String>) -> std::result::Result<T, ParseError> {
    Err(ParseError { offset, message: message.into() })
}

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Str(String),
    Int(u64),
    Float(f64),
    LParen,
    RParen,
    Comma,
    Colon,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Word(w) => format!("word `{w}`"),
            Tok::Str(_) => "quoted string".into(),
            Tok::Int(n) => format!("number {n}"),
            Tok::Float(x) => format!("number {x}"),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Colon => "`:`".into(),
            Tok::Eq => "`=`".into(),
            Tok::Ne => "`!=`".into(),
            Tok::Lt => "`<`".into(),
            Tok::Le => "`<=`".into(),
            Tok::Gt => "`>`".into(),
            Tok::Ge => "`>=`".into(),
        }
    }
}

fn byte_suffix(unit: &str) -> Option<u64> {
    Some(match unit {
        "B" => 1,
        "KB" | "kB" => 1_000,
        "MB" => 1_000_000,
        "GB" => 1_000_000_000,
        "TB" => 1_000_000_000_000,
        "KiB" => 1 << 10,
        "MiB" => 1 << 20,
        "GiB" => 1 << 30,
        _ => return None,
    })
}

fn lex(input: &str) -> std::result::Result<Vec<(usize, Tok)>, ParseError> {
    let b = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' => {
                out.push((i, Tok::LParen));
                i += 1;
            }
            b')' => {
                out.push((i, Tok::RParen));
                i += 1;
            }
            b',' => {
                out.push((i, Tok::Comma));
                i += 1;
            }
            b':' => {
                out.push((i, Tok::Colon));
                i += 1;
            }
            b'=' => {
                out.push((i, Tok::Eq));
                i += 1;
            }
            b'!' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((i, Tok::Ne));
                    i += 2;
                } else {
                    return perr(i, "expected `!=`");
                }
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((i, Tok::Le));
                    i += 2;
                } else {
                    out.push((i, Tok::Lt));
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((i, Tok::Ge));
                    i += 2;
                } else {
                    out.push((i, Tok::Gt));
                    i += 1;
                }
            }
            b'"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match b.get(i) {
                        None => return perr(start, "unterminated string"),
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(&ch) if ch == b'\\' || ch < 0x20 => {
                            return perr(i, "string literals allow neither escapes nor control bytes");
                        }
                        Some(&ch) => {
                            // Multibyte UTF-8 passes through untouched.
                            let len = utf8_len(ch);
                            s.push_str(
                                std::str::from_utf8(&b[i..i + len])
                                    .map_err(|_| ParseError { offset: i, message: "invalid UTF-8 in string".into() })?,
                            );
                            i += len;
                        }
                    }
                }
                out.push((start, Tok::Str(s)));
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                if b.get(i) == Some(&b'.') && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    let x: f64 = input[start..i]
                        .parse()
                        .map_err(|_| ParseError { offset: start, message: "malformed number".into() })?;
                    out.push((start, Tok::Float(x)));
                } else {
                    let n: u64 = input[start..i].parse().map_err(|_| ParseError {
                        offset: start,
                        message: "integer literal out of range".into(),
                    })?;
                    // Optional byte-size suffix glued to the digits.
                    let unit_start = i;
                    while i < b.len() && b[i].is_ascii_alphabetic() {
                        i += 1;
                    }
                    if unit_start == i {
                        out.push((start, Tok::Int(n)));
                    } else {
                        let unit = &input[unit_start..i];
                        let mul = byte_suffix(unit).ok_or_else(|| ParseError {
                            offset: unit_start,
                            message: format!("unknown byte-size suffix `{unit}`"),
                        })?;
                        let scaled = n.checked_mul(mul).ok_or_else(|| ParseError {
                            offset: start,
                            message: "byte-size literal overflows".into(),
                        })?;
                        out.push((start, Tok::Int(scaled)));
                    }
                }
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.' || b[i] == b'-')
                {
                    i += 1;
                }
                out.push((start, Tok::Word(input[start..i].to_string())));
            }
            _ => return perr(i, format!("unexpected character `{}`", &input[i..].chars().next().map(String::from).unwrap_or_default())),
        }
    }
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

// --------------------------------------------------------------- parser

struct Parser<'a> {
    toks: &'a [(usize, Tok)],
    pos: usize,
    end: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&(usize, Tok)> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<&(usize, Tok)> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.toks.get(self.pos).map(|(o, _)| *o).unwrap_or(self.end)
    }

    fn expect(&mut self, want: &Tok, what: &str) -> std::result::Result<usize, ParseError> {
        match self.toks.get(self.pos) {
            Some((off, t)) if t == want => {
                self.pos += 1;
                Ok(*off)
            }
            Some((off, t)) => perr(*off, format!("expected {what}, found {}", t.describe())),
            None => perr(self.end, format!("expected {what}, found end of input")),
        }
    }

    fn expr(&mut self) -> std::result::Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), Some((_, Tok::Word(w))) if w == "or") {
            self.pos += 1;
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> std::result::Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while matches!(self.peek(), Some((_, Tok::Word(w))) if w == "and") {
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> std::result::Result<Expr, ParseError> {
        if matches!(self.peek(), Some((_, Tok::Word(w))) if w == "not") {
            self.pos += 1;
            return Ok(Expr::Not(Box::new(self.unary()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> std::result::Result<Expr, ParseError> {
        let (off, tok) = match self.next() {
            Some(t) => (t.0, t.1.clone()),
            None => return perr(self.end, "expected a predicate, found end of input"),
        };
        match tok {
            Tok::LParen => {
                let inner = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(inner)
            }
            Tok::Word(w) => match w.as_str() {
                "true" => Ok(Expr::True),
                "false" => Ok(Expr::False),
                "tag" => {
                    self.expect(&Tok::Colon, "`:` after `tag`")?;
                    Ok(Expr::Tag(self.name("tag name")?))
                }
                "branch" => {
                    self.expect(&Tok::Colon, "`:` after `branch`")?;
                    Ok(Expr::Branch(self.name("branch name")?))
                }
                "descendant-of" => {
                    self.expect(&Tok::LParen, "`(` after `descendant-of`")?;
                    let id = self.set_id()?;
                    self.expect(&Tok::RParen, "`)`")?;
                    Ok(Expr::DescendantOf(id))
                }
                "similar-to" => {
                    self.expect(&Tok::LParen, "`(` after `similar-to`")?;
                    let id = self.set_id()?;
                    self.expect(&Tok::Comma, "`,` before the similarity threshold")?;
                    let t_off = self.here();
                    let t = match self.next() {
                        Some((_, Tok::Float(x))) => *x,
                        Some((_, Tok::Int(n))) => *n as f64,
                        Some((o, t)) => {
                            return perr(*o, format!("expected a threshold in [0, 1], found {}", t.describe()))
                        }
                        None => return perr(self.end, "expected a threshold in [0, 1], found end of input"),
                    };
                    if !(0.0..=1.0).contains(&t) {
                        return perr(t_off, format!("similarity threshold {t} is outside [0, 1]"));
                    }
                    self.expect(&Tok::RParen, "`)`")?;
                    Ok(Expr::SimilarTo(id, t))
                }
                "kind" => self.str_cmp(StrField::Kind),
                "approach" => self.str_cmp(StrField::Approach),
                "key" => self.str_cmp(StrField::Key),
                "base" => self.str_cmp(StrField::Base),
                "n_models" => self.num_cmp(NumField::NModels),
                "depth" => self.num_cmp(NumField::Depth),
                "bytes" => self.num_cmp(NumField::Bytes),
                _ => perr(
                    off,
                    format!(
                        "unknown predicate `{w}` (expected a field, `tag:`, `branch:`, \
                         `descendant-of(...)`, `similar-to(...)`, `true`, or `false`)"
                    ),
                ),
            },
            other => perr(off, format!("expected a predicate, found {}", other.describe())),
        }
    }

    /// A tag or branch name: bare word, quoted string, or number.
    fn name(&mut self, what: &str) -> std::result::Result<String, ParseError> {
        match self.next() {
            Some((_, Tok::Word(w))) => Ok(w.clone()),
            Some((_, Tok::Str(s))) => Ok(s.clone()),
            Some((_, Tok::Int(n))) => Ok(n.to_string()),
            Some((o, t)) => perr(*o, format!("expected a {what}, found {}", t.describe())),
            None => perr(self.end, format!("expected a {what}, found end of input")),
        }
    }

    /// `approach:key`, where the key may itself contain `:` segments
    /// (mmlib ranges such as `mmlib-base:0:3`).
    fn set_id(&mut self) -> std::result::Result<ModelSetId, ParseError> {
        let approach = match self.next() {
            Some((_, Tok::Word(w))) => w.clone(),
            Some((o, t)) => return perr(*o, format!("expected a set id, found {}", t.describe())),
            None => return perr(self.end, "expected a set id, found end of input"),
        };
        self.expect(&Tok::Colon, "`:` in set id")?;
        let mut key = self.segment()?;
        while matches!(self.peek(), Some((_, Tok::Colon))) {
            self.pos += 1;
            key.push(':');
            key.push_str(&self.segment()?);
        }
        Ok(ModelSetId { approach, key })
    }

    fn segment(&mut self) -> std::result::Result<String, ParseError> {
        match self.next() {
            Some((_, Tok::Word(w))) => Ok(w.clone()),
            Some((_, Tok::Int(n))) => Ok(n.to_string()),
            Some((o, t)) => perr(*o, format!("expected a set-id segment, found {}", t.describe())),
            None => perr(self.end, "expected a set-id segment, found end of input"),
        }
    }

    fn str_cmp(&mut self, field: StrField) -> std::result::Result<Expr, ParseError> {
        let negated = match self.next() {
            Some((_, Tok::Eq)) => false,
            Some((_, Tok::Ne)) => true,
            Some((o, Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge)) => {
                return perr(*o, format!("field `{}` supports only `=` and `!=`", field.name()))
            }
            Some((o, t)) => return perr(*o, format!("expected `=` or `!=`, found {}", t.describe())),
            None => return perr(self.end, "expected `=` or `!=`, found end of input"),
        };
        let value = match self.next() {
            Some((_, Tok::Str(s))) => s.clone(),
            Some((_, Tok::Word(w))) => w.clone(),
            Some((_, Tok::Int(n))) => n.to_string(),
            Some((o, t)) => {
                return perr(
                    *o,
                    format!("field `{}` compares against a string, found {}", field.name(), t.describe()),
                )
            }
            None => return perr(self.end, "expected a string value, found end of input"),
        };
        Ok(Expr::StrCmp { field, negated, value })
    }

    fn num_cmp(&mut self, field: NumField) -> std::result::Result<Expr, ParseError> {
        let op = match self.next() {
            Some((_, Tok::Eq)) => CmpOp::Eq,
            Some((_, Tok::Ne)) => CmpOp::Ne,
            Some((_, Tok::Lt)) => CmpOp::Lt,
            Some((_, Tok::Le)) => CmpOp::Le,
            Some((_, Tok::Gt)) => CmpOp::Gt,
            Some((_, Tok::Ge)) => CmpOp::Ge,
            Some((o, t)) => return perr(*o, format!("expected a comparison operator, found {}", t.describe())),
            None => return perr(self.end, "expected a comparison operator, found end of input"),
        };
        let value = match self.next() {
            Some((_, Tok::Int(n))) => *n,
            Some((o, t)) => {
                return perr(
                    *o,
                    format!("field `{}` compares against an integer, found {}", field.name(), t.describe()),
                )
            }
            None => return perr(self.end, "expected an integer value, found end of input"),
        };
        Ok(Expr::NumCmp { field, op, value })
    }
}

// ------------------------------------------------------------ the query

/// A parsed, ready-to-run query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    expr: Expr,
}

/// One row of the unified model-lake view: catalog metadata joined with
/// tags, branch membership, lineage depth, and per-tier storage cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SetRecord {
    /// The set's id.
    pub id: ModelSetId,
    /// The set's shape.
    pub kind: SetKind,
    /// Number of models in the set.
    pub n_models: usize,
    /// Base set key for derived sets.
    pub base: Option<String>,
    /// Branch label stamped at fork time, if this set is a fork node.
    pub fork_of: Option<String>,
    /// All tags attached to this set, sorted.
    pub tags: Vec<String>,
    /// Names of live branches this set is a node (or head) of, sorted.
    pub branches: Vec<String>,
    /// Lineage depth: recovery hops back to a full save.
    pub depth: usize,
    /// Stored bytes, split by tier.
    pub bytes_stored: TierBytes,
    /// Layer-hash similarity against the query's `similar-to`
    /// reference, when the query used one and this record has a hash
    /// table.
    pub similarity: Option<f64>,
}

/// The result of running a query: matching records plus how the
/// planner got there.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Matching records, sorted by approach then key.
    pub records: Vec<SetRecord>,
    /// How many catalog rows were joined and evaluated (after index
    /// probes narrowed the candidates).
    pub scanned: usize,
    /// Index probes the planner used before the scan (e.g. `tag:prod`).
    pub probes: Vec<String>,
}

impl Query {
    /// Parse a query expression. Errors carry the byte offset of the
    /// offending token.
    pub fn parse(input: &str) -> std::result::Result<Query, ParseError> {
        let toks = lex(input)?;
        let mut p = Parser { toks: &toks, pos: 0, end: input.len() };
        let expr = p.expr()?;
        if let Some((off, t)) = p.peek() {
            return perr(*off, format!("trailing input: found {}", t.describe()));
        }
        Ok(Query { expr })
    }

    /// Wrap an already-built AST.
    pub fn from_expr(expr: Expr) -> Query {
        Query { expr }
    }

    /// The parsed expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Run the query: probe tag/branch indexes for top-level
    /// conjuncts, fetch the candidates they name (or, without a probe,
    /// list the catalog), join the unified record view, and evaluate
    /// the expression per record.
    pub fn run(&self, env: &ManagementEnv) -> Result<QueryOutput> {
        run_expr(env, &self.expr)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.expr.fmt(f)
    }
}

/// Parse and run in one step — the single entry point the CLI, the
/// fleet frontend, and the obs HTTP handler all share. Parse failures
/// surface as [`Error::Invalid`] with the byte offset in the message.
pub fn run(env: &ManagementEnv, input: &str) -> Result<QueryOutput> {
    let q = Query::parse(input).map_err(|e| Error::invalid(e.to_string()))?;
    q.run(env)
}

// ------------------------------------------------------------- planner

fn conjuncts<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::And(a, b) => {
            conjuncts(a, out);
            conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// Candidate ids from index probes, or `None` when no probe applies
/// (full scan). An empty set means the probes proved nothing matches.
struct Plan {
    candidates: Option<HashSet<ModelSetId>>,
    probes: Vec<String>,
}

fn plan(env: &ManagementEnv, expr: &Expr) -> Result<Plan> {
    let mut top = Vec::new();
    conjuncts(expr, &mut top);
    let mut candidates: Option<HashSet<ModelSetId>> = None;
    let mut probes = Vec::new();
    let mut narrow = |ids: HashSet<ModelSetId>, probe: String| {
        candidates = Some(match candidates.take() {
            None => ids,
            Some(prev) => prev.intersection(&ids).cloned().collect(),
        });
        probes.push(probe);
    };
    for c in top {
        match c {
            Expr::Tag(t) => {
                let ids = tags::find_by_tag(env, t)?.into_iter().collect();
                narrow(ids, format!("tag:{t}"));
            }
            Expr::Branch(name) => {
                let ids = match branch::branch_by_name(env, name) {
                    Ok(b) => {
                        let node = |key: &String| ModelSetId {
                            approach: b.head.approach.clone(),
                            key: key.clone(),
                        };
                        b.nodes.iter().chain([&b.head.key]).map(node).collect()
                    }
                    // An unknown branch matches nothing; that is an
                    // empty result, not a query failure.
                    Err(_) => HashSet::new(),
                };
                narrow(ids, format!("branch:{name}"));
            }
            _ => {}
        }
    }
    Ok(Plan { candidates, probes })
}

// ---------------------------------------------------------------- join

/// What the expression needs joined beyond the catalog row.
#[derive(Default)]
struct Needs {
    similar_refs: Vec<ModelSetId>,
}

fn collect_needs(expr: &Expr, needs: &mut Needs) {
    match expr {
        Expr::Not(e) => collect_needs(e, needs),
        Expr::And(a, b) | Expr::Or(a, b) => {
            collect_needs(a, needs);
            collect_needs(b, needs);
        }
        Expr::SimilarTo(id, _) if !needs.similar_refs.contains(id) => {
            needs.similar_refs.push(id.clone());
        }
        _ => {}
    }
}

/// All tags in the environment, grouped by set id string
/// ("approach:key"), each list sorted and deduped — one document scan
/// instead of one per record.
fn all_tags(env: &ManagementEnv) -> Result<HashMap<String, Vec<String>>> {
    let mut map: HashMap<String, Vec<String>> = HashMap::new();
    env.docs().visit(tags::TAGS_COLLECTION, |_, doc| {
        let field = |name| doc.get(name).and_then(Value::as_str);
        if let (Some(set), Some(tag)) = (field("set"), field("tag")) {
            map.entry(set.into()).or_default().push(tag.into());
        }
        true
    })?;
    for v in map.values_mut() {
        v.sort();
        v.dedup();
    }
    Ok(map)
}

/// Branch membership: set id string -> sorted branch names.
fn branch_membership(env: &ManagementEnv) -> Result<HashMap<String, Vec<String>>> {
    let mut map: HashMap<String, Vec<String>> = HashMap::new();
    for b in branch::branches(env)? {
        let mut keys: Vec<&String> = b.nodes.iter().collect();
        keys.push(&b.head.key);
        for k in keys {
            map.entry(format!("{}:{}", b.head.approach, k))
                .or_default()
                .push(b.name.clone());
        }
    }
    for v in map.values_mut() {
        v.sort();
        v.dedup();
    }
    Ok(map)
}

/// Lineage depth and ancestor sets, derived from the catalog's own
/// base links (no extra document reads when the rows are the whole
/// catalogue). Cycle-safe: a walk longer than the population is
/// truncated.
struct LineageIndex {
    // key -> base key, per approach-scoped id string.
    base: HashMap<String, String>,
}

impl LineageIndex {
    fn build(summaries: &[catalog::SetSummary]) -> LineageIndex {
        let mut base = HashMap::new();
        for s in summaries {
            if let Some(b) = &s.base {
                base.insert(s.id.to_string(), format!("{}:{}", s.id.approach, b));
            }
        }
        LineageIndex { base }
    }

    /// Add the links of `summaries`' ancestors, for rows that were
    /// fetched by id and so are not the whole catalogue: one by-ids find
    /// per chain level of all rows together, then one commit lookup for
    /// every ancestor found, so the store round-trips follow the deepest
    /// chain (its depth, plus one) and not the number of rows.
    ///
    /// As in [`LineageIndex::build`] over the whole catalogue, a link
    /// exists exactly for a catalogued derived set: a walk that steps
    /// onto debris (an uncommitted or deleted base) counts that step
    /// and stops there.
    fn fetch_ancestors(
        &mut self,
        env: &ManagementEnv,
        summaries: &[catalog::SetSummary],
    ) -> Result<()> {
        // Sets whose document is at hand or being fetched.
        let mut seen: HashSet<(String, String)> = summaries
            .iter()
            .map(|s| (s.id.approach.clone(), s.id.key.clone()))
            .collect();
        let mut level: HashSet<(String, String)> = summaries
            .iter()
            .filter_map(|s| Some((s.id.approach.clone(), s.base.clone()?)))
            .filter(|parent| seen.insert(parent.clone()))
            .collect();
        // Ancestors whose document names a base, and that base's key.
        let mut derived: Vec<(ModelSetId, String)> = Vec::new();
        while !level.is_empty() {
            let docs = catalog::set_docs(env, &level)?;
            level.clear();
            for (id, doc) in docs {
                let Some(base) = catalog::base_of(&doc) else {
                    continue;
                };
                let parent = (id.approach.clone(), base.clone());
                if seen.insert(parent.clone()) {
                    level.insert(parent);
                }
                derived.push((id, base));
            }
        }
        // An uncommitted ancestor is debris: the walk stops on it.
        let committed = commit::committed_among(env, derived.iter().map(|(id, _)| id))?;
        for (id, base) in derived {
            if committed.contains(&(id.approach.clone(), id.key.clone())) {
                self.base
                    .insert(id.to_string(), format!("{}:{}", id.approach, base));
            }
        }
        Ok(())
    }

    fn depth(&self, id: &ModelSetId) -> usize {
        let start = id.to_string();
        let mut cur = &start;
        let mut d = 0;
        while let Some(next) = self.base.get(cur) {
            d += 1;
            if d > self.base.len() {
                break; // cycle in damaged metadata; stop counting
            }
            cur = next;
        }
        d
    }

    fn descends_from(&self, id: &ModelSetId, ancestor: &ModelSetId) -> bool {
        let (start, target) = (id.to_string(), ancestor.to_string());
        let mut cur = &start;
        let mut hops = 0;
        while let Some(next) = self.base.get(cur) {
            hops += 1;
            if hops > self.base.len() {
                return false;
            }
            if *next == target {
                return true;
            }
            cur = next;
        }
        false
    }
}

/// Flattened layer-hash multiset of one set, loaded from the Update
/// approach's hash-table blobs. `None` when the set has no stored
/// table (other approaches, or a damaged blob).
fn hash_multiset(env: &ManagementEnv, id: &ModelSetId) -> Option<HashMap<u64, u64>> {
    if id.approach != "update" {
        return None;
    }
    let doc_id = common::doc_id_of(id).ok()?;
    let rows = UpdateSaver::read_hash_table(env, doc_id).ok()?;
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for row in &rows {
        for &h in row {
            *counts.entry(h).or_default() += 1;
        }
    }
    Some(counts)
}

/// Fraction of layer hashes two sets share: multiset intersection over
/// the larger multiset. 1.0 means identical layer content; symmetric.
fn hash_similarity(a: &HashMap<u64, u64>, b: &HashMap<u64, u64>) -> f64 {
    let total_a: u64 = a.values().sum();
    let total_b: u64 = b.values().sum();
    if total_a == 0 || total_b == 0 {
        return 0.0;
    }
    let shared: u64 = a
        .iter()
        .map(|(h, &ca)| ca.min(b.get(h).copied().unwrap_or(0)))
        .sum();
    shared as f64 / total_a.max(total_b) as f64
}

// ---------------------------------------------------------------- eval

struct EvalCtx<'e> {
    env: &'e ManagementEnv,
    lineage: LineageIndex,
    // Id string -> its multiset, references and candidates alike: each
    // hash table is read at most once per query.
    hashes: HashMap<String, Option<HashMap<u64, u64>>>,
}

impl<'e> EvalCtx<'e> {
    fn hashes_of(&mut self, id: &ModelSetId) -> Option<&HashMap<u64, u64>> {
        let env = self.env;
        self.hashes
            .entry(id.to_string())
            .or_insert_with(|| hash_multiset(env, id))
            .as_ref()
    }

    fn similarity(&mut self, rec_id: &ModelSetId, reference: &ModelSetId) -> Option<f64> {
        self.hashes_of(rec_id)?;
        let cand = self.hashes.get(&rec_id.to_string())?.as_ref()?;
        let ref_set = self.hashes.get(&reference.to_string())?.as_ref()?;
        Some(hash_similarity(ref_set, cand))
    }
}

fn eval(expr: &Expr, rec: &SetRecord, ctx: &mut EvalCtx<'_>) -> bool {
    match expr {
        Expr::True => true,
        Expr::False => false,
        Expr::Not(e) => !eval(e, rec, ctx),
        Expr::And(a, b) => eval(a, rec, ctx) && eval(b, rec, ctx),
        Expr::Or(a, b) => eval(a, rec, ctx) || eval(b, rec, ctx),
        Expr::StrCmp { field, negated, value } => {
            let lhs: &str = match field {
                StrField::Kind => rec.kind.as_str(),
                StrField::Approach => &rec.id.approach,
                StrField::Key => &rec.id.key,
                StrField::Base => rec.base.as_deref().unwrap_or("-"),
            };
            (lhs == value) != *negated
        }
        Expr::NumCmp { field, op, value } => {
            let lhs = match field {
                NumField::NModels => rec.n_models as u64,
                NumField::Depth => rec.depth as u64,
                NumField::Bytes => rec.bytes_stored.total,
            };
            op.holds_u64(lhs, *value)
        }
        Expr::Tag(t) => rec.tags.iter().any(|x| x == t),
        Expr::Branch(b) => rec.branches.iter().any(|x| x == b),
        Expr::DescendantOf(id) => ctx.lineage.descends_from(&rec.id, id),
        Expr::SimilarTo(id, t) => ctx.similarity(&rec.id, id).is_some_and(|s| s >= *t),
    }
}

fn run_expr(env: &ManagementEnv, expr: &Expr) -> Result<QueryOutput> {
    let _query = env.obs().span("query");
    let plan = {
        let _span = env.obs().span("plan");
        plan(env, expr)?
    };

    // The rows to evaluate: fetched by id when the probes named
    // candidates, the whole catalogue when none applied. Same rows,
    // same order, either way.
    let summaries = {
        let _span = env.obs().span("catalog");
        match &plan.candidates {
            Some(ids) => catalog::sets_by_id(env, ids)?,
            None => catalog::list_sets(env)?,
        }
    };

    let join = env.obs().span("join");
    let tag_map = all_tags(env)?;
    let branch_map = branch_membership(env)?;
    let mut lineage = LineageIndex::build(&summaries);
    if plan.candidates.is_some() {
        lineage.fetch_ancestors(env, &summaries)?;
    }
    let mut needs = Needs::default();
    collect_needs(expr, &mut needs);
    let mut ctx = EvalCtx {
        env,
        lineage,
        hashes: HashMap::new(),
    };
    for r in &needs.similar_refs {
        if ctx.hashes_of(r).is_none() {
            return Err(Error::invalid(format!(
                "similar-to reference {r} has no layer-hash table \
                 (only committed update-approach sets do)"
            )));
        }
    }
    let first_ref = needs.similar_refs.first();
    drop(join);

    let _span = env.obs().span("eval");
    let mut records = Vec::new();
    for s in &summaries {
        let id_str = s.id.to_string();
        let mut rec = SetRecord {
            id: s.id.clone(),
            kind: s.kind,
            n_models: s.n_models,
            base: s.base.clone(),
            fork_of: s.branch.clone(),
            tags: tag_map.get(&id_str).cloned().unwrap_or_default(),
            branches: branch_map.get(&id_str).cloned().unwrap_or_default(),
            depth: ctx.lineage.depth(&s.id),
            bytes_stored: s.bytes_stored,
            similarity: None,
        };
        if eval(expr, &rec, &mut ctx) {
            if let Some(r) = first_ref {
                rec.similarity = ctx.similarity(&rec.id, r);
            }
            records.push(rec);
        }
    }

    Ok(QueryOutput {
        records,
        scanned: summaries.len(),
        probes: plan.probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approach::{BaselineSaver, ModelSetSaver, UpdateSaver};
    use crate::model_set::{Derivation, ModelSet};
    use mmm_dnn::{Architectures, TrainConfig};
    use mmm_store::LatencyProfile;
    use mmm_util::TempDir;

    fn set(n: usize, seed: u64) -> ModelSet {
        let arch = Architectures::ffnn(6);
        let models = (0..n).map(|i| arch.build(seed + i as u64).export_param_dict()).collect();
        ModelSet::new(arch, models)
    }

    fn parse(s: &str) -> Expr {
        Query::parse(s).unwrap_or_else(|e| panic!("{s}: {e}")).expr.clone()
    }

    #[test]
    fn parser_handles_precedence_and_parens() {
        let e = parse("kind = \"diff\" and n_models >= 100 or tag:prod");
        // `and` binds tighter than `or`.
        assert!(matches!(e, Expr::Or(_, _)));
        let e = parse("kind = \"diff\" and (n_models >= 100 or tag:prod)");
        assert!(matches!(e, Expr::And(_, _)));
        let e = parse("not tag:prod and true");
        assert!(matches!(e, Expr::And(_, _)));
    }

    #[test]
    fn parser_accepts_byte_suffixes() {
        assert_eq!(
            parse("bytes > 50MB"),
            Expr::NumCmp { field: NumField::Bytes, op: CmpOp::Gt, value: 50_000_000 }
        );
        assert_eq!(
            parse("bytes <= 2KiB"),
            Expr::NumCmp { field: NumField::Bytes, op: CmpOp::Le, value: 2048 }
        );
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        let e = Query::parse("kind = ").unwrap_err();
        assert_eq!(e.offset, 7, "{e}");
        let e = Query::parse("n_models >= \"x\"").unwrap_err();
        assert_eq!(e.offset, 12, "{e}");
        let e = Query::parse("kind < \"full\"").unwrap_err();
        assert_eq!(e.offset, 5, "{e}");
        let e = Query::parse("bogus = 3").unwrap_err();
        assert_eq!(e.offset, 0, "{e}");
        let e = Query::parse("tag:prod extra").unwrap_err();
        assert_eq!(e.offset, 9, "{e}");
        let e = Query::parse("similar-to(update:3, 1.5)").unwrap_err();
        assert_eq!(e.offset, 21, "{e}");
        assert!(e.to_string().contains("at byte 21"), "{e}");
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "true",
            "false",
            "not tag:prod",
            "kind = \"diff\" and n_models >= 100 and tag:prod",
            "(tag:a or tag:b) and not (branch:x or bytes > 1000000)",
            "descendant-of(update:0) or similar-to(update:3, 0.9)",
            "descendant-of(mmlib-base:0:3)",
            "base != \"-\" and depth >= 2",
        ] {
            let e = parse(s);
            let printed = e.to_string();
            assert_eq!(parse(&printed), e, "{s} -> {printed}");
        }
    }

    #[test]
    fn query_joins_and_filters() {
        let dir = TempDir::new("mmm-query").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let s0 = set(4, 0);
        let idb = BaselineSaver::new().save_initial(&env, &s0).unwrap();
        let mut u = UpdateSaver::new();
        let id0 = u.save_initial(&env, &s0).unwrap();
        let mut s1 = s0.clone();
        s1.models[0].layers[0].data[0] += 1.0;
        let d = Derivation {
            base: id0.clone(),
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        let id1 = u.save_set(&env, &s1, Some(&d)).unwrap();
        tags::tag_set(&env, &id1, "prod").unwrap();

        // Full scan.
        let out = run(&env, "true").unwrap();
        assert_eq!(out.records.len(), 3);
        assert!(out.probes.is_empty());

        // Typed predicates.
        let out = run(&env, "kind = \"diff\"").unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].id, id1);
        assert_eq!(out.records[0].depth, 1);

        let out = run(&env, "bytes > 0 and approach = \"baseline\"").unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].id, idb);

        // Tag probe narrows the scan.
        let out = run(&env, "tag:prod and kind != \"full\"").unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.scanned, 1, "tag probe should skip non-candidates");
        assert_eq!(out.probes, vec!["tag:prod".to_string()]);

        // Lineage.
        let out = run(&env, &format!("descendant-of({id0})")).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].id, id1);

        // A diff against its base shares most layers.
        let out = run(&env, &format!("similar-to({id0}, 0.5)")).unwrap();
        let ids: Vec<String> = out.records.iter().map(|r| r.id.to_string()).collect();
        assert!(ids.contains(&id0.to_string()), "{ids:?}");
        assert!(ids.contains(&id1.to_string()), "{ids:?}");
        assert!(out.records.iter().all(|r| r.similarity.is_some()));
        // ... but not 100% of them.
        let out = run(&env, &format!("similar-to({id0}, 1) and key != \"{}\"", id0.key)).unwrap();
        assert!(out.records.is_empty(), "{:?}", out.records);

        // Baseline sets have no hash table and never match.
        let out = run(&env, &format!("similar-to({id0}, 0) and approach = \"baseline\"")).unwrap();
        assert!(out.records.is_empty());

        // ... and cannot serve as a reference.
        assert!(run(&env, &format!("similar-to({idb}, 0.5)")).is_err());
    }

    #[test]
    fn similarity_reads_each_hash_table_once() {
        let dir = TempDir::new("mmm-query").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let s0 = set(4, 0);
        BaselineSaver::new().save_initial(&env, &s0).unwrap();
        let mut u = UpdateSaver::new();
        let id0 = u.save_initial(&env, &s0).unwrap();
        let d = Derivation {
            base: id0.clone(),
            train: TrainConfig::regression_default(0),
            updates: vec![],
        };
        let id1 = u.save_set(&env, &s0, Some(&d)).unwrap();
        // The reference is itself a candidate, and the expression asks
        // about it twice: still one read per stored table.
        let expr =
            format!("similar-to({id0}, 0.5) or similar-to({id0}, 0.9) or similar-to({id1}, 1)");
        let (out, m) = env.measure(|| run(&env, &expr).unwrap());
        assert_eq!(out.records.len(), 2);
        assert_eq!(
            m.stats.blob_gets, 2,
            "one read of each of the two hash tables"
        );
    }

    #[test]
    fn unknown_branch_matches_nothing() {
        let dir = TempDir::new("mmm-query").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        BaselineSaver::new().save_initial(&env, &set(2, 3)).unwrap();
        let out = run(&env, "branch:ghost").unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.scanned, 0);
        assert_eq!(out.probes, vec!["branch:ghost".to_string()]);
    }

    #[test]
    fn parse_failure_is_invalid_error() {
        let dir = TempDir::new("mmm-query").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        let err = run(&env, "kind =").unwrap_err();
        assert!(err.to_string().contains("at byte"), "{err}");
    }
}
