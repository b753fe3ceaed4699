//! Structural gate-level Verilog frontend: tokenizer, parser, AST,
//! serializer and a lowering pass into [`Circuit`].
//!
//! The supported subset is the shape synthesized ITC/ISCAS-style
//! netlists come in: one `module` with a port header, `input` /
//! `output` / `wire` declarations of scalar nets, and positional
//! instances of the Verilog gate primitives (`and`, `nand`, `or`,
//! `nor`, `xor`, `xnor`, `buf`, `not`) plus two cells — `dff`, a D
//! flip-flop on the single implicit clock (`(q, d)` port order), and
//! `mux2`, a 2:1 multiplexer (`(y, sel, a, b)`: `y = sel ? b : a`)
//! matching [`GateKind::Mux`]. Instance names are optional, comments
//! (`//`, `/* */`) and escaped identifiers (`\any-chars `) are
//! understood, and the serializer emits exactly this subset back, so
//! `parse ∘ to_source` is the identity on the AST.
//!
//! Errors are structured values, never panics: [`ParseError`] for
//! syntax (with line/column), [`LowerError`] for semantics — undeclared
//! nets, port-arity mismatches, duplicate drivers, combinational
//! cycles. The last two come from [`Circuit::check`], so lowered
//! circuits always have the acyclic single-driver shape every simulator
//! path and the time-expansion transform ([`crate::expand`]) require.
//!
//! # Examples
//!
//! ```
//! use dsim::verilog::parse;
//!
//! let m = parse(
//!     "module majority (a, b, c, y);
//!        input a, b, c;
//!        output y;
//!        wire ab, bc, ca;
//!        and g0 (ab, a, b);
//!        and g1 (bc, b, c);
//!        and g2 (ca, c, a);
//!        or  g3 (y, ab, bc, ca);
//!      endmodule",
//! )
//! .unwrap();
//! let c = m.lower().unwrap();
//! assert_eq!(c.gate_count(), 4);
//! assert_eq!(m, parse(&m.to_source()).unwrap());
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::circuit::{Circuit, GateKind, NetId, StructureError};

/// Cell kinds the frontend understands: the Verilog gate primitives
/// plus the `dff` and `mux2` library cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// `buf (y, a)`.
    Buf,
    /// `not (y, a)`.
    Not,
    /// `and (y, a, b, ...)`.
    And,
    /// `nand (y, a, b, ...)`.
    Nand,
    /// `or (y, a, b, ...)`.
    Or,
    /// `nor (y, a, b, ...)`.
    Nor,
    /// `xor (y, a, b)`.
    Xor,
    /// `xnor (y, a, b)`.
    Xnor,
    /// `mux2 (y, sel, a, b)`: `y = sel ? b : a`.
    Mux2,
    /// `dff (q, d)`: D flip-flop on the single implicit clock.
    Dff,
}

impl CellKind {
    /// Every kind, in a fixed order (used by generators and tests).
    pub const ALL: [CellKind; 10] = [
        CellKind::Buf,
        CellKind::Not,
        CellKind::And,
        CellKind::Nand,
        CellKind::Or,
        CellKind::Nor,
        CellKind::Xor,
        CellKind::Xnor,
        CellKind::Mux2,
        CellKind::Dff,
    ];

    /// The source keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            CellKind::Buf => "buf",
            CellKind::Not => "not",
            CellKind::And => "and",
            CellKind::Nand => "nand",
            CellKind::Or => "or",
            CellKind::Nor => "nor",
            CellKind::Xor => "xor",
            CellKind::Xnor => "xnor",
            CellKind::Mux2 => "mux2",
            CellKind::Dff => "dff",
        }
    }

    fn from_keyword(word: &str) -> Option<CellKind> {
        CellKind::ALL.into_iter().find(|k| k.keyword() == word)
    }

    /// Whether `n` total connections (output first) are legal.
    fn arity_ok(self, n: usize) -> bool {
        match self {
            CellKind::Buf | CellKind::Not | CellKind::Dff => n == 2,
            CellKind::And | CellKind::Nand | CellKind::Or | CellKind::Nor => n >= 3,
            CellKind::Xor | CellKind::Xnor => n == 3,
            CellKind::Mux2 => n == 4,
        }
    }

    /// Human-readable arity for diagnostics.
    fn arity_want(self) -> &'static str {
        match self {
            CellKind::Buf | CellKind::Not | CellKind::Dff => "2",
            CellKind::And | CellKind::Nand | CellKind::Or | CellKind::Nor => "3 or more",
            CellKind::Xor | CellKind::Xnor => "3",
            CellKind::Mux2 => "4",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One cell instance: kind, optional instance name and the positional
/// connection list (output net first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// What the instance is.
    pub kind: CellKind,
    /// Instance name, if the source gave one.
    pub instance: Option<String>,
    /// Connected nets, output first.
    pub ports: Vec<String>,
}

/// The AST of one structural module. Equality is name-based, so two
/// modules compare equal exactly when they describe the same netlist —
/// independent of any [`NetId`] numbering a lowering would assign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Port header, in source order.
    pub ports: Vec<String>,
    /// `input` declarations, in source order.
    pub inputs: Vec<String>,
    /// `output` declarations, in source order.
    pub outputs: Vec<String>,
    /// `wire` declarations, in source order.
    pub wires: Vec<String>,
    /// Cell instances, in source order.
    pub cells: Vec<Cell>,
}

/// Why tokenizing/parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A byte the tokenizer has no rule for.
    UnexpectedChar(char),
    /// `/*` with no closing `*/`.
    UnterminatedComment,
    /// `\escaped-identifier` with no terminating whitespace.
    UnterminatedEscape,
    /// The parser wanted one thing and saw another.
    Expected {
        /// What the grammar required here.
        wanted: &'static str,
        /// What the source provided instead.
        found: String,
    },
    /// An instance of a cell kind the frontend does not know.
    UnknownCell(String),
}

/// A syntax error with its source position (1-based line and column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: ", self.line, self.col)?;
        match &self.kind {
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            ParseErrorKind::UnterminatedComment => write!(f, "unterminated block comment"),
            ParseErrorKind::UnterminatedEscape => {
                write!(f, "unterminated escaped identifier")
            }
            ParseErrorKind::Expected { wanted, found } => {
                write!(f, "expected {wanted}, found {found}")
            }
            ParseErrorKind::UnknownCell(name) => {
                write!(
                    f,
                    "unknown cell kind '{name}' (not a gate primitive, dff or mux2)"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Why lowering an otherwise well-formed [`Module`] into a [`Circuit`]
/// failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The same net name declared twice (across `input`/`output`/`wire`).
    DuplicateDeclaration {
        /// The offending name.
        net: String,
    },
    /// A header port with no `input`/`output` declaration.
    UndirectedPort {
        /// The offending port.
        port: String,
    },
    /// An `input`/`output` declaration missing from the port header.
    NotAPort {
        /// The offending name.
        net: String,
    },
    /// A cell connection references a name no declaration introduced.
    UndeclaredNet {
        /// The instance (kind plus name when given).
        cell: String,
        /// The unknown net.
        net: String,
    },
    /// A cell has the wrong number of connections for its kind.
    PortArity {
        /// The instance (kind plus name when given).
        cell: String,
        /// Connections the source gave.
        got: usize,
        /// Connections the kind takes.
        want: &'static str,
    },
    /// Two drivers contend for one net (two cell outputs, or a cell
    /// output on an `input` port or a `dff` q).
    DuplicateDriver {
        /// The multiply-driven net.
        net: String,
    },
    /// The combinational gates form a cycle (a loop not broken by a
    /// `dff`).
    CombinationalCycle {
        /// One net on the cycle.
        net: String,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::DuplicateDeclaration { net } => {
                write!(f, "net '{net}' declared more than once")
            }
            LowerError::UndirectedPort { port } => {
                write!(f, "port '{port}' has no input or output declaration")
            }
            LowerError::NotAPort { net } => {
                write!(
                    f,
                    "'{net}' declared input/output but missing from the port list"
                )
            }
            LowerError::UndeclaredNet { cell, net } => {
                write!(f, "cell {cell}: connection to undeclared net '{net}'")
            }
            LowerError::PortArity { cell, got, want } => {
                write!(f, "cell {cell}: {got} connections, takes {want}")
            }
            LowerError::DuplicateDriver { net } => {
                write!(f, "net '{net}' has more than one driver")
            }
            LowerError::CombinationalCycle { net } => {
                write!(f, "combinational cycle through net '{net}'")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Either frontend failure: syntax or semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerilogError {
    /// Tokenizer/parser failure.
    Parse(ParseError),
    /// Lowering failure.
    Lower(LowerError),
}

impl fmt::Display for VerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerilogError::Parse(e) => write!(f, "parse error: {e}"),
            VerilogError::Lower(e) => write!(f, "lowering error: {e}"),
        }
    }
}

impl std::error::Error for VerilogError {}

impl From<ParseError> for VerilogError {
    fn from(e: ParseError) -> VerilogError {
        VerilogError::Parse(e)
    }
}

impl From<LowerError> for VerilogError {
    fn from(e: LowerError) -> VerilogError {
        VerilogError::Lower(e)
    }
}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    LParen,
    RParen,
    Comma,
    Semi,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "'{s}'"),
            Tok::LParen => write!(f, "'('"),
            Tok::RParen => write!(f, "')'"),
            Tok::Comma => write!(f, "','"),
            Tok::Semi => write!(f, "';'"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// Tokenizes the whole source, attaching positions. Returns every token
/// or the first lexical error — it never panics, whatever the bytes.
fn tokenize(src: &str) -> Result<Vec<(Tok, usize, usize)>, ParseError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut chars = src.chars().peekable();
    let err = |kind, line, col| Err(ParseError { kind, line, col });
    while let Some(&c) = chars.peek() {
        let (tline, tcol) = (line, col);
        let bump = |c: char, line: &mut usize, col: &mut usize| {
            if c == '\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
        };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                chars.next();
                bump(c, &mut line, &mut col);
            }
            '/' => {
                chars.next();
                bump(c, &mut line, &mut col);
                match chars.peek() {
                    Some('/') => {
                        for c in chars.by_ref() {
                            bump(c, &mut line, &mut col);
                            if c == '\n' {
                                break;
                            }
                        }
                    }
                    Some('*') => {
                        chars.next();
                        bump('*', &mut line, &mut col);
                        let mut closed = false;
                        let mut prev = ' ';
                        for c in chars.by_ref() {
                            bump(c, &mut line, &mut col);
                            if prev == '*' && c == '/' {
                                closed = true;
                                break;
                            }
                            prev = c;
                        }
                        if !closed {
                            return err(ParseErrorKind::UnterminatedComment, tline, tcol);
                        }
                    }
                    _ => return err(ParseErrorKind::UnexpectedChar('/'), tline, tcol),
                }
            }
            '(' | ')' | ',' | ';' => {
                chars.next();
                bump(c, &mut line, &mut col);
                let tok = match c {
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    ',' => Tok::Comma,
                    _ => Tok::Semi,
                };
                toks.push((tok, tline, tcol));
            }
            '\\' => {
                // Escaped identifier: everything to the next whitespace.
                chars.next();
                bump(c, &mut line, &mut col);
                let mut name = String::new();
                let mut terminated = false;
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() {
                        terminated = true;
                        break;
                    }
                    name.push(c);
                    chars.next();
                    bump(c, &mut line, &mut col);
                }
                if !terminated || name.is_empty() {
                    return err(ParseErrorKind::UnterminatedEscape, tline, tcol);
                }
                toks.push((Tok::Ident(name), tline, tcol));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut name = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
                        name.push(c);
                        chars.next();
                        bump(c, &mut line, &mut col);
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Ident(name), tline, tcol));
            }
            other => return err(ParseErrorKind::UnexpectedChar(other), tline, tcol),
        }
    }
    toks.push((Tok::Eof, line, col));
    Ok(toks)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    toks: Vec<(Tok, usize, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> (usize, usize) {
        let (_, l, c) = self.toks[self.pos];
        (l, c)
    }

    fn expected(&self, wanted: &'static str) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            kind: ParseErrorKind::Expected {
                wanted,
                found: self.peek().to_string(),
            },
            line,
            col,
        }
    }

    fn eat_keyword(&mut self, word: &'static str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == word => {
                self.next();
                Ok(())
            }
            _ => Err(self.expected(word)),
        }
    }

    fn eat(&mut self, tok: Tok, wanted: &'static str) -> Result<(), ParseError> {
        if *self.peek() == tok {
            self.next();
            Ok(())
        } else {
            Err(self.expected(wanted))
        }
    }

    fn ident(&mut self, wanted: &'static str) -> Result<String, ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                let s = s.clone();
                self.next();
                Ok(s)
            }
            _ => Err(self.expected(wanted)),
        }
    }

    /// `name (, name)*` — at least one.
    fn name_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut names = vec![self.ident("an identifier")?];
        while *self.peek() == Tok::Comma {
            self.next();
            names.push(self.ident("an identifier")?);
        }
        Ok(names)
    }

    fn module(&mut self) -> Result<Module, ParseError> {
        self.eat_keyword("module")?;
        let name = self.ident("a module name")?;
        self.eat(Tok::LParen, "'('")?;
        let ports = if *self.peek() == Tok::RParen {
            Vec::new()
        } else {
            self.name_list()?
        };
        self.eat(Tok::RParen, "')'")?;
        self.eat(Tok::Semi, "';'")?;

        let mut m = Module {
            name,
            ports,
            inputs: Vec::new(),
            outputs: Vec::new(),
            wires: Vec::new(),
            cells: Vec::new(),
        };

        loop {
            let (line, col) = self.here();
            match self.peek().clone() {
                Tok::Ident(word) if word == "endmodule" => {
                    self.next();
                    break;
                }
                Tok::Ident(word) if word == "input" || word == "output" || word == "wire" => {
                    self.next();
                    let names = self.name_list()?;
                    self.eat(Tok::Semi, "';'")?;
                    match word.as_str() {
                        "input" => m.inputs.extend(names),
                        "output" => m.outputs.extend(names),
                        _ => m.wires.extend(names),
                    }
                }
                Tok::Ident(word) => {
                    let Some(kind) = CellKind::from_keyword(&word) else {
                        return Err(ParseError {
                            kind: ParseErrorKind::UnknownCell(word),
                            line,
                            col,
                        });
                    };
                    self.next();
                    let instance = match self.peek() {
                        Tok::Ident(_) => Some(self.ident("an instance name")?),
                        _ => None,
                    };
                    self.eat(Tok::LParen, "'('")?;
                    let ports = if *self.peek() == Tok::RParen {
                        Vec::new()
                    } else {
                        self.name_list()?
                    };
                    self.eat(Tok::RParen, "')'")?;
                    self.eat(Tok::Semi, "';'")?;
                    m.cells.push(Cell {
                        kind,
                        instance,
                        ports,
                    });
                }
                _ => return Err(self.expected("a declaration, an instance or 'endmodule'")),
            }
        }
        Ok(m)
    }
}

/// Parses one structural module from source. Structured errors, never a
/// panic — arbitrary bytes are answered with a [`ParseError`].
pub fn parse(src: &str) -> Result<Module, ParseError> {
    let mut p = Parser {
        toks: tokenize(src)?,
        pos: 0,
    };
    let m = p.module()?;
    match p.peek() {
        Tok::Eof => Ok(m),
        _ => Err(p.expected("end of input")),
    }
}

// ---------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------

/// Whether `name` can be emitted as a plain identifier (otherwise the
/// serializer escapes it).
fn plain_ident(name: &str) -> bool {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    head_ok
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
        && !matches!(name, "module" | "endmodule" | "input" | "output" | "wire")
        && CellKind::from_keyword(name).is_none()
}

fn emit_ident(out: &mut String, name: &str) {
    if plain_ident(name) {
        out.push_str(name);
    } else {
        out.push('\\');
        out.push_str(name);
        out.push(' ');
    }
}

fn emit_list(out: &mut String, names: &[String]) {
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        emit_ident(out, n);
    }
}

impl Module {
    /// Serializes the module back to source in the frontend's canonical
    /// layout. `parse(&m.to_source())` reproduces `m` exactly.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        out.push_str("module ");
        emit_ident(&mut out, &self.name);
        out.push_str(" (");
        emit_list(&mut out, &self.ports);
        out.push_str(");\n");
        for (dir, names) in [
            ("input", &self.inputs),
            ("output", &self.outputs),
            ("wire", &self.wires),
        ] {
            if !names.is_empty() {
                out.push_str("  ");
                out.push_str(dir);
                out.push(' ');
                emit_list(&mut out, names);
                out.push_str(";\n");
            }
        }
        for cell in &self.cells {
            out.push_str("  ");
            out.push_str(cell.kind.keyword());
            if let Some(inst) = &cell.instance {
                out.push(' ');
                emit_ident(&mut out, inst);
            }
            out.push_str(" (");
            emit_list(&mut out, &cell.ports);
            out.push_str(");\n");
        }
        out.push_str("endmodule\n");
        out
    }

    /// Exports a [`Circuit`] as a module. Net names are taken from the
    /// circuit where unique and made unique (suffixing `_n<id>`)
    /// otherwise; gates become primitive instances `g<i>`, flip-flops
    /// `ff<i>` and an output net that is also a primary input (or listed
    /// twice) is aliased through a `buf`.
    pub fn from_circuit(c: &Circuit) -> Module {
        // Unique name per net, deterministic: first holder keeps the raw
        // name, later clashes grow an `_n<id>` suffix until free.
        let mut taken: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut names: Vec<String> = Vec::with_capacity(c.net_count());
        for i in 0..c.net_count() {
            let raw = c.net_name(NetId(i));
            let mut name = if raw.is_empty() {
                "net".to_string()
            } else {
                raw.to_string()
            };
            while !taken.insert(name.clone()) {
                name.push_str(&format!("_n{i}"));
            }
            names.push(name);
        }

        let is_input: Vec<bool> = {
            let mut v = vec![false; c.net_count()];
            for &pi in c.inputs() {
                v[pi.0] = true;
            }
            v
        };

        let mut m = Module {
            name: c.name().to_string(),
            ports: Vec::new(),
            inputs: c.inputs().iter().map(|&n| names[n.0].clone()).collect(),
            outputs: Vec::new(),
            wires: Vec::new(),
            cells: Vec::new(),
        };

        // Output list: alias nets that cannot legally be outputs (a PI,
        // or a net already emitted as an output) through a buffer.
        let mut emitted_output = vec![false; c.net_count()];
        let mut aliases: Vec<(String, NetId)> = Vec::new();
        for (k, &po) in c.outputs().iter().enumerate() {
            if is_input[po.0] || emitted_output[po.0] {
                let mut alias = format!("{}_po{k}", names[po.0]);
                while !taken.insert(alias.clone()) {
                    alias.push('_');
                }
                aliases.push((alias.clone(), po));
                m.outputs.push(alias);
            } else {
                emitted_output[po.0] = true;
                m.outputs.push(names[po.0].clone());
            }
        }
        m.wires = (0..c.net_count())
            .filter(|&i| !is_input[i] && !emitted_output[i])
            .map(|i| names[i].clone())
            .collect();
        m.ports = m.inputs.iter().chain(&m.outputs).cloned().collect();

        for (i, g) in c.gates().iter().enumerate() {
            let kind = match g.kind() {
                GateKind::Buf => CellKind::Buf,
                GateKind::Not => CellKind::Not,
                GateKind::And => CellKind::And,
                GateKind::Nand => CellKind::Nand,
                GateKind::Or => CellKind::Or,
                GateKind::Nor => CellKind::Nor,
                GateKind::Xor => CellKind::Xor,
                GateKind::Xnor => CellKind::Xnor,
                GateKind::Mux => CellKind::Mux2,
            };
            let mut conns = vec![names[g.output().0].clone()];
            conns.extend(g.inputs().iter().map(|n| names[n.0].clone()));
            m.cells.push(Cell {
                kind,
                instance: Some(format!("g{i}")),
                ports: conns,
            });
        }
        for (i, ff) in c.dffs().iter().enumerate() {
            m.cells.push(Cell {
                kind: CellKind::Dff,
                instance: Some(format!("ff{i}")),
                ports: vec![names[ff.q.0].clone(), names[ff.d.0].clone()],
            });
        }
        for (i, (alias, src)) in aliases.iter().enumerate() {
            m.cells.push(Cell {
                kind: CellKind::Buf,
                instance: Some(format!("po{i}")),
                ports: vec![alias.clone(), names[src.0].clone()],
            });
        }
        m
    }

    /// Lowers the module into a [`Circuit`].
    ///
    /// Net ids are assigned in declaration order — inputs, then outputs,
    /// then wires — so lowering is deterministic. Every structural
    /// illegality is a [`LowerError`]: undeclared nets, bad cell
    /// arities, duplicate drivers (including a cell output contending
    /// with an `input` port or a `dff` q) and combinational cycles.
    pub fn lower(&self) -> Result<Circuit, LowerError> {
        let mut c = Circuit::new(self.name.clone());
        let mut ids: HashMap<&str, NetId> = HashMap::new();

        let add = |c: &mut Circuit,
                   ids: &HashMap<&str, NetId>,
                   name: &str,
                   input: bool|
         -> Result<NetId, LowerError> {
            if ids.contains_key(name) {
                return Err(LowerError::DuplicateDeclaration {
                    net: name.to_string(),
                });
            }
            let id = if input {
                c.input(name.to_string())
            } else {
                c.net(name.to_string())
            };
            Ok(id)
        };
        for name in &self.inputs {
            let id = add(&mut c, &ids, name, true)?;
            ids.insert(name, id);
        }
        for name in &self.outputs {
            let id = add(&mut c, &ids, name, false)?;
            ids.insert(name, id);
        }
        for name in &self.wires {
            let id = add(&mut c, &ids, name, false)?;
            ids.insert(name, id);
        }

        // Port header ↔ direction declarations must agree.
        for port in &self.ports {
            if !self.inputs.contains(port) && !self.outputs.contains(port) {
                return Err(LowerError::UndirectedPort { port: port.clone() });
            }
        }
        for name in self.inputs.iter().chain(&self.outputs) {
            if !self.ports.contains(name) {
                return Err(LowerError::NotAPort { net: name.clone() });
            }
        }

        for cell in &self.cells {
            let label = match &cell.instance {
                Some(inst) => format!("{} {}", cell.kind, inst),
                None => cell.kind.to_string(),
            };
            if !cell.kind.arity_ok(cell.ports.len()) {
                return Err(LowerError::PortArity {
                    cell: label,
                    got: cell.ports.len(),
                    want: cell.kind.arity_want(),
                });
            }
            let mut nets = Vec::with_capacity(cell.ports.len());
            for name in &cell.ports {
                match ids.get(name.as_str()) {
                    Some(&id) => nets.push(id),
                    None => {
                        return Err(LowerError::UndeclaredNet {
                            cell: label,
                            net: name.clone(),
                        })
                    }
                }
            }
            match cell.kind {
                CellKind::Dff => {
                    c.dff(nets[1], nets[0]);
                }
                CellKind::Mux2 => {
                    // Source order (y, sel, a, b); GateKind::Mux reads
                    // [sel, lo, hi] with sel=0 selecting lo.
                    c.gate(GateKind::Mux, &[nets[1], nets[2], nets[3]], nets[0]);
                }
                other => {
                    let kind = match other {
                        CellKind::Buf => GateKind::Buf,
                        CellKind::Not => GateKind::Not,
                        CellKind::And => GateKind::And,
                        CellKind::Nand => GateKind::Nand,
                        CellKind::Or => GateKind::Or,
                        CellKind::Nor => GateKind::Nor,
                        CellKind::Xor => GateKind::Xor,
                        CellKind::Xnor => GateKind::Xnor,
                        CellKind::Mux2 | CellKind::Dff => unreachable!(),
                    };
                    c.gate(kind, &nets[1..], nets[0]);
                }
            }
        }

        for name in &self.outputs {
            c.output(ids[name.as_str()]);
        }

        // One driver per net (inputs and dff q's count as drivers) and no
        // combinational cycle: the circuit's own structure check.
        match c.check() {
            Ok(()) => Ok(c),
            Err(StructureError::MultipleDrivers { net }) => Err(LowerError::DuplicateDriver {
                net: c.net_name(net).to_string(),
            }),
            Err(StructureError::CombinationalCycle { net }) => {
                Err(LowerError::CombinationalCycle {
                    net: c.net_name(net).to_string(),
                })
            }
        }
    }
}

/// Parses and lowers in one step: source text to [`Circuit`].
pub fn compile(src: &str) -> Result<Circuit, VerilogError> {
    Ok(parse(src)?.lower()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::random_vectors;
    use crate::scan::apply_vector;

    const MAJORITY: &str = "module majority (a, b, c, y);
       input a, b, c;
       output y;
       wire ab, bc, ca;
       and g0 (ab, a, b);
       and g1 (bc, b, c);
       and g2 (ca, c, a);
       or  g3 (y, ab, bc, ca);
     endmodule";

    #[test]
    fn parse_and_lower_majority() {
        let c = compile(MAJORITY).unwrap();
        assert_eq!(c.inputs().len(), 3);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.dff_count(), 0);
        assert_eq!(c.name(), "majority");
    }

    #[test]
    fn comments_and_escaped_identifiers() {
        let src = "// a comment\nmodule m (\\a-b , y); /* block\ncomment */\n\
                   input \\a-b ;\n output y;\n not (y, \\a-b );\nendmodule";
        let m = parse(src).unwrap();
        assert_eq!(m.inputs, vec!["a-b"]);
        let back = parse(&m.to_source()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn dff_and_mux_lower_to_circuit_primitives() {
        let src = "module seq (d, sel, q);
           input d, sel;
           output q;
           wire pick, state;
           mux2 m0 (pick, sel, d, state);
           dff ff0 (state, pick);
           buf b0 (q, state);
         endmodule";
        let c = compile(src).unwrap();
        assert_eq!(c.dff_count(), 1);
        assert_eq!(c.gates()[0].kind(), GateKind::Mux);
        // Functional spot-check: sel=1 holds state, sel=0 loads d.
        let v = random_vectors(&c, 8, 3);
        for vec in &v {
            // Never panics on a well-formed lowering.
            apply_vector(&c, &mut crate::circuit::SimState::for_circuit(&c), vec);
        }
    }

    #[test]
    fn roundtrip_via_from_circuit() {
        let c = compile(MAJORITY).unwrap();
        let m = Module::from_circuit(&c);
        let c2 = parse(&m.to_source()).unwrap().lower().unwrap();
        assert_eq!(c, c2);
    }

    fn parse_err(src: &str) -> String {
        parse(src).unwrap_err().to_string()
    }

    fn lower_err(src: &str) -> String {
        parse(src).unwrap().lower().unwrap_err().to_string()
    }

    #[test]
    fn parse_error_snapshots() {
        assert_eq!(
            parse_err("module m (a); input a; 5ive (x); endmodule"),
            "1:24: unexpected character '5'"
        );
        assert_eq!(
            parse_err("module m (a); /* never closed"),
            "1:15: unterminated block comment"
        );
        assert_eq!(
            parse_err("module m (a); input \\broken"),
            "1:21: unterminated escaped identifier"
        );
        assert_eq!(
            parse_err("module m (a) input a; endmodule"),
            "1:14: expected ';', found 'input'"
        );
        assert_eq!(
            parse_err("module m (a); input a; nand3 g (x, a); endmodule"),
            "1:24: unknown cell kind 'nand3' (not a gate primitive, dff or mux2)"
        );
        assert_eq!(
            parse_err("module m (a); input a; endmodule extra"),
            "1:34: expected end of input, found 'extra'"
        );
    }

    #[test]
    fn lower_error_snapshots() {
        // Undeclared net.
        assert_eq!(
            lower_err("module m (a, y); input a; output y; not g0 (y, ghost); endmodule"),
            "cell not g0: connection to undeclared net 'ghost'"
        );
        // Port-arity mismatch.
        assert_eq!(
            lower_err("module m (a, y); input a; output y; xor g0 (y, a); endmodule"),
            "cell xor g0: 2 connections, takes 3"
        );
        // Duplicate driver: two gate outputs on one net.
        assert_eq!(
            lower_err(
                "module m (a, b, y); input a, b; output y; \
                 not g0 (y, a); not g1 (y, b); endmodule"
            ),
            "net 'y' has more than one driver"
        );
        // Duplicate driver: gate output contending with an input port.
        assert_eq!(
            lower_err("module m (a, b); input a, b; output b; endmodule").as_str(),
            "net 'b' declared more than once"
        );
        assert_eq!(
            lower_err("module m (a); input a; wire w; not g0 (a, w); endmodule"),
            "net 'a' has more than one driver"
        );
        // Duplicate driver: a dff q on an input port.
        assert_eq!(
            lower_err("module m (a, d); input a, d; dff ff0 (a, d); endmodule"),
            "net 'a' has more than one driver"
        );
        // Duplicate driver: two dffs sharing a q.
        assert_eq!(
            lower_err(
                "module m (a, y); input a; output y; \
                 dff ff0 (y, a); dff ff1 (y, a); endmodule"
            ),
            "net 'y' has more than one driver"
        );
        // Duplicate driver: a gate output on a dff q.
        assert_eq!(
            lower_err(
                "module m (a, y); input a; output y; wire q; \
                 dff ff0 (q, a); not g0 (q, a); buf g1 (y, q); endmodule"
            ),
            "net 'q' has more than one driver"
        );
        // Combinational cycle.
        assert_eq!(
            lower_err(
                "module m (a, y); input a; output y; wire p, q; \
                 nand g0 (p, a, q); nand g1 (q, a, p); buf g2 (y, p); endmodule"
            ),
            "combinational cycle through net 'p'"
        );
        // Header/declaration consistency.
        assert_eq!(
            lower_err("module m (a, y); input a; wire y; endmodule"),
            "port 'y' has no input or output declaration"
        );
        assert_eq!(
            lower_err("module m (a); input a; output y; endmodule"),
            "'y' declared input/output but missing from the port list"
        );
        // A dff loop is NOT a combinational cycle.
        let src = "module m (a, y); input a; output y; wire d, q; \
                   xor g0 (d, a, q); dff ff0 (q, d); buf g1 (y, q); endmodule";
        assert!(compile(src).is_ok());
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        for garbage in [
            "",
            "(((((",
            "module",
            "module ;",
            "endmodule",
            "module m (a;",
            "\\",
            "/*/",
            "//",
            "module m (); endmodule",
            "module m (a,); input a; endmodule",
            "\u{1F980} module",
        ] {
            let _ = parse(garbage);
        }
    }
}
