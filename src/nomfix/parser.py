"""Text syntax for terms, permutations, contexts, and problem files.

Grammar summary:

    term        := '[' atom ']' term | suspension | tuple | application | atom | VAR
    suspension  := swapping+ '.' VAR            e.g.  (a b)(b c).X
    tuple       := '(' term (',' term)* ')'     a one-element tuple is its element
    application := sym term | sym '(' term (',' term)* ')'
    swapping    := '(' atom atom ')'            of two distinct atoms
    perm        := 'Id' | swapping+

Atoms are lowercase identifiers, variables start uppercase.  'Id' is
reserved.  Names with the generated-atom prefix '#c' are rejected; such atoms
only appear in output.  Terms are read with one explicit stack, not by
recursion, so input may nest to any depth.

A problem file holds optional 'sym NAME : none|A|C|AC ;' declarations, an
optional 'context: ... ;' section (either all 'a fresh X' or all 'pi fix X'
entries), and constraints 's =? t', 'pi fix? t', 'a fresh? t' separated by
commas.  '//' starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    Abs,
    App,
    Atom,
    AtomTerm,
    FixpointContext,
    FreshnessContext,
    NomfixError,
    Permutation,
    Signature,
    Susp,
    Swapping,
    Term,
    Theory,
    Tup,
    Var,
    atoms_in,
)
from .unify import Eq, Fix


class ParseError(NomfixError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class FreshRequest:
    """A goal a fresh? t for the freshness engine."""

    atom: Atom
    term: Term

    def atoms(self) -> set[Atom]:
        return atoms_in(self.atom, self.term)

    def __str__(self) -> str:
        from .printer import print_term

        return f"{self.atom} fresh? {print_term(self.term)}"


@dataclass
class ProblemFile:
    signature: Signature
    fresh_context: FreshnessContext | None
    fixp_context: FixpointContext | None
    constraints: list  # Eq | Fix | FreshRequest


_OPERATORS = "+-*/&|@$%^~!"

_TOKEN = re.compile(
    rf"""(?P<ws>\s+|//[^\n]*)
      | (?P<eqq>=\?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<op>[{re.escape(_OPERATORS)}])
      | (?P<punct>[()\[\],.;:?])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # "ident", "eqq", or the punctuation character itself
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        if text[pos] == "#":
            raise ParseError("'#' is reserved for generated atoms", line, pos - bol + 1)
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - bol + 1)
        col = pos - bol + 1
        if m.lastgroup == "ws":
            line += m.group().count("\n")
            if "\n" in m.group():
                bol = m.start() + m.group().rindex("\n") + 1
        elif m.lastgroup == "ident" or m.lastgroup == "op":
            out.append(Token("ident", m.group(), line, col))
        elif m.lastgroup == "eqq":
            out.append(Token("eqq", "=?", line, col))
        else:
            out.append(Token(m.group(), m.group(), line, col))
        pos = m.end()
    out.append(Token("eof", "", line, len(text) - bol + 1))
    return out


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def accept(self, text: str) -> bool:
        """Skip the next token if it reads text."""
        if self.peek().text != text:
            return False
        self.next()
        return True

    # ---- names ----

    def atom_name(self) -> Atom:
        tok = self.expect("ident")
        if not _atom_like(tok.text):
            raise ParseError(f"expected an atom, found {tok.text!r}", tok.line, tok.col)
        return Atom(tok.text)

    def var_name(self) -> Var:
        tok = self.expect("ident")
        if not tok.text[0].isupper() or tok.text == "Id":
            raise ParseError(f"expected a variable, found {tok.text!r}", tok.line, tok.col)
        return Var(tok.text)

    # ---- permutations ----

    def _perm_then(self, follow: str) -> bool:
        """Whether 'Id', or a run of '(' ident ident ')', starts here and the
        token after it reads follow; the tokens are only looked at."""
        i = self.pos
        if self.peek().text == "Id":
            i += 1
        else:
            while [t.kind for t in self.tokens[i : i + 4]] == ["(", "ident", "ident", ")"]:
                i += 4
        return i > self.pos and self.tokens[i].text == follow

    def perm(self) -> Permutation:
        if self.accept("Id"):
            return Permutation.identity()
        if self.peek().kind != "(":
            self.fail("expected a permutation")
        swaps: list[Swapping] = []
        while self.peek().kind == "(":
            opening = self.next()
            a, b = self.atom_name(), self.atom_name()
            self.expect(")")
            if a == b:
                raise ParseError(f"swapping of an atom with itself: ({a} {b})", opening.line, opening.col)
            swaps.append(Swapping(a, b))
        return Permutation(tuple(swaps))

    # ---- terms ----

    def term(self) -> Term:
        """Read prefixes (binders, symbols, open parentheses) onto a stack of
        open constructors up to a leaf, then close all that the leaf completes."""
        stack: list = []  # (Abs, binder), (App, symbol), or the list of a tuple's items so far
        while True:
            tok = self.peek()
            if tok.text == "Id":
                self.fail("'Id' is reserved")
            if self.accept("["):
                stack.append((Abs, self.atom_name()))
                self.expect("]")
                continue
            if tok.kind == "(" and self._perm_then("."):
                p = self.perm()
                self.next()
                t = Susp(p, self.var_name())
            elif self.accept("("):
                stack.append([])
                continue
            elif tok.kind == "ident":
                self.next()
                if tok.text[0].isupper():
                    t = Susp(Permutation.identity(), Var(tok.text))
                elif tok.text in self.sig.symbols or (_atom_like(tok.text) and self.peek().kind == "("):
                    stack.append((App, tok.text))
                    continue
                else:
                    t = AtomTerm(Atom(tok.text))
            else:
                self.fail(f"expected a term, found {tok.text or 'end of input'!r}")
            while stack:
                top = stack[-1]
                if type(top) is list:
                    top.append(t)
                    if self.accept(","):
                        break
                    self.expect(")")
                    t = top[0] if len(top) == 1 else Tup(tuple(top))
                else:
                    t = top[0](top[1], t)
                stack.pop()
            else:
                return t

    # ---- constraints and files ----

    def constraint(self):
        if self._perm_then("fix"):
            p = self.perm()
            self.next()
            self.accept("?")
            return Fix(p, self.term())
        lhs = self.term()
        if self.accept("=?"):
            return Eq(lhs, self.term())
        tok = self.peek()
        if self.accept("fresh"):
            self.accept("?")
            if not isinstance(lhs, AtomTerm):
                raise ParseError("freshness needs an atom on the left", tok.line, tok.col)
            return FreshRequest(lhs.atom, self.term())
        self.fail("expected '=?', 'fix?' or 'fresh?' in constraint")

    def context_section(self):
        fresh_pairs: list[tuple[Atom, Var]] = []
        fixp_pairs: list[tuple[Permutation, Var]] = []
        while True:
            if self._perm_then("fix"):
                p = self.perm()
                self.next()
                fixp_pairs.append((p, self.var_name()))
            else:
                a = self.atom_name()
                if not self.accept("fresh"):
                    self.fail("expected 'fresh' or 'fix' in context entry")
                fresh_pairs.append((a, self.var_name()))
            if not self.accept(","):
                break
        self.expect(";")
        if fresh_pairs and fixp_pairs:
            self.fail("a context must be all 'fresh' or all 'fix' entries")
        if fixp_pairs:
            return None, FixpointContext(frozenset(fixp_pairs))
        return FreshnessContext(frozenset(fresh_pairs)), None

    def signature_decls(self) -> Signature:
        while self.accept("sym"):
            name = self.expect("ident").text
            self.expect(":")
            tok = self.expect("ident")
            try:
                theory = Theory(tok.text if tok.text in ("A", "C", "AC") else tok.text.lower())
            except ValueError:
                raise ParseError(f"unknown theory {tok.text!r}", tok.line, tok.col) from None
            self.sig.declare(name, theory)
            self.expect(";")
        return self.sig

    def problem_file(self) -> ProblemFile:
        self.signature_decls()
        fresh_ctx = fixp_ctx = None
        if self.accept("context"):
            self.expect(":")
            fresh_ctx, fixp_ctx = self.context_section()
        constraints = []
        if self.peek().kind != "eof":
            constraints.append(self.constraint())
            while self.accept(","):
                constraints.append(self.constraint())
            self.accept(";")
        return ProblemFile(self.sig, fresh_ctx, fixp_ctx, constraints)


def _atom_like(name: str) -> bool:
    return name[0].islower() or name[0] in _OPERATORS


def _parse(text: str, sig: Signature | None, rule):
    """rule's result on the whole of text; without sig, any symbol is plain."""
    p = _Parser(text, Signature(permissive=True) if sig is None else sig)
    out = rule(p)
    p.expect("eof")
    return out


def parse_term(text: str, sig: Signature | None = None) -> Term:
    return _parse(text, sig, _Parser.term)


def parse_perm(text: str) -> Permutation:
    return _parse(text, None, _Parser.perm)


def parse_constraint(text: str, sig: Signature | None = None):
    return _parse(text, sig, _Parser.constraint)


def parse_signature(text: str, sig: Signature | None = None) -> Signature:
    return _parse(text, sig, _Parser.signature_decls)


def parse_problem_file(text: str, sig: Signature | None = None) -> ProblemFile:
    return _parse(text, sig, _Parser.problem_file)
