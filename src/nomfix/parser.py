"""Text syntax for terms, permutations, contexts, and problem files.

Grammar summary:

    term        := '[' atom ']' term | suspension | tuple | application | atom | VAR
    suspension  := swapping+ '.' VAR            e.g.  (a b)(b c).X
    tuple       := '(' term (',' term)* ')'     a one-element tuple is its element
    application := sym term | sym '(' term (',' term)* ')'
    swapping    := '(' atom atom ')'
    perm        := 'Id' | swapping+

Atoms are lowercase identifiers, variables start uppercase.  'Id' is
reserved.  Names with the generated-atom prefix '#c' are rejected; such atoms
only appear in output.

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


_TOKEN = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
      | (?P<eqq>=\?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<op>[+\-*/&|@$%^~!])
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

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

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

    def at_ident(self, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (text is None or tok.text == text)

    # ---- names ----

    def _is_symbol(self, name: str) -> bool:
        if name in self.sig.symbols:
            return True
        applicable = name[0].islower() or name[0] in "+-*/&|@$%^~!"
        return applicable and self.peek().kind == "("

    def atom_name(self) -> Atom:
        tok = self.expect("ident")
        if not tok.text[0].islower() and not tok.text[0] in "+-*/&|@$%^~!":
            raise ParseError(f"expected an atom, found {tok.text!r}", tok.line, tok.col)
        if tok.text == "Id":
            raise ParseError("'Id' is reserved", tok.line, tok.col)
        return Atom(tok.text)

    def var_name(self) -> Var:
        tok = self.expect("ident")
        if not tok.text[0].isupper() or tok.text == "Id":
            raise ParseError(f"expected a variable, found {tok.text!r}", tok.line, tok.col)
        return Var(tok.text)

    # ---- permutations ----

    def try_perm(self) -> Permutation | None:
        """Parse 'Id' or a swapping sequence, or return None untouched."""
        mark = self.pos
        if self.at_ident("Id"):
            self.next()
            return Permutation.identity()
        swaps: list[Swapping] = []
        while self.peek().kind == "(":
            save = self.pos
            self.next()
            if self.peek().kind != "ident" or self.peek(1).kind != "ident" or self.peek(2).kind != ")":
                self.pos = save
                break
            a = self.atom_name()
            b = self.atom_name()
            self.expect(")")
            if a == b:
                self.pos = mark
                return None
            swaps.append(Swapping(a, b))
        if not swaps:
            self.pos = mark
            return None
        return Permutation(tuple(swaps))

    def perm(self) -> Permutation:
        p = self.try_perm()
        if p is None:
            self.fail("expected a permutation")
        return p

    # ---- terms ----

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "[":
            self.next()
            binder = self.atom_name()
            self.expect("]")
            return Abs(binder, self.term())
        if tok.kind == "(":
            return self.susp_or_tuple()
        if tok.kind == "ident":
            if tok.text == "Id":
                self.fail("'Id' is reserved")
            if tok.text[0].isupper():
                self.next()
                return Susp(Permutation.identity(), Var(tok.text))
            self.next()
            if self._is_symbol(tok.text):
                return App(tok.text, self.term())
            return AtomTerm(Atom(tok.text))
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}")

    def susp_or_tuple(self) -> Term:
        mark = self.pos
        p = self.try_perm()
        if p is not None and self.peek().kind == ".":
            self.next()
            return Susp(p, self.var_name())
        self.pos = mark
        self.expect("(")
        items = [self.term()]
        while self.peek().kind == ",":
            self.next()
            items.append(self.term())
        self.expect(")")
        if len(items) == 1:
            return items[0]
        return Tup(tuple(items))

    # ---- constraints and files ----

    def constraint(self):
        mark = self.pos
        p = self.try_perm()
        if p is not None and self.at_ident("fix"):
            self.next()
            if self.peek().kind == "?":
                self.next()
            return Fix(p, self.term())
        self.pos = mark
        lhs = self.term()
        if self.peek().kind == "eqq":
            self.next()
            return Eq(lhs, self.term())
        if self.at_ident("fresh"):
            tok = self.next()
            if self.peek().kind == "?":
                self.next()
            if not isinstance(lhs, AtomTerm):
                raise ParseError("freshness needs an atom on the left", tok.line, tok.col)
            return FreshRequest(lhs.atom, self.term())
        self.fail("expected '=?', 'fix?' or 'fresh?' in constraint")

    def context_section(self):
        fresh_pairs: list[tuple[Atom, Var]] = []
        fixp_pairs: list[tuple[Permutation, Var]] = []
        while True:
            mark = self.pos
            p = self.try_perm()
            if p is not None and self.at_ident("fix"):
                self.next()
                fixp_pairs.append((p, self.var_name()))
            else:
                self.pos = mark
                a = self.atom_name()
                if not self.at_ident("fresh"):
                    self.fail("expected 'fresh' or 'fix' in context entry")
                self.next()
                fresh_pairs.append((a, self.var_name()))
            if self.peek().kind == ",":
                self.next()
                continue
            break
        self.expect(";")
        if fresh_pairs and fixp_pairs:
            self.fail("a context must be all 'fresh' or all 'fix' entries")
        if fixp_pairs:
            return None, FixpointContext(frozenset(fixp_pairs))
        return FreshnessContext(frozenset(fresh_pairs)), None

    def signature_decls(self) -> None:
        while self.at_ident("sym"):
            self.next()
            name = self.expect("ident").text
            self.expect(":")
            tok = self.expect("ident")
            try:
                theory = Theory(tok.text if tok.text in ("A", "C", "AC") else tok.text.lower())
            except ValueError:
                raise ParseError(f"unknown theory {tok.text!r}", tok.line, tok.col) from None
            self.sig.declare(name, theory)
            self.expect(";")

    def problem_file(self) -> ProblemFile:
        self.signature_decls()
        fresh_ctx = fixp_ctx = None
        if self.at_ident("context"):
            self.next()
            self.expect(":")
            fresh_ctx, fixp_ctx = self.context_section()
        constraints = []
        if self.peek().kind != "eof":
            constraints.append(self.constraint())
            while self.peek().kind == ",":
                self.next()
                constraints.append(self.constraint())
            if self.peek().kind == ";":
                self.next()
        self.expect("eof")
        return ProblemFile(self.sig, fresh_ctx, fixp_ctx, constraints)


def _fresh_sig(sig: Signature | None) -> Signature:
    if sig is None:
        return Signature(permissive=True)
    return sig


def parse_term(text: str, sig: Signature | None = None) -> Term:
    p = _Parser(text, _fresh_sig(sig))
    t = p.term()
    p.expect("eof")
    return t


def parse_perm(text: str) -> Permutation:
    p = _Parser(text, _fresh_sig(None))
    out = p.perm()
    p.expect("eof")
    return out


def parse_constraint(text: str, sig: Signature | None = None):
    p = _Parser(text, _fresh_sig(sig))
    c = p.constraint()
    p.expect("eof")
    return c


def parse_signature(text: str, sig: Signature | None = None) -> Signature:
    p = _Parser(text, _fresh_sig(sig))
    p.signature_decls()
    p.expect("eof")
    return p.sig


def parse_problem_file(text: str, sig: Signature | None = None) -> ProblemFile:
    return _Parser(text, _fresh_sig(sig)).problem_file()
