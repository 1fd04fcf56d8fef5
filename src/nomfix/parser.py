"""Text syntax for terms, permutations, contexts, and problem files.

Grammar summary:

    term        := '[' atom ']' term | suspension | tuple | application | atom | VAR
    suspension  := swapping+ '.' VAR            e.g.  (a b)(b c).X
    tuple       := '(' term (',' term)* ')'     a one-element tuple is its element
    application := sym term | sym '(' term (',' term)* ')'
    swapping    := '(' atom atom ')'            of two distinct atoms
    perm        := 'Id' | swapping+

Atoms are identifiers [a-z][A-Za-z0-9_']* (or operator characters),
variables start uppercase.  'Id' is reserved, and so is '#', which starts the
names of generated atoms; those only appear in output.  Text is cut into
tokens by one regex pass; a ParseError's line and column are worked out only
when one is raised.  Terms are read with one explicit stack, not by recursion,
so input may nest to any depth.

A problem file holds optional 'sym NAME : none|A|C|AC ;' declarations, an
optional 'context: ... ;' section (either all 'a fresh X' or all 'pi fix X'
entries), and constraints 's =? t', 'pi fix? t', 'a fresh? t' separated by
commas.  '//' starts a line comment.
"""

from __future__ import annotations

import re
from itertools import islice

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
    _Fields,
    _Value,
    atoms_in,
)
from .unify import Eq, Fix


class ParseError(NomfixError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class FreshRequest(_Value):
    """A goal a fresh? t for the freshness engine."""

    __slots__ = __match_args__ = ("atom", "term")

    def __init__(self, atom: Atom, term: Term):
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "term", term)

    def atoms(self) -> set[Atom]:
        return atoms_in(self.atom, self.term)

    def __str__(self) -> str:
        from .printer import print_term

        return f"{self.atom} fresh? {print_term(self.term)}"


class ProblemFile(_Fields):
    __slots__ = __match_args__ = ("signature", "context", "constraints")

    def __init__(self, signature: Signature, context: FreshnessContext | FixpointContext | None, constraints: list):
        self.signature, self.context, self.constraints = signature, context, constraints  # Eq | Fix | FreshRequest


_OPERATORS = "+-*/&|@$%^~!"
_ATOM_START = frozenset("abcdefghijklmnopqrstuvwxyz" + _OPERATORS)

# skips whitespace and comments; group 1 is a token, group 2 a character that is none
_TOKEN = re.compile(rf"\s+|//[^\n]*|(=\?|[A-Za-z_][A-Za-z0-9_']*|[{re.escape(_OPERATORS)}()\[\],.;:?])|(.)", re.S)
_SKIPPED = ("", "")

# the kinds of the tokens that are not names, as messages name them; "" ends the list
_KIND = {p: p for p in "()[],.;:?"} | {"=?": "eqq", "": "eof"}


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then "" for its end, from one regex pass."""
    found = _TOKEN.findall(text)
    tokens = [tok for tok, _ in found if tok]
    if len(tokens) + found.count(_SKIPPED) < len(found):
        i, c = next((i, bad) for i, (_, bad) in enumerate(found) if bad)
        message = "'#' is reserved for generated atoms" if c == "#" else f"unexpected character {c!r}"
        raise _error(text, i - found[:i].count(_SKIPPED), message)
    tokens.append("")
    return tokens


def _error(text: str, index: int, message: str) -> ParseError:
    """A ParseError at the index-th token of text, or at its end, found by
    scanning text again: positions are worked out for errors only."""
    starts = (m.start() for m in _TOKEN.finditer(text) if m.lastindex)
    offset = next(islice(starts, index, None), len(text))
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig

    def expect(self, kind: str) -> str:
        tok = self.tokens[self.pos]
        if _KIND.get(tok, "ident") != kind:
            self.fail(f"expected {kind!r}, found {tok or 'end of input'!r}")
        self.pos += 1
        return tok

    def fail(self, message: str, at: int | None = None):
        """Raise a ParseError at token at, by default the next one."""
        raise _error(self.text, self.pos if at is None else at, message)

    def accept(self, text: str) -> bool:
        """Skip the next token if it reads text."""
        if self.tokens[self.pos] != text:
            return False
        self.pos += 1
        return True

    # ---- names ----

    def atom_name(self) -> Atom:
        tok = self.tokens[self.pos]
        if tok[:1] not in _ATOM_START:
            self.expect("ident")
            self.fail(f"expected an atom, found {tok!r}", self.pos - 1)
        self.pos += 1
        return Atom(tok)

    def var_name(self) -> Var:
        tok = self.tokens[self.pos]
        if not tok[:1].isupper() or tok == "Id":
            self.expect("ident")
            self.fail(f"expected a variable, found {tok!r}", self.pos - 1)
        self.pos += 1
        return Var(tok)

    # ---- permutations ----

    def _perm_then(self, follow: str) -> bool:
        """Whether 'Id', or a run of '(' ident ident ')', starts here and the
        token after it reads follow; the tokens are only looked at."""
        toks, i = self.tokens, self.pos
        if toks[i] == "Id":
            i += 1
        else:
            while toks[i] == "(" and toks[i + 1] not in _KIND and toks[i + 2] not in _KIND and toks[i + 3] == ")":
                i += 4
        return i > self.pos and toks[i] == follow

    def perm(self) -> Permutation:
        if self.accept("Id"):
            return Permutation.identity()
        if self.tokens[self.pos] != "(":
            self.fail("expected a permutation")
        swaps: list[Swapping] = []
        while self.tokens[self.pos] == "(":
            opening = self.pos
            self.pos += 1
            a, b = self.atom_name(), self.atom_name()
            self.expect(")")
            if a == b:
                self.fail(f"swapping of an atom with itself: ({a} {b})", opening)
            swaps.append(Swapping(a, b))
        return Permutation(tuple(swaps))

    # ---- terms ----

    def term(self) -> Term:
        """Read prefixes (binders, symbols, open parentheses) onto a stack of
        open constructors up to a leaf, then close all that the leaf completes.
        The position is kept in a local and stored back only around calls."""
        toks, symbols = self.tokens, self.sig.symbols
        i = self.pos
        stack: list = []  # (Abs, binder), (App, symbol), or the list of a tuple's items so far
        while True:
            tok = toks[i]
            if tok == "[":
                self.pos = i + 1
                stack.append((Abs, self.atom_name()))
                i = self.pos
                if toks[i] != "]":
                    self.expect("]")
                i += 1
                continue
            if tok == "(":
                self.pos = i
                if not self._perm_then("."):
                    i += 1
                    stack.append([])
                    continue
                p = self.perm()
                self.pos += 1
                t = Susp(p, self.var_name())
                i = self.pos
            elif tok in _KIND:
                self.fail(f"expected a term, found {tok or 'end of input'!r}", i)
            elif tok == "Id":
                self.fail("'Id' is reserved", i)
            else:
                i += 1
                if tok[0].isupper():
                    t = Susp(Permutation.identity(), Var(tok))
                elif tok in symbols or (tok[0] in _ATOM_START and toks[i] == "("):
                    stack.append((App, tok))
                    continue
                else:
                    self.pos = i - 1
                    t = AtomTerm(self.atom_name())
            while stack:
                top = stack[-1]
                if type(top) is list:
                    top.append(t)
                    tok = toks[i]
                    if tok == ",":
                        i += 1
                        break
                    if tok != ")":
                        self.fail(f"expected ')', found {tok or 'end of input'!r}", i)
                    i += 1
                    t = top[0] if len(top) == 1 else Tup(tuple(top))
                else:
                    t = top[0](top[1], t)
                stack.pop()
            else:
                self.pos = i
                return t

    # ---- constraints and files ----

    def constraint(self):
        if self._perm_then("fix"):
            p = self.perm()
            self.pos += 1
            self.accept("?")
            return Fix(p, self.term())
        lhs = self.term()
        if self.accept("=?"):
            return Eq(lhs, self.term())
        at = self.pos
        if self.accept("fresh"):
            self.accept("?")
            if not isinstance(lhs, AtomTerm):
                self.fail("freshness needs an atom on the left", at)
            return FreshRequest(lhs.atom, self.term())
        self.fail("expected '=?', 'fix?' or 'fresh?' in constraint")

    def context_section(self):
        fresh_pairs: list[tuple[Atom, Var]] = []
        fixp_pairs: list[tuple[Permutation, Var]] = []
        while True:
            if self._perm_then("fix"):
                p = self.perm()
                self.pos += 1
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
        return FixpointContext(frozenset(fixp_pairs)) if fixp_pairs else FreshnessContext(frozenset(fresh_pairs))

    def signature_decls(self) -> Signature:
        while self.accept("sym"):
            name = self.expect("ident")
            self.expect(":")
            tok = self.expect("ident")
            try:
                theory = Theory(tok if tok in ("A", "C", "AC") else tok.lower())
            except ValueError:
                raise _error(self.text, self.pos - 1, f"unknown theory {tok!r}") from None
            if self.sig.symbols.get(name, theory) is not theory:
                self.fail(f"symbol {name} declared {self.sig.symbols[name].value}, then {theory.value}", self.pos - 1)
            self.sig.declare(name, theory)
            self.expect(";")
        return self.sig

    def problem_file(self) -> ProblemFile:
        self.signature_decls()
        context = None
        if self.accept("context"):
            self.expect(":")
            context = self.context_section()
        constraints = []
        if self.tokens[self.pos]:
            constraints.append(self.constraint())
            while self.accept(","):
                constraints.append(self.constraint())
            self.accept(";")
        return ProblemFile(self.sig, context, constraints)


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
