"""Every parse result and every ParseError text (message, line and column) of
a fixed set of inputs, through all five parse functions, compared exactly
with a recorded copy, so that a change to how text is read cannot change
either unseen.

The inputs are a hand-written case for each place the parser raises;
multi-line inputs with '//' comments holding '#' and non-ASCII text, tabs,
CRLF line ends and no-break spaces; and seeded token mutations (drop,
duplicate, swap, truncate) of every problem file in tests/data.  No input
starts an identifier with '_'.  Regenerate the expected file only for an
intended change of the text format:

    PYTHONPATH=src python tests/test_parse_errors.py > tests/data/parse_errors.json
"""

import json
import pathlib
import random
import re
import sys

from nomfix import (
    FixpointContext,
    FreshnessContext,
    NomfixError,
    Permutation,
    Signature,
    Term,
    parse_constraint,
    parse_perm,
    parse_problem_file,
    parse_signature,
    parse_term,
    print_perm,
    print_term,
)
from nomfix.parser import ProblemFile

DATA = pathlib.Path(__file__).parent / "data"

PARSERS = {
    "term": parse_term,
    "perm": parse_perm,
    "constraint": parse_constraint,
    "signature": parse_signature,
    "problem_file": parse_problem_file,
}

HAND = [
    # the tokenizer: '#' and characters no token starts with
    "#c0",
    "a #",
    "f(a,\n  #c1)",
    "a = b",
    "[a] 0",
    "a fresh? X ' ",
    "X =? Y\n\té",
    "a =? b",
    # expected a kind of token, or the end
    "",
    "   \n  ",
    "[",
    "[a",
    "[a b",
    "[X] a",
    "[(] a",
    "f(a, b",
    "(a, b c)",
    "a b",
    "X =? Y Z",
    "sym",
    "sym f",
    "sym f none ;",
    "sym f : none",
    "sym f : none sym g : C ;",
    "sym ( : none ;",
    "context: a fresh X",
    "context a fresh X ;",
    "context: a fresh X ; X =? a ;;",
    "a eof",
    "eof",
    "ident =? eqq",
    "sym eof : none ; eof(a) =? eof",
    # permutations
    "Id",
    "id",
    "(a)",
    "(a b",
    "(a b c)",
    "(a b)(c)",
    "(a a)",
    "(a b)(c c).X",
    "(b b) fix? X",
    "(a X).Y",
    "(a b).x",
    "(a b).Id",
    "(a b) fix? ",
    "Id fix? a",
    "(a b) fix Y",
    # terms
    "Id",
    "f(Id)",
    "[Id] a",
    "(a,)",
    "(a a)",
    "X.Y",
    ")",
    "=? a",
    "f(",
    "+(a, b) =? * c",
    "[a] [b] f(((a b).X, c))",
    "(((a)))",
    "f g h a",
    # constraints
    "X fresh? a",
    "f(a) fresh? a",
    "a fresh a",
    "a",
    "a =? ",
    "(a b) fix? X, a fresh? X, X =? Y",
    "(a b) (c d) fix? X",
    # signatures and files
    "sym f : AAC ;",
    "sym f : c ;",
    "sym f : NONE ; sym + : C ; sym * : AC ; sym cat : A ;",
    "sym f : none ; f a =? f(b)",
    "context: a fresh X, (a b) fix Y ; X =? Y",
    "context: (a b) fix X, a fresh Y ; X =? Y",
    "context: a fix X ;",
    "context: a X ;",
    "context: (a b) fix x ;",
    "context: a fresh X, b fresh Y ; a fresh? X",
    "context: (a b) fix X, (b c) fix Y ; +((a b).X, a) =? +(Y, X), (a c) fix? X",
    # several lines, comments, tabs, CRLF and no-break spaces
    "// a comment with # and éè and ∀\nsym f : none ;\nf(a =? a",
    "sym + : C ; // über #c0\r\ncontext: (a b) fix X ;\r\n+(X, a) =? +(a, Y) ,\r\n\t(a b) fix? X,\r\n\t[a] X =?",
    "\t\ta =? b ,\n\t\t(a a) fix? X",
    "a =? b, \n c fresh? Id",
    "context:\n  a fresh X ,\n  b fresh\n",
    "x =? y // trailing comment without newline",
    "x =? y // trailing comment # é\n",
    "// only a comment",
    "//\n//\n",
    "[a]\r\n[b]\r\n(a b).X\r\n=?\r\n[b][a]\r\n(b a).X\r\n=?",
    "f(\u00a0a,\u3000b)",
    "a\u00a0=?\u00a0b\u00a0",
    "a /b",
    "a //b\n/ c",
]


def describe(result):
    if isinstance(result, Term):
        return print_term(result)
    if isinstance(result, Permutation):
        return print_perm(result)
    if isinstance(result, Signature):
        return sorted(f"{name} : {th.value}" for name, th in result.symbols.items())
    if isinstance(result, ProblemFile):
        return {
            "signature": describe(result.signature),
            "fresh_context": str(result.context) if isinstance(result.context, FreshnessContext) else None,
            "fixp_context": str(result.context) if isinstance(result.context, FixpointContext) else None,
            "constraints": [str(c) for c in result.constraints],
        }
    return str(result)


def outcome(parse, text):
    try:
        return describe(parse(text))
    except NomfixError as exc:
        return f"{type(exc).__name__}: {exc}"


LEXEME = re.compile(r"//[^\n]*|\s+|=\?|[A-Za-z0-9_']+|.", re.S)


def mutations(text: str, rng: random.Random, each: int = 5) -> list[str]:
    """Copies of text with one token dropped, duplicated or swapped with
    another, or cut at a character."""
    parts = LEXEME.findall(text)
    toks = [i for i, s in enumerate(parts) if not s.isspace() and not s.startswith("//")]
    out = []
    for kind in ("drop", "duplicate", "swap", "truncate"):
        for _ in range(each):
            p = list(parts)
            i = rng.choice(toks)
            if kind == "drop":
                p[i] = ""
            elif kind == "duplicate":
                p[i] = f"{p[i]} {p[i]}"
            elif kind == "swap":
                j = rng.choice(toks)
                p[i], p[j] = p[j], p[i]
            else:
                cut = rng.randrange(len(text) + 1)
                p = [text[:cut]]
            out.append("".join(p))
    return out


def inputs() -> list[str]:
    out = list(HAND)
    for path in sorted(DATA.glob("*.nom")):
        # seeded per file, so a new file leaves the others' mutations as they are
        text = path.read_text()
        out += [text, *mutations(text, random.Random(f"10:{path.name}"))]
    out = [t for t in dict.fromkeys(out) if not re.search(r"(?<![A-Za-z0-9_'])_", t)]
    return out


def record() -> list:
    return [{"text": text} | {name: outcome(parse, text) for name, parse in PARSERS.items()} for text in inputs()]


def test_outcomes_match_recording():
    want = json.loads((DATA / "parse_errors.json").read_text())
    got = record()
    assert [case["text"] for case in got] == [case["text"] for case in want]
    for g, w in zip(got, want):
        assert g == w, g["text"]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, ensure_ascii=False)
    print()
