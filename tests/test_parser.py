import pytest
from hypothesis import given, strategies as st

from nomfix import (
    Abs,
    App,
    Atom,
    AtomTerm,
    Eq,
    Fix,
    FixpointContext,
    FreshnessContext,
    IllFormedTermError,
    NameGenerator,
    Permutation,
    Signature,
    Susp,
    Swapping,
    Theory,
    Tup,
    Var,
    parse_constraint,
    parse_perm,
    parse_problem_file,
    parse_signature,
    parse_term,
    print_perm,
    print_term,
)
from nomfix.parser import FreshRequest, ParseError
from gen import SIG_FULL, random_perm, random_term

a, b, c = Atom("a"), Atom("b"), Atom("c")
X = Var("X")


class TestTerms:
    def test_frozen_examples(self):
        assert parse_term("a") == AtomTerm(a)
        assert parse_term("X") == Susp(Permutation.identity(), X)
        assert parse_term("(a b)(b c).X") == Susp(parse_perm("(a b)(b c)"), X)
        assert parse_term("[a] (a, b)") == Abs(a, Tup((AtomTerm(a), AtomTerm(b))))
        assert parse_term("f(a, b)") == App("f", Tup((AtomTerm(a), AtomTerm(b))))
        assert parse_term("f(a)") == App("f", AtomTerm(a))

    def test_one_tuples_are_their_element(self):
        assert parse_term("(a)") == AtomTerm(a)
        assert parse_term("((X))") == parse_term("X")

    def test_operator_symbols(self):
        sig = Signature({"+": Theory.C})
        t = parse_term("+(a, b)", sig)
        assert isinstance(t, App) and t.symbol == "+"
        # undeclared operator names followed by '(' still parse as symbols
        assert isinstance(parse_term("+(a, b)"), App)

    def test_nested(self):
        t = parse_term("[a] [b] f(((a b).X, c))")
        assert isinstance(t, Abs) and isinstance(t.body, Abs)
        assert isinstance(t.body.body, App)

    def test_rejections(self):
        for bad in ("Id", "[a]", "f(", "(a,)", "(a a)", "X.Y", "#c0", "a #"):
            with pytest.raises(ParseError):
                parse_term(bad)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_term("a b")


def same_term(s, t) -> bool:
    """s == t, compared along an explicit stack: == recurses once per level."""
    pairs = [(s, t)]
    while pairs:
        s, t = pairs.pop()
        if type(s) is not type(t):
            return False
        if isinstance(s, Abs):
            pairs.append((s.body, t.body))
            s, t = s.binder, t.binder
        elif isinstance(s, App):
            pairs.append((s.arg, t.arg))
            s, t = s.symbol, t.symbol
        elif isinstance(s, Tup):
            pairs += zip(s.items, t.items)
            s, t = len(s.items), len(t.items)
        if s != t:
            return False
    return True


class TestDeepInput:
    """Terms nested far deeper than Python's recursion limit parse back."""

    DEPTH = 5000

    def nest(self, build):
        t = AtomTerm(a)
        for _ in range(self.DEPTH):
            t = build(t)
        return t

    @pytest.mark.parametrize(
        "build",
        [lambda t: App("f", t), lambda t: Abs(a, t), lambda t: Tup((t, AtomTerm(b)))],
        ids=["application", "abstraction", "tuple"],
    )
    def test_parse_inverts_print(self, build):
        t = self.nest(build)
        parsed = parse_term(print_term(t))
        assert same_term(parsed, t)
        assert not same_term(parsed, self.nest(lambda u: Abs(b, u)))

    def test_nested_parentheses(self):
        assert parse_term("(" * self.DEPTH + "a" + ")" * self.DEPTH) == AtomTerm(a)

    def test_declared_unary_symbol_without_parentheses(self):
        sig = Signature({"f": Theory.NONE})
        t = parse_term("f " * self.DEPTH + "a", sig)
        assert same_term(t, self.nest(lambda u: App("f", u)))


class TestPermutations:
    def test_frozen_examples(self):
        assert parse_perm("Id") == Permutation.identity()
        p = parse_perm("(a b)(b c)")
        assert p(c) == a and p(b) == c and p(a) == b

    def test_rejections(self):
        for bad in ("", "(a a)", "(a)", "(a b", "(a b c)", "id"):
            with pytest.raises(ParseError):
                parse_perm(bad)

    def test_error_positions(self):
        with pytest.raises(ParseError) as e:
            parse_term("f(a,\n  Id)")
        assert e.value.line == 2 and e.value.col == 3
        with pytest.raises(ParseError) as e:
            parse_term("#c0")
        assert e.value.line == 1 and e.value.col == 1

    @pytest.mark.parametrize(
        "parse,text,col,swapping",
        [
            (parse_term, "(a a).X", 1, "(a a)"),
            (parse_term, "(a b)(c c).X", 6, "(c c)"),
            (parse_constraint, "(b b) fix? X", 1, "(b b)"),
        ],
    )
    def test_swapping_of_an_atom_with_itself(self, parse, text, col, swapping):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == f"1:{col}: swapping of an atom with itself: {swapping}"
        assert (e.value.line, e.value.col) == (1, col)


class TestConstraints:
    def test_each_kind(self):
        eq = parse_constraint("f(X) =? f(a)")
        assert isinstance(eq, Eq)
        fx = parse_constraint("(a b) fix? X")
        assert isinstance(fx, Fix) and fx.perm == parse_perm("(a b)")
        fr = parse_constraint("a fresh? [b] X")
        assert isinstance(fr, FreshRequest) and fr.atom == a

    def test_fresh_needs_atom_subject(self):
        with pytest.raises(ParseError):
            parse_constraint("X fresh? a")


class TestSignaturesAndFiles:
    def test_signature_declarations(self):
        sig = parse_signature("sym f : none ; sym + : C ; sym * : AC ; sym cat : A ;")
        assert sig.symbols["f"] == Theory.NONE
        assert sig.symbols["+"] == Theory.C
        assert sig.symbols["*"] == Theory.AC
        assert sig.symbols["cat"] == Theory.A

    def test_unknown_theory_rejected(self):
        with pytest.raises(ParseError):
            parse_signature("sym f : AAC ;")

    def test_symbol_redeclared_with_another_theory_rejected(self):
        with pytest.raises(ParseError, match=r"^1:21: symbol f declared C, then A$"):
            parse_signature("sym f : C ; sym f : A ;")
        with pytest.raises(ParseError, match=r"^2:9: symbol \+ declared none, then AC$"):
            parse_problem_file("sym + : none ;\nsym + : AC ;\n+(a, b) =? +(b, a)")

    def test_symbol_redeclared_with_the_same_theory_accepted(self):
        assert parse_signature("sym f : C ; sym f : C ;").symbols == {"f": Theory.C}

    def test_problem_file(self):
        pf = parse_problem_file(
            """
            // a commutative symbol and a mixed constraint list
            sym + : C ;
            context: (a b) fix X, (b c) fix Y ;
            +((a b).X, a) =? +(Y, X), (a c) fix? X
            """
        )
        assert isinstance(pf.context, FixpointContext)
        assert len(pf.context.constraints) == 2
        assert len(pf.constraints) == 2
        assert isinstance(pf.constraints[0], Eq)
        assert isinstance(pf.constraints[1], Fix)

    def test_fresh_context_section(self):
        pf = parse_problem_file("context: a fresh X, b fresh Y ; a fresh? X")
        assert isinstance(pf.context, FreshnessContext)
        assert len(pf.context.constraints) == 2

    def test_mixed_context_rejected(self):
        with pytest.raises(ParseError):
            parse_problem_file("context: a fresh X, (a b) fix Y ; X =? Y")


class TestRoundTrip:
    def test_terms(self, rng):
        for _ in range(400):
            t = random_term(rng, SIG_FULL, depth=4)
            assert parse_term(print_term(t), SIG_FULL) == t

    def test_permutations(self, rng):
        for _ in range(200):
            p = random_perm(rng)
            assert parse_perm(print_perm(p)) == p


# short user atom and variable names, except the signature's symbols (an
# atom named f would parse as an application) and the reserved Id
user_atoms = st.from_regex(r"[a-z][a-z0-9_']{0,2}", fullmatch=True).filter(lambda n: n not in SIG_FULL.symbols)
user_perms = st.lists(st.lists(user_atoms, min_size=2, max_size=2, unique=True), max_size=3).map(
    lambda pairs: Permutation(tuple(Swapping(Atom(x), Atom(y)) for x, y in pairs))
)
user_vars = st.from_regex(r"[A-Z][a-z0-9_']{0,2}", fullmatch=True).filter(lambda n: n != "Id").map(Var)
user_terms = st.recursive(
    st.one_of(user_atoms.map(lambda n: AtomTerm(Atom(n))), st.builds(Susp, user_perms, user_vars)),
    lambda sub: st.one_of(
        st.builds(Abs, user_atoms.map(Atom), sub),
        st.lists(sub, min_size=2, max_size=3).map(lambda items: Tup(tuple(items))),
        st.builds(App, st.just("f"), sub),
        st.builds(lambda f, s, t: App(f, Tup((s, t))), st.sampled_from(["cat", "+", "*"]), sub, sub),
    ),
    max_leaves=12,
)


@given(user_terms)
def test_parse_inverts_print_on_user_atom_terms(t):
    assert parse_term(print_term(t), SIG_FULL) == t


class TestAtomNames:
    """One rule for atom names: what a term leaf accepts, binders, swappings
    and context entries accept too, and every name a NameGenerator makes
    without the reserved '#' reads back wherever an atom may stand."""

    @pytest.mark.parametrize("text", ["_x", "[_x] a", "(_x a).X", "f(a, _x)", "_x =? a"])
    def test_underscore_names_are_not_atoms(self, text):
        with pytest.raises(ParseError, match="expected an atom, found '_x'"):
            parse_constraint(text) if "=?" in text else parse_term(text)

    @staticmethod
    def reads_back(name: str) -> bool:
        """Whether name reads as that atom in a swapping, a binder, a leaf
        and a freshness subject."""
        text = f"context: ({name} a) fix X ; [{name}] ({name}, ({name} b).Y) =? [a] a, {name} fresh? X"
        try:
            pf = parse_problem_file(text)
        except ParseError:
            return False
        x = Atom(name)
        return x in pf.context.atoms() and all(x in c.atoms() for c in pf.constraints)

    @given(st.text(alphabet="an_Z0'%#-. ", max_size=4).filter(lambda p: not p.startswith("#")))
    def test_prefix_accepted_exactly_when_its_names_read_back(self, prefix):
        try:
            NameGenerator(prefix)
            accepted = True
        except IllFormedTermError:
            accepted = False
        assert accepted == self.reads_back(prefix + "0")


def test_tokens_take_little_memory():
    """Tokenizing and parsing 1,500 nested binders a side peaks under
    1.30 MB; per-token records with their positions took 1.48 MB here."""
    import tracemalloc

    text = "[a]" * 1500 + "a =? " + "[a]" * 1500 + "a"
    parse_constraint(text)
    tracemalloc.start()
    try:
        parse_constraint(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_300_000
