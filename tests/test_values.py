"""The value classes behave as the dataclasses they replaced did: the repr
text, == and hash over the fields and never the memo slots, AttributeError
on setting or deleting a field of an immutable value, match on
__match_args__, Swapping's order, and pickle and copy.  The mutable records
keep their == and stay unhashable.  Immutable values copy as themselves,
at any depth, and a value built from a list or a set keeps a tuple or a
frozenset; importing the CLI does not import dataclasses."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import nomfix
from nomfix import (
    Abs,
    App,
    Atom,
    AtomTerm,
    CUnifyResult,
    Eq,
    Fix,
    FixpointContext,
    FreshnessContext,
    FreshRequest,
    Permutation,
    ProblemFile,
    Signature,
    Solution,
    Substitution,
    Susp,
    Swapping,
    TermPool,
    Theory,
    TranslationRecord,
    Tup,
    UnifyResult,
    Var,
    c_unify,
    check_alpha_fixp,
    check_fixp,
    free_atoms,
    parse_perm,
    parse_problem_file,
    parse_term,
    unify,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")
X = Var("X")
T = parse_term("[a] f((a b).X, b)")
P = parse_perm("(a b)(b c)")
A_ = "Atom(name='a', gen_index=-1)"
B_ = "Atom(name='b', gen_index=-1)"
C_ = "Atom(name='c', gen_index=-1)"
AB = f"Permutation(swappings=(Swapping(left={A_}, right={B_}),))"
T_REPR = f"Abs(binder={A_}, body=App(symbol='f', arg=Tup(items=(Susp(perm={AB}, var=Var(name='X')), AtomTerm(atom={B_})))))"
P_REPR = f"Permutation(swappings=(Swapping(left={A_}, right={B_}), Swapping(left={B_}, right={C_})))"


def values():
    """One value of every immutable class, by name."""
    return {
        "Swapping": Swapping(a, b),
        "Permutation": P,
        "AtomTerm": AtomTerm(a),
        "Abs": Abs(a, AtomTerm(b)),
        "Tup": Tup((AtomTerm(a), AtomTerm(b))),
        "App": App("f", AtomTerm(a)),
        "Susp": Susp(P, X),
        "FreshnessContext": FreshnessContext(frozenset({(a, X)})),
        "FixpointContext": FixpointContext(frozenset({(P, X)})),
        "Eq": Eq(T, AtomTerm(a)),
        "Fix": Fix(P, T),
        "FreshRequest": FreshRequest(a, T),
        "TranslationRecord": TranslationRecord("a fresh X", "(a #c0) fix X", (Atom("#c0", 0),)),
    }


def records():
    """One value of every mutable record class, by name."""
    solved = unify([Eq(parse_term("[a] X"), parse_term("[b] Y"))])
    return {
        "Signature": Signature({"+": Theory.C}),
        "Solution": solved.solution,
        "UnifyResult": solved,
        "CUnifyResult": c_unify([Eq(parse_term("+(a, X)"), parse_term("+(b, a)"))], Signature({"+": Theory.C})),
        "ProblemFile": parse_problem_file("context: (a b) fix X; a =? a, (a b) fix? X"),
        "TermPool": TermPool((a, b), (X,), max_depth=1),
    }


class TestRepr:
    def test_term_and_permutation(self):
        assert repr(T) == T_REPR
        assert repr(P) == P_REPR
        assert repr(Swapping(a, b)) == f"Swapping(left={A_}, right={B_})"

    def test_contexts(self):
        assert repr(FixpointContext(frozenset({(P, X)}))) == f"FixpointContext(constraints=frozenset({{({P_REPR}, Var(name='X'))}}))"
        assert repr(FreshnessContext(frozenset({(a, X)}))) == f"FreshnessContext(constraints=frozenset({{({A_}, Var(name='X'))}}))"
        assert repr(FixpointContext()) == "FixpointContext(constraints=frozenset())"

    def test_constraints_leave_out_their_memos(self):
        e, f = Eq(T, AtomTerm(a)), Fix(P, T)
        object.__setattr__(e, "_tried", ())
        assert repr(e) == f"Eq(lhs={T_REPR}, rhs=AtomTerm(atom={A_}))"
        assert repr(f) == f"Fix(perm={P_REPR}, target={T_REPR})"
        assert repr(FreshRequest(a, T)) == f"FreshRequest(atom={A_}, term={T_REPR})"
        assert repr(TranslationRecord("s", "t")) == "TranslationRecord(source='s', target='t', generated=())"

    def test_records(self):
        sol = Solution(FixpointContext(frozenset({(parse_perm("(a b)"), X)})), Substitution({Var("Y"): parse_term("a")}))
        sol.key()
        assert repr(sol) == f"Solution(context=FixpointContext(constraints=frozenset({{({AB}, Var(name='X'))}})), subst={{Y -> a}})"
        assert repr(Signature()) == "Signature(symbols={}, permissive=False)"
        res = c_unify([Eq(parse_term("a"), parse_term("a"))], Signature())
        res.tree
        assert repr(res) == "CUnifyResult(status='solved', solutions=[Solution(context=FixpointContext(constraints=frozenset()), subst={})])"
        assert repr(TermPool((a,))) == (
            f"TermPool(atoms=({A_},), variables=(), signature=Signature(symbols={{}}, permissive=True), max_depth=2)"
        )
        assert repr(parse_problem_file("a =? a")) == (
            "ProblemFile(signature=Signature(symbols={}, permissive=True), context=None, "
            f"constraints=[Eq(lhs=AtomTerm(atom={A_}), rhs=AtomTerm(atom={A_}))])"
        )


class TestEqualityAndHash:
    def test_filled_memos_are_ignored(self):
        filled, fresh = Eq(T, T), Eq(parse_term("[a] f((a b).X, b)"), T)
        object.__setattr__(filled, "_weight", -1)
        object.__setattr__(filled, "_tried", ())
        assert filled == fresh and hash(filled) == hash(fresh)
        ground, other = parse_term("[a] f(a, b)"), parse_term("[a] f(a, b)")
        free_atoms(ground)
        assert ground == other and hash(ground) == hash(other)

    def test_solution_key_is_ignored(self):
        sol = unify([Eq(parse_term("X"), parse_term("a"))]).solution
        other = Solution(sol.context, sol.subst)
        sol.key()
        assert sol == other and sol.key() == other.key()

    def test_fields_and_class_decide(self):
        for name, v in values().items():
            u = pickle.loads(pickle.dumps(v))
            assert u == v and hash(u) == hash(v), name
        assert Eq(T, T) != Eq(T, AtomTerm(a))
        assert Abs(a, AtomTerm(a)) != Abs(b, AtomTerm(a))
        # the same fields under another class are another value
        assert Eq(T, T) != Fix(P, T) and AtomTerm(a) != a
        assert FreshnessContext() != FixpointContext()

    def test_records_keep_eq_and_are_unhashable(self):
        for name, r in records().items():
            with pytest.raises(TypeError):
                hash(r)
            assert r == copy.copy(r), name
        assert Signature() == Signature() != Signature(permissive=True)
        assert TermPool((a,)) != TermPool((b,))


class TestImmutable:
    @pytest.mark.parametrize("name", sorted(values()))
    def test_set_and_delete_raise(self, name):
        v = values()[name]
        field = type(v).__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(v, field, None)
        with pytest.raises(AttributeError):
            delattr(v, field)

    def test_records_can_change(self):
        sig = Signature()
        sig.permissive = True
        assert sig == Signature(permissive=True)


class TestMatch:
    def test_terms(self):
        match T:
            case Abs(binder, App(symbol, Tup((Susp(perm, x), AtomTerm(y))))):
                assert (binder, symbol, perm, x, y) == (a, "f", Permutation.swap(a, b), X, b)
            case _:
                pytest.fail("no match")

    def test_every_value(self):
        for name, v in values().items():
            cls = type(v)
            got = tuple(getattr(v, f) for f in cls.__match_args__)
            match v:
                case Swapping(l, r) | Eq(l, r) | Fix(l, r) | FreshRequest(l, r) | Abs(l, r) | App(l, r) | Susp(l, r):
                    assert (l, r) == got, name
                case TranslationRecord(s, t, g):
                    assert (s, t, g) == got
                case Permutation(x) | AtomTerm(x) | Tup(x) | FreshnessContext(x) | FixpointContext(x):
                    assert (x,) == got, name
                case _:
                    pytest.fail(name)
        match records()["Signature"]:
            case Signature(symbols, permissive):
                assert (symbols, permissive) == ({"+": Theory.C}, False)

    def test_match_args(self):
        assert Eq.__match_args__ == ("lhs", "rhs") and Fix.__match_args__ == ("perm", "target")
        assert Solution.__match_args__ == ("context", "subst")
        assert UnifyResult.__match_args__ == ("status", "solution", "witness", "witness_kind", "steps", "normal_form")
        assert CUnifyResult.__match_args__ == ("status", "solutions", "problem", "parts")
        assert ProblemFile.__match_args__ == ("signature", "context", "constraints")
        assert TermPool.__match_args__ == ("atoms", "variables", "signature", "max_depth")


class TestSwappingOrder:
    def test_ordered_by_left_then_right(self):
        ab, ac, ba = Swapping(a, b), Swapping(a, c), Swapping(b, a)
        assert sorted([ba, ac, ab]) == [ab, ac, ba]
        assert ab < ac <= ac < ba and ba > ab >= ab
        assert not ab < ab and ab <= Swapping(a, b)

    def test_only_against_swappings(self):
        with pytest.raises(TypeError):
            Swapping(a, b) < (a, b)
        with pytest.raises(TypeError):
            Swapping(a, b) >= a


class TestPickleAndCopy:
    @pytest.mark.parametrize("name", sorted(values()))
    def test_values_round_trip(self, name):
        v = values()[name]
        for u in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(u) is type(v) and u == v and repr(u) == repr(v)

    @pytest.mark.parametrize("name", sorted(records()))
    def test_records_round_trip(self, name):
        r = records()[name]
        for u in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert type(u) is type(r) and u == r and u is not r

    def test_deepcopied_record_owns_its_fields(self):
        sig = Signature({"f": Theory.NONE})
        other = copy.deepcopy(sig)
        other.declare("+", Theory.C)
        assert sig.symbols == {"f": Theory.NONE}

    def test_cunify_tree_survives_a_copy(self):
        res = records()["CUnifyResult"]
        assert copy.deepcopy(res).tree == pickle.loads(pickle.dumps(res)).tree == res.tree


class TestValuesCopyAsThemselves:
    def test_values(self):
        for name, v in values().items():
            assert copy.copy(v) is v and copy.deepcopy(v) is v, name

    def test_deep_term(self):
        """5,000 levels, far past the recursion limit: a copy reads no
        field, so it does not recurse."""
        t = parse_term("f(" * 5000 + "a" + ")" * 5000)
        assert copy.copy(t) is t and copy.deepcopy(t) is t
        box = copy.deepcopy([t, Eq(t, t), Fix(P, t)])
        assert box[0] is t and box[1].lhs is t and box[2].target is t


class TestBuiltFromLists:
    """A value built from a list or a set keeps a tuple or a frozenset, as
    Permutation does, so it is hashable and equal to the same value built
    from a tuple or a frozenset, and the engines take it."""

    PAIRS = [(Permutation.swap(a, b), X), (Permutation.swap(b, c), Var("Y"))]

    @pytest.mark.parametrize(
        "built, same",
        [
            (Tup([AtomTerm(a), AtomTerm(b)]), Tup((AtomTerm(a), AtomTerm(b)))),
            (FixpointContext(PAIRS), FixpointContext(frozenset(PAIRS))),
            (FreshnessContext({(a, X), (b, X)}), FreshnessContext(frozenset({(a, X), (b, X)}))),
            (TranslationRecord("a fresh X", "(a #c0) fix X", [Atom("#c0", 0)]),
             TranslationRecord("a fresh X", "(a #c0) fix X", (Atom("#c0", 0),))),
        ],
        ids=["Tup", "FixpointContext", "FreshnessContext", "TranslationRecord"],
    )
    def test_equal_and_hashable(self, built, same):
        assert built == same and hash(built) == hash(same) and repr(built) == repr(same)
        assert all(type(getattr(built, f)) is type(getattr(same, f)) for f in type(same).__match_args__)

    def test_tuple_and_frozenset_are_kept(self):
        items, pairs = (AtomTerm(a), AtomTerm(b)), frozenset(self.PAIRS)
        assert Tup(items).items is items and FixpointContext(pairs).constraints is pairs

    def test_engines_take_a_list_built_context(self):
        ctx = FixpointContext([(Permutation.swap(a, b), X)])
        assert check_fixp(Signature(), ctx, Permutation.swap(a, b), parse_term("[c] X"))
        assert check_alpha_fixp(Signature(), ctx, parse_term("[a] X"), parse_term("[b] X"))


def test_importing_the_cli_leaves_out_dataclasses():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(nomfix.__file__).parents[1])}
    code = "import sys, nomfix.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8", env=env, check=True)
    assert out.stdout.strip() == "[]"
