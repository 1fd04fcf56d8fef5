import io
import json
import re
import sys

import pytest
from hypothesis import example, given, strategies as st

from nomfix.cli import _to_json, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCorpusExitCodes:
    CASES = [
        ("unify", "unify_abs.nom", 0),
        ("unify", "unify_clash.nom", 1),
        ("unify", "unify_occurs.nom", 1),
        ("cunify", "cunify_two_mgu.nom", 0),
        ("cunify", "cunify_fix_var.nom", 0),
        ("alpha", "alpha_forall.nom", 0),
        ("fixp", "fixp_xor_c.nom", 1),
        ("fixp", "fixp_xor_ac.nom", 0),
        ("fixp", "fixp_conj_var.nom", 0),
        ("fresh", "fresh_susp.nom", 0),
        ("translate", "translate_fresh.nom", 0),
        ("translate", "translate_fixp.nom", 0),
        ("unify", "bad_syntax.nom", 2),
    ]

    @pytest.mark.parametrize("command,name,expected", CASES)
    def test_exit_code(self, capsys, data_dir, command, name, expected):
        code, out, err = run(capsys, command, str(data_dir / name))
        assert code == expected, (out, err)
        if expected == 2:
            assert "error:" in err

    def test_missing_file(self, capsys, data_dir):
        code, _, err = run(capsys, "unify", str(data_dir / "no_such.nom"))
        assert code == 2 and "error:" in err


class TestJsonOutput:
    def test_unify_solution_structure(self, capsys, data_dir):
        code, out, _ = run(capsys, "unify", str(data_dir / "unify_abs.nom"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "solved"
        assert {e["var"] for e in payload["subst"]} == {"X", "Y"}
        assert {e["var"] for e in payload["context"]} == {"W"}

    def test_unify_failure_structure(self, capsys, data_dir):
        code, out, _ = run(capsys, "unify", str(data_dir / "unify_occurs.nom"), "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "unsolvable"
        assert payload["witness"]["kind"] == "occurs"

    def test_cunify_two_solutions(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "cunify", str(data_dir / "cunify_two_mgu.nom"), "--json", "--tree"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["solutions"]) == 2
        assert payload["leaves"] >= 2
        assert payload["tree"]["children"]

    def test_check_results(self, capsys, data_dir):
        code, out, _ = run(capsys, "fixp", str(data_dir / "fixp_xor_c.nom"), "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["derivable"] is False
        assert len(payload["results"]) == 1

    def test_translate_records(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "translate", str(data_dir / "translate_fresh.nom"), "--json", "--trace"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "fixpoint"
        assert len(payload["context"]) == 2
        assert len(payload["records"]) == 2
        assert all(r["generated"] for r in payload["records"])

    def test_translate_other_direction(self, capsys, data_dir):
        code, out, _ = run(capsys, "translate", str(data_dir / "translate_fixp.nom"), "--json")
        payload = json.loads(out)
        assert code == 0 and payload["kind"] == "freshness"
        assert {(e["atom"], e["var"]) for e in payload["context"]} == {
            ("a", "X"), ("b", "X"), ("c", "X")
        }


class TestOptions:
    def test_fresh_prefix(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            "translate",
            str(data_dir / "translate_fresh.nom"),
            "--json",
            "--fresh-prefix",
            "%n",
        )
        assert code == 0
        payload = json.loads(out)
        assert all("%n" in e["perm"] for e in payload["context"])

    @pytest.mark.parametrize("prefix", ["X", ""])
    def test_fresh_prefix_not_printing_as_atoms_rejected(self, capsys, data_dir, prefix):
        code, out, err = run(
            capsys, "translate", str(data_dir / "translate_fresh.nom"), "--fresh-prefix", prefix
        )
        assert code == 2 and err.startswith("error:") and not out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[a] a =? [b] b"))
        code, out, _ = run(capsys, "alpha", "-")
        assert code == 0 and "derivable" in out

    def test_fresh_prefix_avoids_user_atoms(self, capsys, monkeypatch):
        # c0 is a user atom.  Names with the default prefix never collide,
        # so with prefix c the output must show as many distinct names.
        names = []
        for prefix in ("#c", "c"):
            monkeypatch.setattr("sys.stdin", io.StringIO("context: c0 fresh X ; [c0] X =? [a] Y"))
            code, out, _ = run(capsys, "unify", "-", "--fresh-prefix", prefix)
            assert code == 0
            names.append(set(re.findall(r"#?\w+", out)))
        default, custom = names
        assert {"#c0", "#c1", "#c2", "a", "c0"} <= default
        assert len(custom) == len(default)

    def test_dedup(self, capsys, data_dir):
        base, out1, _ = run(capsys, "cunify", str(data_dir / "cunify_two_mgu.nom"), "--json")
        dedup, out2, _ = run(
            capsys, "cunify", str(data_dir / "cunify_two_mgu.nom"), "--json", "--dedup"
        )
        assert base == dedup == 0
        assert json.loads(out1)["solutions"] == json.loads(out2)["solutions"]

    def test_trace_lines(self, capsys, data_dir):
        code, out, _ = run(capsys, "unify", str(data_dir / "unify_abs.nom"), "--trace")
        assert code == 0
        assert "eq-abs-rename" in out


class TestDeepChain:
    def test_four_hundred_equation_chain_prints(self, capsys, monkeypatch):
        n = 400
        text = ",\n".join(f"X{i} =? f((X{i + 1}, a))" for i in range(n))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "unify", "-", "--json")
        assert code == 0
        (x0,) = [e["term"] for e in json.loads(out)["subst"] if e["var"] == "X0"]
        assert x0 == "f(" * n + f"X{n}" + ", a)" * n

    def test_seven_hundred_equation_tree_renders(self, capsys, monkeypatch):
        n = 700
        text = "sym + : C ;\n+(Y, a) =? +(a, b),\n" + ",\n".join(f"X{i} =? f((X{i + 1}, a))" for i in range(n))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "cunify", "-", "--tree")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "solved: 1 solution(s)"
        # the C pair branches at the root; the solved branch then takes one
        # step for a =? a, one for Y and one per equation, a level each
        assert lines[-1] == "  " * (n + 3) + "(empty) <success>"

    def test_seven_hundred_step_tree_encodes(self, capsys, monkeypatch):
        # 700 nested applications rather than 700 chained equations: every
        # node lists its problem, indented by depth, so the chain's --json
        # tree would take about 500 MB; this one reaches the same depth in 22
        n = 700
        text = "sym + : C ;\n+(Y, a) =? +(a, b),\n" + "f(" * n + "X" + ")" * n + " =? " + "f(" * n + "a" + ")" * n
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "cunify", "-", "--json", "--tree")
        assert code == 0
        # the stdlib decoder recurses at every nested list and dict
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10 * n)
        try:
            payload = json.loads(out)
        finally:
            sys.setrecursionlimit(limit)
        assert payload["status"] == "solved" and payload["leaves"] == 2
        node, depth = payload["tree"], 0
        while "children" in node:
            node, depth = node["children"][-1], depth + 1
        # the C pair branches at the root; the crossed branch then takes one
        # step for a =? a, one per application and one for each of X and Y
        assert depth == n + 4
        assert node["constraints"] == [] and node["leaf"] == "success"

    def test_six_hundred_nested_applications_answer(self, capsys, monkeypatch):
        t = "f(" * 600 + "a" + ")" * 600
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{t} =? {t}"))
        code, out, _ = run(capsys, "alpha", "-", "--json")
        assert code == 0
        assert json.loads(out)["derivable"] is True


class TestSelfcheck:
    def test_passes_with_seeded_rng(self, capsys, monkeypatch):
        monkeypatch.setenv("NOMFIX_SEED", "7")
        code, out, _ = run(capsys, "selfcheck")
        assert code == 0
        assert "0 disagreements" in out

    def test_unverified_unifier_fails(self, capsys, monkeypatch):
        monkeypatch.setattr("nomfix.cli.verify_solution", lambda *args: False)
        code, out, _ = run(capsys, "selfcheck", "--json")
        payload = json.loads(out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["unverified"] > 0 and payload["solutions_verified"] == 0


JSON_LIKE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


class TestJsonWriter:
    """--json output comes from cli's own writer, which must give exactly
    the bytes of json.dumps(v, indent=2)."""

    @given(JSON_LIKE)
    @example(["\u00e9\U0001f600", 'q"', "\\", "\x00\x1f\n\t\x7f"])
    @example([True, False, None, 0, -1, -(2**70), 2**70])
    @example({"t": True, "f": False, "n": None, "i": 1})
    @example({"e": {}, "l": [], "nested": [{}, [[]], {"x": [{"y": "z"}]}]})
    def test_matches_the_stdlib(self, value):
        assert _to_json(value) == json.dumps(value, indent=2)
