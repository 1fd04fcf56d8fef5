import errno
import hashlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from certificate import check_tree
from gen import SIG_C, SIG_PLAIN, VARS, random_fixp_context, random_perm, random_term
from test_cunify import chained_pairs, dedup_c_problem, one_solution_pairs, parted_c_problem
from test_unify import random_problem
from nomfix import (
    Eq,
    Fix,
    FixpointContext,
    Permutation,
    Substitution,
    Susp,
    Var,
    c_unify,
    parse_constraint,
    parse_problem_file,
    unify,
)
from nomfix import cli
from nomfix.cli import _emit, main
from nomfix.printer import print_perm, print_subst, print_term
from nomfix.syntax import GENERATED_PREFIX
from nomfix.unify import Solution


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
        ("cunify", "cunify_dedup_parts.nom", 0),
        ("alpha", "alpha_forall.nom", 0),
        ("alpha", "alpha_renamed_ground.nom", 1),
        ("alpha", "alpha_ac_lookalike.nom", 1),
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

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.nom"
        path.write_bytes("a =? a // caf\xe9\n".encode("latin-1"))
        code, out, err = run(capsys, "alpha", str(path))
        assert code == 2 and err.startswith("error:") and not out

    @pytest.mark.parametrize(
        "exc",
        [
            RecursionError("maximum recursion depth exceeded"),
            AssertionError("no decrease"),
            ValueError("not enough values to unpack (expected 2, got 3)"),
        ],
    )
    @pytest.mark.parametrize(
        "command, name, target",
        [("alpha", "alpha_forall.nom", "check_alpha_fixp"), ("unify", "unify_abs.nom", "unify")],
    )
    def test_internal_error_exits_3(self, capsys, monkeypatch, data_dir, exc, command, name, target):
        """An exception that is not an input error is nomfix's own fault: it
        exits 3 with its type and message on stderr, never 1, which would
        read as underivable or unsolvable."""

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, target, fail)
        code, out, err = run(capsys, command, str(data_dir / name))
        assert (code, out) == (3, "")
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"


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
        tree = payload["tree"]
        assert [r["id"] for r in tree] == list(range(len(tree)))
        assert [r for r in tree if r["parent"] == 0]
        leaves = [r for r in tree if "outcome" in r]
        assert len(leaves) == payload["leaves"]
        assert sum("solution" in r for r in leaves) == len(payload["solutions"])

    @pytest.mark.parametrize("name", ["cunify_two_mgu.nom", "cunify_fix_var.nom"])
    def test_cunify_tree_is_a_certificate(self, capsys, data_dir, name):
        # generated atoms under a plain prefix parse back, so the printed
        # tree replays from its root's problem
        text = (data_dir / name).read_text()
        code, out, _ = run(capsys, "cunify", str(data_dir / name), "--json", "--tree", "--fresh-prefix", "n")
        assert code == 0
        tree = json.loads(out)["tree"]
        sig = parse_problem_file(text).signature
        check_tree(sig, [parse_constraint(c, sig) for c in tree[0]["problem"]], tree)

    def test_check_trace_records(self, capsys, data_dir):
        code, out, _ = run(capsys, "alpha", str(data_dir / "alpha_forall.nom"), "--json", "--trace")
        assert code == 0
        payload = json.loads(out)
        trace = payload["trace"]
        assert [r["id"] for r in trace] == list(range(len(trace)))
        roots = [r for r in trace if r["parent"] is None]
        assert [r["ok"] for r in roots] == [r["derivable"] for r in payload["results"]]
        assert all(r["parent"] is None or r["parent"] < r["id"] for r in trace)
        assert set(trace[0]) == {"id", "parent", "rule", "goal", "ok"}

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
            "n",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(re.search(r"\bn\d", e["perm"]) for e in payload["context"])

    @pytest.mark.parametrize("prefix", ["X", "", "%n", "_", "a-"])
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

    def test_sig_file_declares_commutative_symbols(self, capsys, tmp_path):
        problem, sig = tmp_path / "p.nom", tmp_path / "c.sig"
        problem.write_text("+(X, Y) =? +(a, b)\n")
        sig.write_text("sym + : C ;\n")
        code, out, _ = run(capsys, "cunify", str(problem))
        assert code == 0 and out.startswith("solved: 1 solution(s)\n")
        code, out, _ = run(capsys, "cunify", str(problem), "--sig", str(sig))
        assert code == 0 and out.startswith("solved: 2 solution(s)\n")

    def test_missing_sig_file_rejected(self, capsys, tmp_path, data_dir):
        code, out, err = run(capsys, "cunify", str(data_dir / "cunify_two_mgu.nom"), "--sig", str(tmp_path / "none"))
        assert code == 2 and err.startswith("error:") and not out

    def test_sig_file_with_unknown_theory_rejected(self, capsys, tmp_path, data_dir):
        sig = tmp_path / "q.sig"
        sig.write_text("sym + : Q ;\n")
        code, out, err = run(capsys, "cunify", str(data_dir / "cunify_two_mgu.nom"), "--sig", str(sig))
        assert code == 2 and "1:9: unknown theory 'Q'" in err and not out

    @pytest.mark.parametrize("sig_text", [None, "sym f : C ;\n"], ids=["one-file", "sig-file"])
    def test_symbol_redeclared_with_another_theory_rejected(self, capsys, tmp_path, sig_text):
        problem = tmp_path / "p.nom"
        problem.write_text(("sym f : C ;\n" if sig_text is None else "") + "sym f : A ;\nf(a, b) =? f(b, a)\n")
        sig = tmp_path / "c.sig"
        sig.write_text(sig_text or "")
        code, out, err = run(capsys, "alpha", str(problem), "--sig", str(sig))
        assert (code, out, err) == (2, "", f"error: {1 if sig_text else 2}:9: symbol f declared C, then A\n")

    def test_symbol_redeclared_with_the_same_theory_accepted(self, capsys, tmp_path):
        problem, sig = tmp_path / "p.nom", tmp_path / "c.sig"
        problem.write_text("sym f : C ;\nsym f : C ;\nf(a, b) =? f(b, a)\n")
        sig.write_text("sym f : C ;\n")
        for extra in ([], ["--sig", str(sig)]):
            assert run(capsys, "alpha", str(problem), *extra) == (0, "f(a, b) =? f(b, a) : derivable\n", "")

    def test_files_are_read_as_utf8(self, tmp_path):
        # a problem file and a --sig file are UTF-8 under any locale: a read
        # in the locale's encoding warns under warn_default_encoding, and
        # -W error makes the warning an internal error
        problem, sig = tmp_path / "p.nom", tmp_path / "c.sig"
        problem.write_text("// \u00e7a commute\n+(a, b) =?\u00a0+(b, a)\n", encoding="utf-8")
        sig.write_text("// d\u00e9clar\u00e9\nsym + : C ;\n", encoding="utf-8")
        argv = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "nomfix.cli", "alpha"]
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, *argv, str(problem), "--sig", str(sig)], capture_output=True, encoding="utf-8", env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "+(a, b) =? +(b, a) : derivable\n", "")


class TestOnlyTheChosenOutputIsBuilt:
    """Each mode builds only what it prints: --json no text lines, text
    mode no payload."""

    @staticmethod
    def counting(monkeypatch, cls, name, counts):
        fn = getattr(cls, name)
        counts[name] = 0

        def counted(self):
            counts[name] += 1
            return fn(self)

        monkeypatch.setattr(cls, name, counted)

    @pytest.mark.parametrize("mode", [(), ("--json",)])
    def test_prints(self, capsys, monkeypatch, data_dir, mode):
        counts = {}
        self.counting(monkeypatch, Eq, "__str__", counts)
        self.counting(monkeypatch, Solution, "key", counts)
        assert run(capsys, "alpha", str(data_dir / "alpha_forall.nom"), *mode)[0] == 0
        goals = parse_problem_file((data_dir / "alpha_forall.nom").read_text()).constraints
        assert counts == {"__str__": len(goals), "key": 0}
        counts.update({"__str__": 0})
        assert run(capsys, "unify", str(data_dir / "unify_abs.nom"), *mode)[0] == 0
        assert counts == {"__str__": 0, "key": 0 if mode else 1}
        counts.update({"key": 0})
        code, out, _ = run(capsys, "cunify", str(data_dir / "cunify_two_mgu.nom"), *mode)
        # c_unify's sort reads each key once; the text lines read them again
        assert code == 0 and counts == {"__str__": 0, "key": 2 if mode else 4}


    @pytest.mark.parametrize("trace", [(), ("--trace",)], ids=["plain", "trace"])
    def test_translate(self, capsys, monkeypatch, data_dir, trace):
        def unprinted(*_):
            raise AssertionError("built an output that is not printed")

        path = str(data_dir / "translate_fresh.nom")
        with monkeypatch.context() as m:
            m.setattr(cli, "_fixp_entry", unprinted)
            code, out, _ = run(capsys, "translate", path, *trace)
        assert code == 0 and out.startswith("{(")
        with monkeypatch.context() as m:
            m.setattr(FixpointContext, "__str__", unprinted)
            code, out, _ = run(capsys, "translate", path, "--json", *trace)
        assert code == 0 and json.loads(out)["kind"] == "fixpoint"


class TestOnlyTheUsedContextIsBuilt:
    """A command translates the file's context only into the presentation
    its engine reads: fresh reads a freshness context, the others fixed
    points."""

    @pytest.mark.parametrize("command,text,unused", [
        ("fresh", "context: c fresh X ; a fresh? (a c).X", "fresh_to_fixp"),
        ("alpha", "context: (a b) fix X ; [a] (X, a) =? [b] (X, b)", "fixp_to_fresh"),
        ("fixp", "context: (a c) fix X ; (a b) fix? (b c).X", "fixp_to_fresh"),
        ("unify", "context: (a b) fix X ; [a] (X, a) =? [b] (Y, b)", "fixp_to_fresh"),
        ("cunify", "sym + : C ;\ncontext: (a b) fix X ; +(X, a) =? +(c, Y)", "fixp_to_fresh"),
    ], ids=["fresh", "alpha", "fixp", "unify", "cunify"])
    def test_answers_without_the_other_translation(self, capsys, monkeypatch, tmp_path, command, text, unused):
        def untranslated(*_, **__):
            raise AssertionError(f"built a context with {unused} that is not read")

        path = tmp_path / "p.nom"
        path.write_text(text)
        want = run(capsys, command, str(path), "--json", "--trace")
        assert want[0] == 0, want
        monkeypatch.setattr(cli, unused, untranslated)
        assert run(capsys, command, str(path), "--json", "--trace") == want


class TestPrintedAnswersReadBack:
    """With --fresh-prefix n, every context entry and binding that unify,
    cunify and translate print over the corpus is a constraint the parser
    reads back: generated atoms are named as user atoms are."""

    @staticmethod
    def constraints(payload) -> list[str]:
        answers = payload.get("solutions", [payload])
        out = []
        for answer in answers:
            for e in answer.get("context", []):
                out.append(f"{e['perm']} fix? {e['var']}" if "perm" in e else f"{e['atom']} fresh? {e['var']}")
            out += [f"{e['var']} =? {e['term']}" for e in answer.get("subst", [])]
        return out

    @pytest.mark.parametrize("command", ["unify", "cunify", "translate"])
    def test_corpus(self, capsys, data_dir, command):
        generated = 0
        for path in sorted(data_dir.glob("*.nom")):
            code, out, _ = run(capsys, command, str(path), "--json", "--fresh-prefix", "n")
            if code == 2:
                continue
            for text in self.constraints(json.loads(out)):
                parse_constraint(text)
                generated += bool(re.search(r"\bn\d", text))
        assert generated > 0


class TestDeepChain:
    # the deep inputs of the benchmark (perfbench/families.py, DEEP), each
    # derived on the engines' one stack far past the default recursion limit
    @pytest.mark.parametrize("kind, depth", [("abs", 300), ("app", 600), ("app", 1500), ("abs", 1500)])
    def test_benchmark_deep_inputs_answer(self, capsys, monkeypatch, kind, depth):
        assert sys.getrecursionlimit() == 1000
        t = "f(" * depth + "a" + ")" * depth if kind == "app" else "[a] " * depth + "a"
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{t} =? {t}\n"))
        code, out, err = run(capsys, "alpha", "-")
        assert (code, err) == (0, "")
        assert out.endswith(": derivable\n")

    def test_four_hundred_equation_chain_prints(self, capsys, monkeypatch):
        n = 400
        text = ",\n".join(f"X{i} =? f((X{i + 1}, a))" for i in range(n))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "unify", "-", "--json")
        assert code == 0
        (x0,) = [e["term"] for e in json.loads(out)["subst"] if e["var"] == "X0"]
        assert x0 == "f(" * n + f"X{n}" + ", a)" * n

    @staticmethod
    def chain(n: int) -> str:
        # a C pair, then n chained equations X0 =? f((X1, a)), X1 =? f((X2, a)), ...
        return "sym + : C ;\n+(Y, a) =? +(a, b),\n" + ",\n".join(f"X{i} =? f((X{i + 1}, a))" for i in range(n))

    def test_seven_hundred_equation_tree_renders(self, capsys, monkeypatch):
        n = 700
        monkeypatch.setattr("sys.stdin", io.StringIO(self.chain(n)))
        code, out, _ = run(capsys, "cunify", "-", "--tree")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "solved: 1 solution(s)"
        # the C pair and the chain are two parts, each below an AND node at
        # level 1; the chain's part takes one step per equation, a level
        # each, so its last step, at level n + 1, is the deepest
        last = lines[-1]
        assert last.startswith("  " * (n + 1) + "[eq-inst") and last.endswith(" <success>")
        assert max(len(ln) - len(ln.lstrip(" ")) for ln in lines) == 2 * (n + 1)

    def test_seven_hundred_step_tree_encodes(self, capsys, monkeypatch):
        n = 700
        monkeypatch.setattr("sys.stdin", io.StringIO(self.chain(n)))
        code, out, _ = run(capsys, "cunify", "-", "--json", "--tree")
        assert code == 0
        # a few MB: the solution, whose X0 holds n applications, takes about
        # 1.5 MB in solutions and again at its part's leaf; the other
        # records name one step or one part each, so they grow linearly in n
        assert len(out) < 4_000_000
        # flat records load at the default recursion limit
        payload = json.loads(out)
        assert payload["status"] == "solved" and payload["leaves"] == 2
        tree = payload["tree"]
        assert sum(len(json.dumps(r)) for r in tree if "solution" not in r) < 300 * n
        # one success in each part: the C pair's, and the chain's last
        _, leaf = [r for r in tree if r.get("outcome") == "success"]
        path = [leaf]
        while path[-1]["parent"] is not None:
            path.append(tree[path[-1]["parent"]])
        # the path holds the root, the chain's AND node, then one step per
        # equation
        assert len(path) == n + 2
        assert path[-2]["rule"] == "part" and len(path[-2]["problem"]) == n
        assert path[-1]["problem"][0] == "+(Y, a) =? +(a, b)" and len(path[-1]["problem"]) == n + 1

    def test_six_hundred_nested_applications_answer(self, capsys, monkeypatch):
        t = "f(" * 600 + "a" + ")" * 600
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{t} =? {t}"))
        code, out, _ = run(capsys, "alpha", "-", "--json")
        assert code == 0
        assert json.loads(out)["derivable"] is True

    @pytest.mark.parametrize("command", ["unify", "cunify"])
    def test_fifteen_hundred_applications_of_a_declared_symbol_solve(self, capsys, monkeypatch, command):
        # a signature makes the solvers check every symbol of the input first
        t = "f(" * 1500 + "a" + ")" * 1500
        monkeypatch.setattr("sys.stdin", io.StringIO(f"sym f : none ;\n{t} =? X"))
        code, out, _ = run(capsys, command, "-")
        assert code == 0
        assert f"{{X -> {t}}}" in out

    @pytest.mark.parametrize("command", ["unify", "cunify"])
    def test_renamed_binder_over_fifteen_hundred_applications_solves(self, capsys, monkeypatch, command):
        # eq-abs-rename applies (a b) to the whole body, 1,500 levels deep
        s, t = ("[" + x + "] " + "f(" * 1500 + x + ")" * 1500 for x in "ab")
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{s} =? {t}"))
        code, out, _ = run(capsys, command, "-")
        assert code == 0
        assert "{} |- {}" in out

    def test_five_thousand_ac_arguments_answer(self, capsys, monkeypatch):
        t = "*(" + ", ".join(f"a{i}" for i in range(5000)) + ")"
        monkeypatch.setattr("sys.stdin", io.StringIO(f"sym * : AC ;\n{t} =? {t}"))
        code, out, _ = run(capsys, "alpha", "-")
        assert code == 0
        assert out.endswith(": derivable\n")

    def test_nine_hundred_nested_applications_trace(self, capsys, monkeypatch):
        n = 900
        t = "f(" * n + "a" + ")" * n
        for flags in (["--json"], []):
            monkeypatch.setattr("sys.stdin", io.StringIO(f"{t} =? {t}"))
            code, out, _ = run(capsys, "alpha", "-", "--trace", *flags)
            assert code == 0
            if flags:
                trace = json.loads(out)["trace"]
                # one record per level: n applications and the atom
                assert len(trace) == n + 1 and all(r["ok"] for r in trace)
                assert [r["parent"] for r in trace] == [None, *range(n)]
            else:
                lines = out.splitlines()
                assert lines[0].endswith(": derivable") and len(lines) == n + 2
                assert lines[-1] == "  " * n + "+ [eq-atom] a =? a"


# JSON values nested up to depth 4 inside a payload dict; strings favour
# the characters an encoder must escape
texts = st.text(st.sampled_from('"\\/\x00\x07\x1f\x7f\n\t\u00e9\u2028\U0001f600a ') | st.characters())
scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
           | st.floats(allow_nan=True, allow_infinity=True) | texts)


class TestChainDerivations:
    """`unify --json --trace` on equation chains, recorded before each search
    step came to read its measure data off its constraints: a leaner step
    must take the same steps, under the same names, in the same order."""

    TAILS = {
        "solved": [],
        "occurs": ["X{n} =? f((X0, a))"],
        "clash": ["X{n} =? c", "X{n} =? d"],
        "fixpoint-inconsistency": ["(c d) fix? X{n}", "X{n} =? c"],
    }
    CHAINS = {"plain": "X{i} =? f((X{j}, a))", "abs": "[a] X{i} =? [b] f(X{j})"}
    # (shape, length, outcome): (trace steps, sha256 of the output)
    PINS = {
        ("plain", 40, "occurs"): (40, "cf2ac50a3a036e32d284bcabfec4047bbd340cc8f529be89dca751a13399d551"),
        ("abs", 12, "solved"): (180, "20f592adbc59a644ca63e0fc23f5131df72e7a6dbfc424b96760cbc62c1cffcd"),
        ("abs", 12, "clash"): (205, "f36539fa57e0035dffeb33fa0c4989efa3184f383eecc29a289874237c3f10f0"),
        ("abs", 12, "fixpoint-inconsistency"): (205, "f8ea91f096e4cdb846bd0afc054e9a7e50bee11a135dfbac5c1a5aa13c3cb47d"),
    }

    @classmethod
    def problem(cls, shape, n, outcome):
        goals = [cls.CHAINS[shape].format(i=i, j=i + 1) for i in range(n)]
        return ",\n".join(goals + [t.format(n=n) for t in cls.TAILS[outcome]]) + "\n"

    @pytest.mark.parametrize("shape, n, outcome", list(PINS))
    def test_trace_is_pinned(self, capsys, monkeypatch, shape, n, outcome):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.problem(shape, n, outcome)))
        code, out, err = run(capsys, "unify", "-", "--json", "--trace")
        payload = json.loads(out)
        assert (code, err) == ((0, "") if outcome == "solved" else (1, ""))
        assert payload.get("witness", {}).get("kind", "solved") == outcome
        steps, digest = self.PINS[shape, n, outcome]
        assert (len(payload["trace"]), hashlib.sha256(out.encode()).hexdigest()) == (steps, digest)


def nested(depth):
    values = scalars
    for _ in range(depth):
        values = (values | st.lists(values, max_size=3) | st.lists(values, max_size=3).map(tuple)
                  | st.dictionaries(texts, values, max_size=3))
    return values


# what may stand for a top-level list: itself, a generator, a map object
streams = st.sampled_from([list, lambda v: (x for x in v), lambda v: map(lambda x: x, v)])


def emitted(payload) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        _emit(SimpleNamespace(json=True), lambda: payload, None)
    return out.getvalue()


class TestJsonWriter:
    """--json is written piece by piece, with the bytes of
    json.dumps(payload, indent=2) and a newline."""

    @given(st.dictionaries(texts, nested(3), max_size=5), streams)
    @example({}, list)
    @example({"a": [], "b": {}, "c": [[], {}, [{}]], "d": True, "e": 1, "f": False, "g": 0, "h": None}, list)
    @example({"a": [], "b": [True, 1, [], {}]}, lambda v: map(lambda x: x, v))
    @example({"a": [], "b": [False, 0]}, lambda v: (x for x in v))
    # constants, 0, 1 and "" as members of nested dicts and lists, which are
    # written inline: a bool is not an int there, nor 0 or "" None
    @example({"d": {"t": True, "f": False, "z": 0, "o": 1, "n": None, "s": ""}}, list)
    @example({"l": [[True, False, 0, 1, None, ""], {"t": True, "o": 1, "s": ""}]}, list)
    @example({"l": [{"f": False, "z": 0, "n": None, "l": [[None, ""], (True, 1), {"f": False}]}]}, lambda v: iter(v))
    def test_same_bytes_as_json_dumps(self, payload, stream):
        want = json.dumps(payload, indent=2) + "\n"
        lists = {k: stream(v) if type(v) is list else v for k, v in payload.items()}
        assert emitted(lists) == want

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", [1, {"x": object()}],
                                       [True, None, "", {1, 2}], {"t": True, "z": 0, "b": b""}, [[None, object()]]])
    def test_what_json_cannot_hold_raises_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps({"v": value}, indent=2)
        with pytest.raises(TypeError):
            emitted({"v": value})


class ClosedPipe:
    """A stdout whose reader has gone, as after `| head`: every write
    raises, as on a pipe; fileno is a descriptor the test owns."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass

    def fileno(self):
        return self.fd


variables = st.lists(st.sampled_from(["X", "Y", "Z", "X1", "X10", "X2", "Xa", "x", "Y'", "Z_0"]), unique=True,
                     max_size=6).map(lambda names: [Var(n) for n in names])


class TestSolutionTexts:
    """A solution's key and its --json bindings read one list of printed
    bindings; each is what printing the substitution itself gives.  The
    solution writer writes each binding's object once: a second solution
    holding the same bindings gets the same texts."""

    @given(st.integers(min_value=0, max_value=2**32 - 1), variables)
    def test_key_and_payload_print_the_substitution(self, seed, xs):
        rng = random.Random(seed)
        subst = Substitution({x: random_term(rng, SIG_C, depth=rng.randrange(4)) for x in xs})
        sol = Solution(random_fixp_context(rng), subst)
        write = cli._solution_writer("    ")
        members = write(sol)
        assert sol.key() == f"{sol.context} |- {print_subst(subst)}"
        assert [json.loads(text) for text in members["subst"]] == [
            {"var": x.name, "term": print_term(t)} for x, t in sorted(subst.bindings.items())]
        again = write(Solution(sol.context, subst, sol.bindings()))
        assert again == members and all(a is b for k in members for a, b in zip(again[k], members[k]))
        assert str(sol) == sol.key()


def reference_solution(sol: Solution) -> dict:
    """A solution's --json members as the CLI built them before its writer
    shared each binding's and context entry's object between solutions:
    new dicts for every solution."""
    return {
        "context": [{"perm": print_perm(p), "var": x.name} for p, x in sol.context.entries()],
        "subst": [{"var": x, "term": t} for x, t in sol.bindings()],
    }


PAIR_FORMS = ("+(X{i}, Y{i}) =? +(a{i}, b{i})", "+(X{i}, a{i}) =? +(b{i}, a{i})", "+(X{i}, X{i}) =? +(a{i}, a{i})",
              "+((a{i} b{i}).X{i}, a{i}) =? +(Y{i}, X{i})", "(a b) fix? Z{i}")


def pair_problem(rng) -> tuple:
    """One to six independent parts, each of a random PAIR_FORMS: two
    solutions, one, two equal ones, two of which one has a context entry,
    or one that is a context entry.  So their product is solvable, and its
    combinations share bindings and context entries."""
    return tuple(parse_constraint(rng.choice(PAIR_FORMS).format(i=i), SIG_C) for i in range(rng.randrange(1, 7)))


def solvable_unify_problem(rng) -> tuple:
    """A random_problem over plain symbols, with a fixed-point constraint on a
    variable beside it, that unify solves: the first of up to 200 drawn."""
    for _ in range(200):
        pr = (*random_problem(rng, SIG_PLAIN), Fix(random_perm(rng), Susp(Permutation.identity(), rng.choice(VARS))))
        if unify(pr).solved:
            return pr
    return None


class TestSolutionJson:
    """cunify --json, with --dedup or --tree, and unify --json, on random
    problems written to files, write exactly json.dumps(payload, indent=2)
    and a newline, where payload is built from the solutions the API gives
    for the same file, one new dict per binding and context entry of each.
    Most parted_c_problems are unsolvable, so pair_problems are drawn too.
    cunify problems of more than 256 solutions are left out, for time."""

    @staticmethod
    def run_on_file(tmp_path_factory, pr, command, *flags):
        """main's output on pr, written to a file; then the file's problem and
        generator of new atoms, as the command reads them."""
        path = tmp_path_factory.getbasetemp() / "solutions.nom"
        path.write_text("sym + : C ;\n" + ",\n".join(map(str, pr)) + "\n")
        out = io.StringIO()
        with redirect_stdout(out):
            main([command, "--json", *flags, str(path)])
        args = SimpleNamespace(file=str(path), sig=None, fresh_prefix=GENERATED_PREFIX)
        pf, gen = cli._read_problem(args)
        return out.getvalue(), cli._initial_problem(pf, gen), pf.signature, gen

    @settings(deadline=None, max_examples=150)
    @given(
        st.sampled_from([parted_c_problem, dedup_c_problem, pair_problem]),
        st.sampled_from([(), ("--dedup",), ("--tree",)]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cunify(self, tmp_path_factory, make, flags, seed):
        pr = make(random.Random(seed))
        if len(c_unify(pr, SIG_C, dedup="--dedup" in flags).solutions) > 256:
            return
        out, pr, sig, gen = self.run_on_file(tmp_path_factory, pr, "cunify", *flags)
        res = c_unify(pr, sig, gen=gen, dedup="--dedup" in flags)
        payload = {"status": res.status, "solutions": [reference_solution(s) for s in res.solutions],
                   "leaves": res.leaves}
        if "--tree" in flags:
            payload["tree"] = res.tree
        assert out == json.dumps(payload, indent=2) + "\n"

    @settings(deadline=None, max_examples=150)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_unify(self, tmp_path_factory, seed):
        pr = solvable_unify_problem(random.Random(seed))
        if pr is None:
            return
        out, pr, sig, gen = self.run_on_file(tmp_path_factory, pr, "unify")
        res = unify(pr, sig=sig, gen=gen)
        assert out == json.dumps({"status": "solved", **reference_solution(res.solution)}, indent=2) + "\n"


class TestClosedPipe:
    @pytest.mark.parametrize("argv,code", [
        (["cunify", "--json", "--tree", "cunify_two_mgu.nom"], 0),
        (["cunify", "--tree", "cunify_two_mgu.nom"], 0),
        (["fixp", "--trace", "fixp_xor_c.nom"], 1),
        (["unify", "--json", "unify_clash.nom"], 1),
    ])
    def test_verdict_stands_and_stdout_goes_to_devnull(self, capsys, monkeypatch, data_dir, argv, code):
        r, w = os.pipe()
        try:
            monkeypatch.setattr("sys.stdout", ClosedPipe(w))
            assert main([*argv[:-1], str(data_dir / argv[-1])]) == code
            # the flush at exit now writes to os.devnull, and cannot fail
            assert os.path.samestat(os.fstat(w), os.stat(os.devnull))
        finally:
            os.close(r)
            os.close(w)
        assert capsys.readouterr().err == ""


class FullDisk:
    """A stdout on a full disk: every write raises ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_failed_write_to_stdout_exits_2(capsys, monkeypatch, data_dir):
    """An OSError while writing the answer, other than a closed pipe, is an
    error of the run's input and output: exit 2, with the error on stderr."""
    monkeypatch.setattr("sys.stdout", FullDisk())
    assert main(["unify", str(data_dir / "unify_abs.nom")]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


class ByteSink:
    """A stdout that keeps nothing, only counts the bytes written."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text)

    def flush(self):
        pass


class ByteCount(ByteSink):
    """A ByteSink that notes too, at each write, how many tree records had
    been made by then."""

    def __init__(self, made):
        super().__init__()
        self.made, self.seen = made, []

    def write(self, text):
        super().write(text)
        self.seen.append(len(self.made))


class TestStreamedTree:
    """cunify --tree, with --json or in text, writes each tree record as it
    is made, and neither the tree nor the whole text is ever held."""

    K = 8

    @pytest.mark.parametrize("mode", [["--json"], []])
    def test_records_stream_to_stdout(self, monkeypatch, tmp_path, mode):
        # K pairs chained into one part: one tree of 2^K leaves
        path = tmp_path / "chained.nom"
        path.write_text("sym + : C ;\n" + ",\n".join(map(str, chained_pairs(self.K))))
        results, made = [], []
        monkeypatch.setattr("nomfix.cli.c_unify", lambda *a, **kw: results.append(c_unify(*a, **kw)) or results[-1])
        records = sys.modules["nomfix.cli"].tree_records

        def counted(*args):
            for record in records(*args):
                made.append(record["id"])
                yield record

        monkeypatch.setattr("nomfix.cli.tree_records", counted)
        sink = ByteCount(made)
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            assert main(["cunify", *mode, "--tree", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (res,) = results
        assert "tree" not in res.__dict__
        assert made == list(range(len(made))) and len(made) > 2**self.K
        # every record is written before the next one is made
        assert set(range(1, len(made) + 1)) <= set(sink.seen)
        if mode:  # in text, the search's own state sets the peak, not the output
            assert peak < 5 * sink.bytes, (peak, sink.bytes)

    def test_json_tree_grows_linearly_in_parts(self, tmp_path):
        # k one-solution pairs are k parts of two leaves, each below an AND
        # node of its own: doubling k at most doubles the records and the
        # bytes, give or take the root
        sizes = []
        for k in (6, 12):
            path = tmp_path / f"pairs{k}.nom"
            path.write_text("sym + : C ;\n" + ",\n".join(map(str, one_solution_pairs(k))))
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["cunify", "--json", "--tree", str(path)]) == 0
            payload = json.loads(out.getvalue())
            sizes.append((len(payload["tree"]), len(out.getvalue()), payload))
        (records, size, _), (records2, size2, payload) = sizes
        assert records2 <= 2.2 * records and size2 <= 2.2 * size, sizes[0][:2] + sizes[1][:2]
        assert payload["leaves"] == 2**12 and sum("outcome" in r for r in payload["tree"]) == 2 * 12


class TestSelfcheck:
    def test_takes_json_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selfcheck", "--trace"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trace" in capsys.readouterr().err

    def test_passes_with_seeded_rng(self, capsys, monkeypatch):
        monkeypatch.setenv("NOMFIX_SEED", "7")
        code, out, _ = run(capsys, "selfcheck")
        assert code == 0
        assert "0 disagreements" in out

    def test_non_integer_seed_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("NOMFIX_SEED", "x")
        code, out, err = run(capsys, "selfcheck")
        assert code == 2 and err == "error: NOMFIX_SEED is not an integer: 'x'\n" and not out

    def test_unverified_unifier_fails(self, capsys, monkeypatch):
        monkeypatch.setattr("nomfix.cli.verify_solution", lambda *args: False)
        code, out, _ = run(capsys, "selfcheck", "--json")
        payload = json.loads(out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["unverified"] > 0 and payload["solutions_verified"] == 0

