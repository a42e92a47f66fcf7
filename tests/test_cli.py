"""Exit-code protocol and output stability of the command-line front end."""

import json
from pathlib import Path

import pytest

from theorybench import cli
from theorybench.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def invoke(capsys):
    def run(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")

    return run


class TestDecisionCommands:
    def test_provable(self, invoke):
        code, out, _ = invoke("decide", "A[0] | ~A[0]")
        assert (code, out) == (0, "PROVABLE")

    def test_not_provable(self, invoke):
        code, out, _ = invoke("decide", "A[1]")
        assert (code, out) == (1, "NOT-PROVABLE")

    def test_qe_minterms(self, invoke):
        code, out, _ = invoke("qe", "A[0] & ~A[1]")
        assert code == 0
        assert out == "+A0 -A1"

    def test_qe_top(self, invoke):
        assert invoke("qe", "exists x. E(x, x)")[1] == "TOP"

    def test_configs_count_first(self, invoke):
        code, out, _ = invoke("configs", "--n", "2", "--vars", "x")
        assert out.splitlines()[0] == "3"

    def test_ovee(self, invoke):
        assert invoke("ovee", "--decide", "P | ~P")[0] == 0
        assert invoke("ovee", "--decide", "A_left[0]")[0] == 1


class TestMachineCommands:
    def test_run_halting(self, invoke):
        code, out, _ = invoke("run", "--prog", str(FIXTURES / "even.cm"),
                              "--input", "4", "--steps", "100")
        assert (code, out) == (0, "YES 8")

    def test_run_budget(self, invoke):
        code, out, _ = invoke("run", "--prog", str(FIXTURES / "even.cm"),
                              "--input", "3", "--steps", "50")
        assert code == 2 and out.startswith("UNKNOWN")

    def test_shoenfield_sets_disjoint(self, invoke):
        code, out, _ = invoke(
            "shoenfield", "--a", str(FIXTURES / "even.cm"),
            "--table", str(FIXTURES / "table_small"),
            "--xmax", "40", "--bound", "2000", "--emit", "b,c")
        assert code == 0
        b_line, c_line = out.splitlines()
        b = set(map(int, b_line.split(":")[1].split()))
        c = set(map(int, c_line.split(":")[1].split()))
        assert not b & c

    def test_reduce(self, invoke):
        base = ["reduce", "--a", str(FIXTURES / "even.cm"), "--d-index", "3",
                "--table", str(FIXTURES / "table_full"), "--bound", "10000"]
        assert invoke(*base, "--w", "10")[:2] == (0, "YES")
        assert invoke(*base, "--w", "11")[:2] == (1, "NO")

    def test_sch_decide_unknown_on_tiny_budget(self, invoke):
        code, out, _ = invoke(
            "sch-decide", "--a", str(FIXTURES / "even.cm"),
            "--table", str(FIXTURES / "table_small"),
            "--query", "A[0]", "--budget", "1")
        assert (code, out) == (2, "UNKNOWN")

    def test_so_axiom_dump_format(self, invoke):
        code, out, _ = invoke("so", "--a", str(FIXTURES / "halt.cm"),
                              "--b", str(FIXTURES / "diverge.cm"),
                              "--emit-axioms", "3")
        for i, line in enumerate(out.splitlines()):
            index, sentence = line.split("\t")
            assert int(index) == i and sentence


class TestTnCommands:
    def test_verify(self, invoke):
        code, out, _ = invoke("tn", "verify", "--cap", "4")
        assert code == 0
        assert out.splitlines()[0] == "YES"
        assert len(out.splitlines()) == 11

    def test_bracket_found(self, invoke):
        code, out, _ = invoke("tn", "bracket", "--sigma",
                              "exists y. y + y = S(S(S(S(0))))", "--search", "12")
        assert (code, out) == (0, "YES 5")

    def test_bracket_not_found(self, invoke):
        code, out, _ = invoke("tn", "bracket", "--sigma",
                              "exists y. y * y = S(S(S(0)))", "--search", "10")
        assert (code, out) == (1, "NO")

    def test_purify_roundtrip(self, invoke):
        code, out, _ = invoke("tn", "purify", "--sigma", "exists y. y = S(0)")
        assert code == 0 and out.startswith("exists")


class TestDiag:
    def test_pipeline(self, invoke):
        code, out, _ = invoke("diag", "F", "--kmax", "2",
                              "--stream", str(FIXTURES / "diag.sents"),
                              "--translations", "auto:5", "--budget", "200")
        assert code == 0
        values = list(map(int, out.split()))
        assert values[0] == 0 and values == sorted(set(values))


class TestProtocol:
    def test_usage_error_is_exit_3(self, invoke):
        assert invoke("decide")[0] == 3

    def test_unknown_subcommand_is_exit_3(self, invoke):
        assert invoke("frobnicate")[0] == 3

    def test_parse_error_is_exit_3(self, invoke):
        code, _, err = invoke("decide", "A[0] &")
        assert code == 3 and err.startswith("error:")

    def test_missing_file_is_exit_3(self, invoke):
        code, _, err = invoke("run", "--prog", "no-such.cm",
                              "--input", "0", "--steps", "5")
        assert code == 3

    def test_negative_input_is_exit_3(self, invoke):
        code, out, err = invoke("run", "--prog", str(FIXTURES / "even.cm"),
                                "--input", "-3", "--steps", "50")
        assert code == 3 and out == "" and "natural number" in err

    def test_negative_d_index_is_exit_3(self, invoke):
        code, out, err = invoke("reduce", "--a", str(FIXTURES / "even.cm"),
                                "--d-index", "-1", "--table", str(FIXTURES / "table_full"),
                                "--bound", "10000", "--w", "10")
        assert code == 3 and out == "" and "natural number" in err

    @pytest.mark.parametrize("args", [
        ("tn", "bracket", "--sigma", "exists y. y = 0", "--search", "-1"),
        ("diag", "F", "--kmax", "-1", "--stream", str(FIXTURES / "diag.sents"),
         "--budget", "200"),
        ("diag", "F", "--kmax", "2", "--stream", str(FIXTURES / "diag.sents"),
         "--budget", "-1"),
    ], ids=["tn-bracket-search", "diag-kmax", "diag-budget"])
    def test_negative_count_flag_is_exit_3(self, invoke, args):
        code, out, err = invoke(*args)
        assert code == 3 and out == "" and "natural number" in err

    def test_deep_nesting_is_exit_3(self, invoke):
        code, out, err = invoke("decide", "~" * 3000 + "true")
        assert (code, out, err) == (3, "", "error: formula nested too deeply")
        assert "Traceback" not in out + err

    def test_out_of_memory_is_exit_3(self, invoke, monkeypatch):
        def exhaust(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_decide", exhaust)
        code, out, err = invoke("decide", "A[0]")
        assert (code, out, err) == (3, "", "error: out of memory")

    @pytest.mark.parametrize("args", [
        ("decide", "~" * 800 + "true"),
        ("decide", "exists x. " + "~" * 800 + "E(x, x)"),
        ("decide", "(exists x. E(x, x)) & exists x. " + "~" * 800 + "E(x, x)"),
        ("decide", "exists y. (exists x. E(x, x)) & exists x. " + "~" * 800 + "E(x, x)"),
        ("qe", "~" * 800 + "A[1]"),
        ("ovee", "--decide", "~" * 800 + "(P -> exists x. E_left(x, x))"),
        ("tn", "bracket", "--sigma", "exists x. " + "~" * 800 + "x = 0"),
    ], ids=["decide-negations", "decide-quantified", "decide-two-leaves",
            "decide-renamed", "qe", "ovee", "tn-bracket"])
    def test_depth_800_is_answered(self, invoke, args):
        code, _, err = invoke(*args)
        assert code in (0, 1) and err == ""

    def test_json_format(self, invoke):
        code, out, _ = invoke("qe", "A[0] | A[1]", "--format", "json")
        payload = json.loads(out)
        assert payload["support"] == [0, 1]

    def test_byte_identical_reruns(self, invoke):
        args = ("qe", "A[0] & A[1] | ~A[2]")
        first = invoke(*args)
        second = invoke(*args)
        assert first == second
