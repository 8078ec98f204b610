"""End-to-end CLI behavior: outputs, formats, exit codes."""

import hashlib
import json
import io
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import peakmod
from peakmod import cli
from peakmod.cli import main

from conftest import EXAMPLE_PATH_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_figure_family(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2",
                           "--down-size", "3")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 12
        assert "uuduuduud" in lines

    def test_motzkin(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "1",
                           "--levels", "1:1", "--length", "5")
        assert code == 0 and len(out.splitlines()) == 21

    def test_empty_path_is_one_blank_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2",
                           "--down-size", "0")
        assert code == 0 and out == "\n"

    def test_ballot(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2",
                           "--end-height", "1", "--down-size", "2")
        assert code == 0 and len(out.splitlines()) == 7

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--k", "2", "--down-size", "4")
        _, second, _ = run(capsys, "enumerate", "--k", "2", "--down-size", "4")
        assert first == second


class TestHistogram:
    def test_figure_2_json(self, capsys):
        code, out, _ = run(capsys, "histogram", "--k", "2",
                           "--down-size", "3", "--variant", "plain")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 12
        tally = {tuple(e["stats"]): e["count"] for e in doc["entries"]}
        assert tally == {(0, 0, 2): 1, (0, 1, 1): 3, (1, 0, 1): 3,
                         (1, 1, 0): 3, (0, 2, 0): 1, (2, 0, 0): 1}

    def test_figure_3_json(self, capsys):
        code, out, _ = run(capsys, "histogram", "--k", "1", "--levels",
                           "1:1", "--length", "5", "--variant", "weak")
        doc = json.loads(out)
        assert doc["total"] == 21
        tally = {tuple(e["stats"]): e["count"] for e in doc["entries"]}
        assert tally == {(0, 0): 2, (0, 1): 5, (1, 0): 5,
                         (1, 1): 7, (2, 0): 1, (0, 2): 1}

    def test_empty_family(self, capsys):
        code, out, _ = run(capsys, "histogram", "--k", "2",
                           "--length", "1")
        assert code == 0
        assert json.loads(out) == {"total": 0, "entries": []}

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "histogram", "--k", "2",
                           "--down-size", "3", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "pk0,pk1,dd,count"
        assert "0,0,2,1" in lines and len(lines) == 7


class TestCount:
    @pytest.mark.parametrize("argv,expected", [
        (("count", "joint", "--k", "2", "--n", "3", "--r", "0,1,1"), "3"),
        (("count", "marginal", "--k", "2", "--n", "3", "--r", "0"), "5"),
        (("count", "pk", "--k", "2", "--n", "3", "--r", "1"), "6"),
        (("count", "narayana", "--n", "4", "--r", "2"), "6"),
        (("count", "ballot", "--k", "2", "--m", "1", "--n", "2",
          "--s", "1,1,0"), "3"),
    ])
    def test_numbers(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.strip() == expected

    def test_series_text(self, capsys):
        code, out, _ = run(capsys, "count", "series", "--k", "2",
                           "--order", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "x^1: 1"
        terms = lines[3].split(": ", 1)[1]
        coeffs = [int(t.split("*")[0]) for t in terms.split(" + ")]
        assert sum(coeffs) == 12

    def test_series_json(self, capsys):
        code, out, _ = run(capsys, "count", "series", "--k", "1",
                           "--order", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["markers"] == 2 and doc["order"] == 2

    def test_ballot_series(self, capsys):
        code, out, _ = run(capsys, "count", "series", "--k", "2",
                           "--order", "2", "--end-height", "1",
                           "--format", "json")
        doc = json.loads(out)
        total = sum(t["coefficient"] for t in doc["coefficients"][2]["terms"])
        assert total == 7

    # SHA-256 of the stdout of every `count series` call on the grid below,
    # concatenated in grid order, as the tuple-keyed series engine printed
    # it.  The orders reach the highest order the benchmark's series-scale
    # workload runs for each k.
    SERIES_ORDERS = {1: 24, 2: 12, 3: 9}
    SERIES_DIGESTS = {
        "text": "f3ede26b6623bd686d6562fd2334f4e5"
                "f92a039a41f806fe298a05976771c2f7",
        "json": "ad1773b2239d30f8b37b3a55a702b846"
                "043058fa9a2cf1c8da54dc90a77fb63b",
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_series_output_is_pinned(self, capsys, fmt):
        digest = hashlib.sha256()
        for k, top in self.SERIES_ORDERS.items():
            for levels in (None, "1:1", "2:1"):
                for m in range(5):
                    for order in range(top + 1):
                        argv = ["count", "series", "--k", str(k),
                                "--order", str(order), "--format", fmt]
                        if levels:
                            argv += ["--levels", levels]
                        if m:
                            argv += ["--end-height", str(m)]
                        code, out, _ = run(capsys, *argv)
                        assert code == 0, argv
                        digest.update(out.encode())
        assert digest.hexdigest() == self.SERIES_DIGESTS[fmt]

    @pytest.mark.parametrize("argv", [
        ("count", "ballot", "--k", "2", "--n", "2", "--s", "1,1,0"),
        ("count", "series", "--k", "1", "--order", "3"),
        ("count", "series", "--k", "1", "--order", "3", "--levels", "1:1"),
    ])
    def test_m_and_end_height_are_one_option(self, capsys, argv):
        by_m = run(capsys, *argv, "--m", "1")
        assert by_m == run(capsys, *argv, "--end-height", "1")
        assert by_m[0] == 0 and by_m != run(capsys, *argv)


class TestMap:
    def test_kappa_worked_example(self, capsys):
        code, out, _ = run(capsys, "map", "kappa", "--k", "2",
                           "--path", "uuduuuuududd")
        assert code == 0 and out.strip() == "uuuduuuduudd"

    def test_kappa_power_identity(self, capsys):
        code, out, _ = run(capsys, "map", "kappa", "--k", "2",
                           "--path", "uuduuuuududd", "--power", "2")
        assert out.strip() == "uuduuuuududd"

    def test_psi_single_node(self, capsys):
        code, out, _ = run(capsys, "map", "psi", "--k", "2",
                           "--path", "uud")
        assert code == 0 and out.strip() == "{}"

    def test_psi_empty(self, capsys):
        code, out, _ = run(capsys, "map", "psi", "--k", "2", "--path", "")
        assert code == 0 and out.strip() == "null"

    def test_psi_round_trip(self, capsys):
        _, tree_json, _ = run(capsys, "map", "psi", "--k", "2",
                              "--path", EXAMPLE_PATH_TEXT)
        code, out, _ = run(capsys, "map", "psi-inv", "--k", "2",
                           "--tree", tree_json.strip())
        assert code == 0 and out.strip() == EXAMPLE_PATH_TEXT

    def test_psi_labels(self, capsys):
        _, out, _ = run(capsys, "map", "psi", "--k", "2",
                        "--path", EXAMPLE_PATH_TEXT, "--labels")
        doc = json.loads(out)
        assert doc["label"] == "r" and doc["3"] == {"label": "dd_3"}

    def test_deutsch(self, capsys):
        code, out, _ = run(capsys, "map", "deutsch", "--path", "uudd")
        assert code == 0 and out.strip() == "udud"

    def test_lift(self, capsys):
        code, out, _ = run(capsys, "map", "lift", "--k", "2",
                           "--path", "uud", "--power", "3")
        doc = json.loads(out)
        assert doc == {"start_height": 3, "steps": "uud"}

    def test_permute_path(self, capsys):
        code, out, _ = run(capsys, "map", "permute", "--k", "2",
                           "--path", "uuuuuuddd", "--sigma", "1,2,3")
        assert code == 0 and out.strip() == "uuuuuuddd"

    def test_permute_tree(self, capsys):
        code, out, _ = run(capsys, "map", "permute",
                           "--tree", '{"1":{}}', "--sigma", "3,2,1")
        assert code == 0 and json.loads(out) == {"3": {}}

    def test_psi_round_trip_deeper_than_recursion_limit(self, capsys):
        path = "u" * 1500 + "d" * 1500
        code, tree_json, _ = run(capsys, "map", "psi", "--k", "1",
                                 "--path", path)
        assert code == 0 and tree_json.startswith('{"2":{"2":')
        code, out, _ = run(capsys, "map", "psi-inv", "--k", "1",
                           "--tree", tree_json.strip())
        assert code == 0 and out.strip() == path


class TestStdinAndFlags:
    def test_path_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("uuduuuuududd\n"))
        code, out, _ = run(capsys, "map", "kappa", "--k", "2", "--path", "-")
        assert code == 0 and out.strip() == "uuuduuuduudd"

    def test_series_with_levels(self, capsys):
        code, out, _ = run(capsys, "count", "series", "--k", "1",
                           "--levels", "1:1", "--order", "5")
        assert code == 0
        assert out.splitlines()[5].startswith("x^5: ")

    def test_down_size_and_length_conflict(self, capsys):
        code, _, err = run(capsys, "enumerate", "--k", "2",
                           "--down-size", "2", "--length", "4")
        assert code == 2 and "exclusive" in err

    def test_levels_need_length(self, capsys):
        code, _, err = run(capsys, "enumerate", "--k", "1",
                           "--levels", "1:1", "--down-size", "2")
        assert code == 2

    def test_bad_levels_grammar(self, capsys):
        code, _, err = run(capsys, "enumerate", "--k", "1",
                           "--levels", "1=1", "--length", "2")
        assert code == 2 and "a:c" in err

    def test_count_missing_flag(self, capsys):
        code, _, err = run(capsys, "count", "joint", "--k", "2")
        assert code == 2 and "--n" in err


class TestVerify:
    def test_figures_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "figures")
        assert code == 0
        assert "0 failures" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "bijection", "--max-k", "2",
                           "--max-n", "3", "--max-nodes", "3",
                           "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["ok"] is True and doc["failures"] == []

    def test_equidistribution_bounds(self, capsys):
        code, out, _ = run(capsys, "verify", "equidistribution",
                           "--k", "2", "--max-n", "3", "--max-len", "4")
        assert code == 0


class TestRender:
    def test_path_ascii_golden(self, capsys):
        code, out, _ = run(capsys, "render", "--k", "2", "--path", "uud")
        assert code == 0 and out == " /\\\n/ |\n"

    def test_empty_path(self, capsys):
        code, out, _ = run(capsys, "render", "--k", "2", "--path", "")
        assert code == 0 and out == "\n"

    def test_labels(self, capsys):
        code, out, _ = run(capsys, "render", "--k", "2",
                           "--path", EXAMPLE_PATH_TEXT, "--labels")
        assert "labels:" in out and "d_3" in out

    def test_tree_svg(self, capsys):
        _, tree_json, _ = run(capsys, "map", "psi", "--k", "2",
                              "--path", EXAMPLE_PATH_TEXT, "--labels")
        code, out, _ = run(capsys, "render", "--k", "2",
                           "--tree", tree_json.strip(), "--format", "svg")
        assert code == 0 and out.count("<circle") == 10

    def test_svg_deterministic(self, capsys):
        _, first, _ = run(capsys, "render", "--k", "2",
                          "--path", EXAMPLE_PATH_TEXT, "--format", "svg")
        _, second, _ = run(capsys, "render", "--k", "2",
                           "--path", EXAMPLE_PATH_TEXT, "--format", "svg")
        assert first == second


class TestExitCodes:
    def test_usage_error_missing_size(self, capsys):
        code, _, err = run(capsys, "enumerate", "--k", "2")
        assert code == 2 and "down-size" in err

    def test_usage_error_bad_path(self, capsys):
        code, _, err = run(capsys, "map", "kappa", "--k", "2",
                           "--path", "ud")
        assert code == 2

    def test_non_string_label_is_bad_input(self, capsys):
        code, out, err = run(capsys, "map", "psi-inv", "--k", "2",
                             "--tree", '{"label": 5}')
        assert code == 2 and out == "" and "label" in err

    def test_a_closed_stdout_exits_0(self, monkeypatch):
        class Closed:
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["enumerate", "--k", "1", "--down-size", "2"]) == 0

    def test_argparse_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--bogus"])
        assert exc.value.code == 2

    def test_resource_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--k", "2",
                           "--down-size", "3", "--limit", "4")
        assert code == 3 and "cap" in err

    def test_resource_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PEAKMOD_MAX_OBJECTS", "4")
        code, _, _ = run(capsys, "enumerate", "--k", "2", "--down-size", "3")
        assert code == 3

    def test_deep_family_reaches_the_cap(self, capsys):
        code, out, err = run(capsys, "enumerate", "--k", "1",
                             "--down-size", "1000", "--limit", "1")
        assert code == 3 and out == "u" * 1000 + "d" * 1000 + "\n"
        assert "cap" in err and "Traceback" not in err
        code, out, err = run(capsys, "histogram", "--k", "1",
                             "--down-size", "1000", "--limit", "1")
        assert code == 3 and out == ""
        assert "cap" in err and "Traceback" not in err

    def test_series_out_of_memory(self, capsys):
        # the largest index on a 64-bit build: the solver's first row,
        # [{}] * order, fails at once in the interpreter's list-size check
        code, out, err = run(capsys, "count", "series", "--k", "1",
                             "--order", "9223372036854775807")
        assert (code, out) == (3, "")
        assert err == "peakmod: out of memory\n"

    @pytest.mark.parametrize("argv", [("count", "series", "--order", "3"),
                                      ("map", "psi-inv", "--tree", "{}")])
    def test_k_past_an_index_is_a_usage_error(self, capsys, argv):
        # no list of the k + 1 markers, or of the (k + 1) * n steps, could
        # be indexed: refused like an order past the largest index
        k = "1" * 40
        code, out, err = run(capsys, *argv, "--k", k)
        assert (code, out) == (2, "")
        assert err.startswith("peakmod: k must be < ")
        assert err.endswith(f", got {k}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, length", [
        (("enumerate", "--k", "1" * 40, "--down-size", "1"),
         "1" * 39 + "2"),
        (("histogram", "--k", "1" * 40, "--down-size", "1"), "1" * 39 + "2"),
        (("enumerate", "--k", "1", "--length", "1" * 40), "1" * 40)])
    def test_length_past_an_index_is_a_usage_error(self, capsys, argv,
                                                   length):
        # the walk would never reach a first path for the cap to count
        code, out, err = run(capsys, *argv, "--limit", "1")
        assert (code, out) == (2, "")
        assert err == (f"peakmod: path length must be <= {sys.maxsize}, "
                       f"got {length}\n")

    def test_histogram_of_a_huge_k_packs_few_weights(self, capsys):
        start = time.perf_counter()
        got = run(capsys, "histogram", "--k", "100000", "--length", "5")
        assert got == (0, '{"entries":[],"total":0}\n', "")
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("argv", [("count", "series", "--order", "3"),
                                      ("map", "psi-inv", "--tree", "{}")])
    def test_k_at_the_largest_index_is_out_of_memory(self, capsys, argv):
        # k + 1 is the largest index on a 64-bit build: the first list of
        # that size fails at once in the interpreter's list-size check
        code, out, err = run(capsys, *argv, "--k", "9223372036854775806")
        assert (code, out, err) == (3, "", "peakmod: out of memory\n")

    @pytest.mark.parametrize("extra", [
        (), ("--levels", "1:1"), ("--end-height", "2"),
        ("--levels", "1:1", "--end-height", "2")])
    @pytest.mark.parametrize("order", ["-1", "-3"])
    def test_series_rejects_a_negative_order(self, capsys, extra, order):
        code, out, err = run(capsys, "count", "series", "--k", "1",
                             "--order", order, *extra)
        assert (code, out) == (2, "")
        assert err == f"peakmod: order must be >= 0, got {order}\n"

    def test_series_rejects_k_below_one(self, capsys):
        for k in ("0", "-1"):
            code, out, err = run(capsys, "count", "series", "--k", k,
                                 "--order", "3")
            assert code == 2 and out == "" and "k must be >= 1" in err

    @pytest.mark.parametrize("what,extra", [
        ("ballot", ("--m", "1", "--s", "1,1")),
        ("marginal", ("--r", "0")),
        ("pk", ("--r", "0")),
    ])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_count_rejects_k_below_one(self, capsys, what, extra, k):
        code, out, err = run(capsys, "count", what, "--k", k, "--n", "2",
                             *extra)
        assert code == 2 and out == "" and "k must be >= 1" in err

    @pytest.mark.parametrize("suite,flag,value", [
        ("bijection", "--max-k", "0"),
        ("bijection", "--max-n", "-1"),
        ("bijection", "--max-nodes", "-1"),
        ("equidistribution", "--k", "0"),
        ("equidistribution", "--max-len", "-1"),
        ("ballot", "--max-m", "-1"),
    ])
    def test_verify_rejects_bad_bounds(self, capsys, suite, flag, value):
        code, out, err = run(capsys, "verify", suite, flag, value)
        assert code == 2 and out == "" and flag in err

    @pytest.mark.parametrize("suite,flag,value", [
        ("involution", "--max-k", "7"),
        ("involution", "--max-nodes", "9"),
        ("figures", "--k", "2"),
        ("closed-forms", "--max-len", "3"),
        ("equidistribution", "--max-k", "2"),
        ("bijection", "--max-m", "1"),
        ("ballot", "--max-nodes", "3"),
        ("series", "--k", "2"),
    ])
    def test_verify_rejects_unread_flags(self, capsys, suite, flag, value):
        code, out, err = run(capsys, "verify", suite, flag, value)
        assert code == 2 and out == ""
        assert flag in err and suite in err

    @pytest.mark.parametrize("base,extra,flag", [
        (("ballot", "--k", "1", "--m", "1", "--n", "2", "--s", "1,1"),
         ("--levels", "1:1"), "--levels"),
        (("ballot", "--k", "2", "--m", "1", "--n", "2", "--s", "1,1,0"),
         ("--format", "json"), "--format"),
        (("ballot", "--k", "2", "--m", "1", "--n", "2", "--s", "1,1,0"),
         ("--r", "1"), "--r"),
        (("joint", "--k", "2", "--n", "3", "--r", "0,1,1"),
         ("--format", "json"), "--format"),
        (("joint", "--k", "2", "--n", "3", "--r", "0,1,1"),
         ("--levels", "1:1"), "--levels"),
        (("joint", "--k", "2", "--n", "3", "--r", "0,1,1"),
         ("--m", "1"), "--end-height"),
        (("marginal", "--k", "2", "--n", "3", "--r", "0"),
         ("--order", "3"), "--order"),
        (("pk", "--k", "2", "--n", "3", "--r", "1"),
         ("--s", "1,1,0"), "--s"),
        (("narayana", "--n", "4", "--r", "2"),
         ("--end-height", "1"), "--end-height"),
        (("narayana", "--n", "4", "--r", "2"), ("--k", "2"), "--k"),
        (("series", "--k", "1", "--order", "3"), ("--n", "3"), "--n"),
        (("series", "--k", "1", "--order", "3"), ("--s", "1,1"), "--s"),
    ])
    def test_count_rejects_unread_flags(self, capsys, base, extra, flag):
        code, out, err = run(capsys, "count", *base, *extra)
        assert code == 2 and out == ""
        assert f"count {base[0]} does not read {flag}" in err

    @pytest.mark.parametrize("argv,flag", [
        (("kappa", "--k", "2", "--path", "uud", "--sigma", "3,2,1",
          "--labels", "--tree", "{}"), "--tree"),
        (("deutsch", "--k", "2", "--path", "uudd"), "--k"),
        (("deutsch", "--k", "5", "--path", "uudd"), "--k"),
        (("psi-inv", "--k", "2", "--tree", "{}", "--path", "ud"), "--path"),
        (("kappa", "--k", "2", "--path", "uud", "--sigma", "2,1"),
         "--sigma"),
        (("lift", "--k", "2", "--path", "uud", "--labels"), "--labels"),
        (("psi", "--k", "2", "--path", "uud", "--power", "2"), "--power"),
        (("permute", "--k", "2", "--path", "uuuuuuddd", "--tree", '{"1":{}}',
          "--sigma", "3,2,1"), "--tree"),
        (("permute", "--path", "ud", "--tree", "{}"), "--tree"),
        (("permute", "--tree", '{"1":{}}', "--sigma", "3,2,1", "--k", "2"),
         "--k"),
    ])
    def test_map_rejects_unread_flags(self, capsys, argv, flag):
        code, out, err = run(capsys, "map", *argv)
        assert code == 2 and out == "" and flag in err

    @pytest.mark.parametrize("argv,flag", [
        (("--tree", "{}", "--levels", "1:1", "--end-height", "3",
          "--labels"), "--levels"),
        (("--k", "2", "--path", "uud", "--arity", "3"), "--arity"),
        (("--tree", "{}", "--levels", "1:1"), "--levels"),
        (("--tree", "{}", "--end-height", "1"), "--end-height"),
        (("--tree", "{}", "--labels"), "--labels"),
        (("--tree", "{}", "--k", "5", "--arity", "3"), "--k"),
    ])
    def test_render_rejects_unread_flags(self, capsys, argv, flag):
        code, out, err = run(capsys, "render", *argv)
        assert code == 2 and out == "" and flag in err

    def test_render_tree_reads_k_or_arity(self, capsys):
        code, out, err = run(capsys, "render", "--tree", "{}", "--k", "5",
                             "--arity", "3")
        assert code == 2 and out == ""
        assert "render --tree --arity does not read --k" in err
        tree = '{"1":{},"3":{}}'
        code, by_arity, _ = run(capsys, "render", "--tree", tree,
                                "--arity", "3")
        assert code == 0
        code, by_k, _ = run(capsys, "render", "--tree", tree, "--k", "2")
        assert code == 0 and by_k == by_arity
        code, _, err = run(capsys, "render", "--tree", tree, "--k", "1")
        assert code == 2 and "outside 1..2" in err

    def test_render_labels_need_a_pure_path(self, capsys):
        code, out, err = run(capsys, "render", "--path", "l1_1ud",
                             "--levels", "1:1", "--labels")
        assert code == 2 and out == "" and "pure k-Dyck" in err
        code, out, _ = run(capsys, "render", "--path", "", "--levels", "1:1",
                           "--labels")
        assert code == 0 and out == "\n"

    def test_negative_limit_is_bad_input(self, capsys):
        code, out, err = run(capsys, "enumerate", "--k", "2",
                             "--down-size", "3", "--limit", "-1")
        assert code == 2 and out == "" and "--limit" in err

    def test_negative_env_cap_is_bad_input(self, capsys, monkeypatch):
        for value in ("-5", "abc"):
            monkeypatch.setenv("PEAKMOD_MAX_OBJECTS", value)
            code, out, err = run(capsys, "enumerate", "--k", "2",
                                 "--down-size", "3")
            assert code == 2 and out == "" and "PEAKMOD_MAX_OBJECTS" in err

    def test_verify_failure_exit(self, capsys, monkeypatch):
        # sabotage one suite to prove the exit code surfaces failures
        import peakmod.verify as verify_mod

        def broken():
            rep = verify_mod.VerifyReport("figures", {})
            rep.record("forced", False)
            return rep

        monkeypatch.setitem(verify_mod.SUITES, "figures", broken)
        monkeypatch.setattr("peakmod.cli.SUITES",
                            dict(verify_mod.SUITES))
        code, out, _ = run(capsys, "verify", "figures")
        assert code == 1

    # one argv per flag that takes numbers; "{}" is the number under test
    NUMBER_FLAGS = {
        "--levels": ("count", "series", "--k", "1", "--levels", "{}:1",
                     "--order", "3"),
        "--r": ("count", "joint", "--k", "1", "--n", "3", "--r", "{},1"),
        "--s": ("count", "ballot", "--k", "1", "--m", "1", "--n", "2",
                "--s", "1,{}"),
        "--sigma": ("map", "permute", "--k", "1", "--path", "uudd",
                    "--sigma", "{},2"),
        "--k": ("count", "joint", "--k", "{}", "--n", "3", "--r", "1,1"),
        "--max-n": ("verify", "involution", "--max-n", "{}"),
    }

    @pytest.mark.parametrize("token,code", [
        ("1", 0),       # the ASCII twin of each rejected token
        ("\u0661", 2),  # Arabic-Indic one
        ("\u00b2", 2),  # superscript two
        ("1_0", 2),     # int() reads it as 10
        ("\uff12", 2),  # full-width two
    ])
    @pytest.mark.parametrize("flag", sorted(NUMBER_FLAGS))
    def test_numbers_are_ascii_integers(self, capsys, flag, token, code):
        argv = [a.format(token) for a in self.NUMBER_FLAGS[flag]]
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse rejects typed options
            got = exc.code
        out, err = capsys.readouterr()
        assert got == code, (argv, err)
        if code:
            assert out == "" and flag in err and token in err


    @pytest.mark.parametrize("value,code,lines", [
        ("10", 0, 5),
        (" 3 ", 3, 3),      # int() takes whitespace around, as for flags
        ("1_0", 2, 0),      # int() reads it as 10
        ("\u0663", 2, 0),  # Arabic-Indic three
        ("\u00b2", 2, 0),  # superscript two
        ("\uff12", 2, 0),  # full-width two
    ])
    def test_env_cap_is_an_ascii_integer(self, capsys, monkeypatch, value,
                                         code, lines):
        # PEAKMOD_MAX_OBJECTS is read as --limit is
        monkeypatch.setenv("PEAKMOD_MAX_OBJECTS", value)
        got, out, err = run(capsys, "enumerate", "--k", "1",
                            "--down-size", "3")
        assert got == code and len(out.splitlines()) == lines, err
        if code == 2:
            assert out == "" and err.count("\n") == 1
            assert err == ("peakmod: PEAKMOD_MAX_OBJECTS must be an integer "
                           f">= 0, got {value!r}\n")


class TestParserReuse:
    """One parser serves every main call of a process, keeping no state."""

    SEQUENCE = [
        ("map", "psi", "--k", "2", "--path", EXAMPLE_PATH_TEXT, "--labels"),
        ("map", "psi", "--k", "2", "--path", EXAMPLE_PATH_TEXT),
        ("count", "series", "--k", "1", "--order", "3", "--m", "2"),
        ("enumerate", "--bogus"),
        ("count", "series", "--k", "1", "--order", "3"),
        ("--help",),
        ("enumerate", "--k", "2", "--down-size", "2"),
        ("histogram", "--k", "1", "--down-size", "3", "--format", "csv"),
        ("histogram", "--k", "1", "--down-size", "3"),
        ("verify", "figures"),
        ("render", "--k", "2", "--path", "uud", "--labels"),
        ("count", "joint", "--k", "2", "--n", "3", "--r", "0,1,1"),
        ("map", "kappa", "--k", "2", "--path", "uuduuuuududd"),
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_calls_match_a_fresh_parser(self, capsys, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
        parser = cli.build_parser()
        shared = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
        assert cli.build_parser() is parser
        assert shared == fresh
        codes = [code for code, _, _ in fresh]
        assert ("SystemExit", 2) in codes and ("SystemExit", 0) in codes
        assert fresh[0] != fresh[1] and fresh[2] != fresh[4]

    def test_import_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(peakmod.__file__))
        code = ("import peakmod.cli as cli; "
                "print(cli.build_parser.cache_info().currsize)")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 0 and done.stdout == "0\n", done.stderr


class TestArgvReader:
    """Edge cases of the table reader that main tries before argparse:
    each gives argparse's outcome, whether the reader reads it or not."""

    outcome = staticmethod(TestParserReuse.outcome)

    def both(self, capsys, monkeypatch, argv):
        """(whether the reader reads argv, main's outcome), checked equal
        to main's outcome with the reader patched out."""
        read = cli._read_argv(list(argv)) is not None
        got = self.outcome(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_read_argv", lambda argv: None)
            assert self.outcome(capsys, argv) == got
        return read, got

    def test_main_none_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["count", "joint", "--k", "2", "--n", "3", "--r", "0,1,1"]
        monkeypatch.setattr("sys.argv", ["peakmod", *argv])
        assert main(None) == 0 and capsys.readouterr().out == "3\n"
        assert self.both(capsys, monkeypatch, argv) == (True, (0, "3\n", ""))

    def test_negative_value_apart(self, capsys, monkeypatch):
        # read by the table; count_marginal refuses r = -1 (exit 2)
        read, (code, out, err) = self.both(
            capsys, monkeypatch, ("count", "marginal", "--k", "1", "--n",
                                  "2", "--r", "-1"))
        assert read and (code, out) == (2, "") and err.startswith("peakmod:")

    def test_dash_value_after_equals(self, capsys, monkeypatch):
        argv = ("count", "joint", "--k", "1", "--n", "3", "--r=-0,1")
        assert cli._read_argv(list(argv)).r == "-0,1"
        read, got = self.both(capsys, monkeypatch, argv)
        assert read and got[0] == 0
        assert got == self.outcome(capsys, argv[:-1] + ("--r", "0,1"))
        read, (code, _, err) = self.both(capsys, monkeypatch,
                                         argv[:-1] + ("--r", "-0,1"))
        assert not read and code == ("SystemExit", 2)
        assert "expected one argument" in err

    def test_switch_with_a_value(self, capsys, monkeypatch):
        read, (code, _, err) = self.both(
            capsys, monkeypatch, ("map", "psi", "--path", "ud",
                                  "--labels=1"))
        assert not read and code == ("SystemExit", 2)
        assert "ignored explicit argument '1'" in err

    def test_prefix(self, capsys, monkeypatch):
        read, got = self.both(capsys, monkeypatch,
                              ("enumerate", "--lev", "1:1", "--length", "2"))
        assert not read and got == (0, "ud\nl1_1l1_1\n", "")

    def test_second_positional(self, capsys, monkeypatch):
        read, (code, _, err) = self.both(
            capsys, monkeypatch, ("count", "joint", "joint", "--n", "3",
                                  "--r", "1,1"))
        assert not read and code == ("SystemExit", 2)
        assert "unrecognized arguments: joint" in err

    def test_table_defaults(self):
        args = cli.build_parser().parse_args(["render", "--path", "ud"])
        defaults = {
            "k": 1, "levels": None, "end_height": 0, "arity": None,
            "path": None, "tree": None, "format": "ascii", "labels": False}
        assert cli._reader("render")[1] == defaults
        assert vars(args) == {**defaults, "command": "render", "path": "ud"}
        assert vars(cli._read_argv(["render", "--path", "ud"])) == vars(args)


def _readme_examples():
    """The peakmod lines of the README's command-line block."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text().split("## Command-line interface", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (line.partition("#")[0].strip() for line in block.splitlines())
    return [line for line in lines if line.startswith("peakmod ")]


class TestReadmeExamples:
    def test_block_found(self):
        assert len(_readme_examples()) > 20

    @pytest.mark.parametrize("line", _readme_examples())
    def test_example_runs(self, capsys, monkeypatch, line):
        # a piped line runs both commands: the first one's stdout is fed
        # to the second through stdin
        out = ""
        for command in line.split("|"):
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            code, out, err = run(capsys, *shlex.split(command)[1:])
            assert code == 0 and out, err
