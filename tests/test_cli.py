import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import coreabacus
from coreabacus import abacus, cli, enumeration
from coreabacus.cli import main
from coreabacus.enumeration import enumerate_multi_cores, longest_member
from coreabacus.partitions import Partition
from coreabacus.verification import CLAIM_IDS, _triple_moduli, max_weight_formula

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("COREABACUS_CACHE", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of `main(argv)`, with an argparse rejection's `SystemExit` code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSharedParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_help_is_one_line_of_description(self, capsys):
        # the module docstring's notes on the code stay out of the help
        code, out, _ = outcome(capsys, ["--help"])
        assert code == 0 and out.split("\n\n")[1] == cli.__doc__.partition("\n")[0] and "build_parser" not in out

    def test_reuse_leaks_nothing(self, capsys):
        # each command after the first would read a default, or a value stored by the command before
        # it, if a parse left state in the shared parser; every outcome must be a fresh parser's
        script = [["count", "--moduli", "5,14", "--distinct"], ["count", "--moduli", "5,14"],
                  ["show", "L", "--s", "5", "--m", "3"], ["show", "L", "--s", "5"],
                  ["verify", "--claim", "xiong", "--grid", "s=1..3"], ["verify", "--claim", "xiong"],
                  ["count", "--moduli", "4,x"], ["enumerate", "--moduli", "3,4"]]
        shared = [outcome(capsys, argv) for argv in script]
        assert shared[6][0] == 2 and "cannot parse moduli" in shared[6][2]
        for argv, seen in zip(script, shared):
            cli.build_parser.cache_clear()
            assert outcome(capsys, argv) == seen, argv


class TestShow:
    def test_figure_one_layout(self, capsys):
        code, out, _ = run(capsys, "show", "A", "--s", "5", "--rows", "4")
        assert code == 0
        assert out == "A(s=5)\n" + (GOLDEN / "fig1_a5.txt").read_text()

    def test_figure_eight_layout(self, capsys):
        code, out, _ = run(capsys, "show", "L", "--s", "5", "--m", "3", "--rows", "4")
        assert code == 0
        assert out.splitlines()[0] == "L(s=5, m=3)"
        assert out.split("\n", 1)[1] == (GOLDEN / "fig8_l35.txt").read_text()

    def test_empty_banner(self, capsys):
        code, out, _ = run(capsys, "show", "A", "--s", "1")
        assert code == 0
        assert "(no beads)" in out

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "show", "A", "--s", "0")
        assert code == 2 and "error" in err

    def test_rail_boundary(self, capsys, monkeypatch):
        # A(s) shows s runners x s - 1 rows: A(1000) is the largest admitted, refused before it is built
        code, out, err = run(capsys, "show", "A", "--s", "1000")
        assert (code, err, out.count("\n")) == (0, "", 1000) and out.startswith("A(s=1000)\n")

        def refuse(*args, **kwargs):
            raise AssertionError("the rail let the work start")

        monkeypatch.setattr(cli, "build_named", refuse)
        monkeypatch.setattr(cli, "render_abacus", refuse)
        for argv, largest in [(["A", "--s", "1001"], 1000), (["L", "--s", "317", "--m", "20"], 316),
                              (["A", "--s", "5", "--rows", "200001"], 4), (["E+", "--s", "10" * 2000], 1000),
                              (["B0", "--s", "1001"], 1000), (["B1", "--s", "1002"], 1001),
                              (["C0", "--s", "1415"], 1414), (["C1", "--s", "1415"], 1414),
                              (["E-", "--s", "1002"], 1001), (["E-", "--s", "708", "--m", "2"], 707),
                              (["E+", "--s", "708", "--m", "2"], 707), (["L", "--s", "1001", "--m", "2"], 1000)]:
            code, out, err = run(capsys, "show", *argv)
            assert (code, out) == (2, ""), argv
            assert err.endswith(f"guard rail of 1000000; the largest admissible s here is {largest}\n"), err
        # each block's row rule at its edge: B0 and B1 tell k apart, and E- at m = 2 reads its body, not its last block
        for name, s, m in [("B0", 1000, 1), ("B1", 1001, 1), ("C0", 1414, 1), ("C1", 1414, 1), ("E-", 1001, 1),
                           ("E-", 707, 2), ("E+", 707, 2), ("L", 1000, 2)]:
            assert cli._check_cells(name, s, m).startswith(f"{name}(s={s}"), (name, s, m)

    def test_rail_names_rows_when_rows_alone_break_it(self, capsys):
        # 10,000,000 rows are beyond the rail at every s, so the message names --rows, with s kept
        code, out, err = run(capsys, "show", "A", "--s", "5", "--rows", "10000000")
        assert (code, out) == (2, "")
        assert err.endswith("guard rail of 1000000; the largest admissible --rows here is 200000\n"), err

    def test_rail_counts_the_rows_it_builds(self, capsys, monkeypatch):
        # the build holds the construction's own rows whatever --rows asks, so one row of A(6000) is 6000 x 5999
        # cells, and E+(1, m) is m runners of one row: each is refused before anything is built
        def refuse(*args, **kwargs):
            raise AssertionError("the rail let the work start")

        for name in ("build_named", "build_l", "render_abacus"):
            monkeypatch.setattr(cli, name, refuse)
        for argv, named in [(["A", "--s", "6000", "--rows", "1"], "s here is 1000"),
                            (["A", "--s", "1001", "--rows", "1"], "s here is 1000"),
                            (["E+", "--s", "1", "--m", "1000001"], "m here is 1000000"),
                            (["E+", "--s", "1", "--m", "2000000"], "m here is 1000000"),
                            (["A", "--s", "1000000", "--rows", "0"], "s here is 1000"),
                            (["E+", "--s", "1000000", "--m", "0"], "s here is 1000")]:
            code, out, err = run(capsys, "show", *argv)
            assert (code, out) == (2, ""), argv
            assert err.endswith(f"guard rail of 1000000; the largest admissible {named}\n"), err
        # no one input lowered alone to 1 brings 2000 x 2,000,000 cells within the rail, so none is named
        code, out, err = run(capsys, "show", "A", "--s", "2000", "--rows", "2000000")
        assert (code, out) == (2, "")
        assert err.endswith("guard rail of 1000000, whichever one input is lowered\n"), err

    def test_too_few_rows_print_nothing(self, capsys):
        # A(5) occupies rows 0..3
        for rows in ("0", "1", "3"):
            code, out, err = run(capsys, "show", "A", "--s", "5", "--rows", rows)
            assert (code, out) == (2, ""), rows
            assert "error" in err, rows


class TestEnumerateAndCount:
    def test_count_distinct_5_14(self, capsys):
        code, out, _ = run(capsys, "count", "--moduli", "5,14", "--distinct", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["count", "33"]

    def test_enumerate_json_schema(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--moduli", "3,4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["moduli"] == [3, 4]
        assert payload["count"] == 5
        assert payload["max_weight"] == 5
        assert payload["longest_parts"] == 3
        assert [3, 1, 1] in payload["partitions"]

    def test_enumerate_table(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--moduli", "3,4")
        assert code == 0
        assert "(3,1,1)" in out and "count=5" in out

    def test_count_distinct_9_28(self, capsys):
        # neither route visits the 3,362,260 (9,28)-cores: the runner DP counts the distinct ones,
        # and the self-conjugate ones among them are the staircases below 9
        code, out, _ = run(capsys, "count", "--moduli", "9,28", "--distinct", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["count", "1159"]
        code, out, _ = run(capsys, "count", "--moduli", "9,28", "--distinct", "--self-conjugate",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["count", "5"]

    def test_self_conjugate_filter(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--moduli", "8,9",
            "--self-conjugate", "--distinct", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["count"] == 5
        assert [4, 3, 2, 1] in payload["partitions"]

    def test_count_builds_no_partition(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("count built a Partition")

        monkeypatch.setattr(Partition, "__init__", refuse)
        monkeypatch.setattr(Partition, "_trusted", refuse)
        monkeypatch.setattr(abacus, "_mask_to_partition", refuse)
        monkeypatch.setattr(enumeration, "_mask_to_partition", refuse)
        monkeypatch.setattr(enumeration, "_gaps", refuse)  # a coprime pair's statistics are closed forms
        for argv, count in [(["10,11"], 16796), (["5,14,16"], 284), (["10,13", "--self-conjugate"], 462),
                            (["2,499999"], 250000), (["6,9", "--distinct", "--self-conjugate"], 5),
                            (["9,28", "--distinct"], 1159), (["9,28", "--distinct", "--self-conjugate"], 5),
                            (["5,14,16", "--self-conjugate"], 24), (["10,13", "--distinct"], 291)]:
            code, out, err = run(capsys, "count", "--moduli", *argv, "--no-cache", "--format", "csv")
            assert (code, out.splitlines(), err) == (0, ["count", str(count)], ""), argv

    def test_count_beyond_guard_rail_exit_two(self, capsys, monkeypatch):
        # a coprime pair is the closed form's, whatever its Catalan count; the walk, with or without `--distinct`,
        # is railed on its largest possible bead; the runner DP is railed on its predicted work, so the paper's
        # (8,23,25) and (13,25,27) answer though (8,23) has 254,475 cores and (13,25,27) 7,123,041
        for argv, count in [(["20,21"], 6564120420), (["13,14"], 742900), (["20,21", "--self-conjugate"], 184756),
                            (["9,28", "--distinct"], 1159), (["8,23,25"], 49106), (["10,19,21"], 83710),
                            (["13,25,27"], 7123041)]:
            code, out, err = run(capsys, "count", "--moduli", *argv, "--no-cache", "--format", "csv")
            assert (code, out.splitlines(), err) == (0, ["count", str(count)], ""), argv

        def refuse(*args, **kwargs):
            raise AssertionError("the rail let the work start")

        for argv, work, message in [
            (["2,1000003,1000007"], "_masks", "take the walk route, whose 1000001 possible bead values are beyond "
                                              "the guard rail of 1000000"),
            (["2,1000003,1000005"], "_runner_paths", "take the runner DP route, whose work units are beyond the guard "
                                                     "rail of 5000000"),
            (["2,999999,1000001"], "_runner_paths", "take the runner DP route, whose work units are beyond the guard "
                                                    "rail of 5000000"),
            (["4000,4001", "--distinct"], "_runner_paths", "take the runner DP route, whose work units are beyond "
                                                           "the guard rail of 5000000"),
            (["12,1000001", "--distinct"], "_masks", "take the walk route, whose 10999999 possible bead values are "
                                                     "beyond the guard rail of 1000000"),
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(enumeration, work, refuse)
                code, out, err = run(capsys, "count", "--moduli", *argv, "--no-cache")
            assert (code, out) == (2, "") and message in err, argv

    def test_the_paper_triple_at_m_1_takes_the_runner_dp(self, capsys, monkeypatch):
        # (15, 16, 17) is (s - 1, s, s + 1) at s = 16: its 310,572 cores, a Motzkin number, are beyond the walk's
        # visit budget, and the runner DP reads them with no core visited
        def refuse(*args):
            raise AssertionError("walked the triple")

        monkeypatch.setattr(enumeration, "_masks", refuse)
        code, out, err = run(capsys, "count", "--moduli", "15,16,17", "--no-cache", "--format", "csv")
        assert (code, out.splitlines(), err) == (0, ["count", "310572"], "")

    def test_distinct_walk_stops_at_its_visit_budget(self, capsys, monkeypatch):
        # (25,33) is off t = ±1 (mod s), so its 6,471,200 distinct cores are walked: the walk is refused
        # on the core after its budget, the same on every run
        visits = []
        masks = enumeration._masks

        def counted(*args):
            for node in masks(*args):
                visits.append(node)
                yield node

        monkeypatch.setattr(enumeration, "_masks", counted)
        for _ in range(2):
            visits.clear()
            code, out, err = run(capsys, "count", "--moduli", "25,33", "--distinct", "--no-cache")
            assert (code, out, len(visits)) == (2, "", enumeration.FAMILY_MAX_CORES + 1)
            assert err == "error: the walk of moduli (25, 33) visits more than 250000 cores, beyond the guard rail\n"

    def test_rail_refuses_a_huge_pair_uncounted(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the rail let the work start")

        # refused from the moduli alone: the count is never computed, so neither its cost nor the
        # interpreter's digit limit on printing it is met, even for a modulus of 401 digits
        monkeypatch.setattr(enumeration, "count_st_cores", refuse)
        monkeypatch.setattr(enumeration.math, "comb", refuse)
        for moduli, bits in [("300000,300001", 600001), ("1000000,1000001", 2000001),
                             ("12,1" + "0" * 399 + "1", 15948)]:
            code, out, err = run(capsys, "count", "--moduli", moduli, "--no-cache")
            assert (code, out) == (2, ""), moduli
            assert f"take the closed form route, whose {bits} answer bits are beyond the guard rail of 14000" in err
            assert "Exceeds the limit" not in err, moduli
        # a triple's walk is railed on its smallest pair's largest gap, st - s - t, which nothing counts either
        monkeypatch.setattr(enumeration, "_masks", refuse)
        code, out, err = run(capsys, "count", "--moduli", "300000,300001,600001", "--no-cache")
        assert (code, out) == (2, "") and "take the walk route, whose 89999699999 possible bead values" in err

    def test_closed_form_rail_is_the_bits_of_the_count_for_near_equal_pairs(self, capsys, monkeypatch):
        # C(s + t, s) < 2^(s + t) bounds every field, so a pair costs min(s * bitlen(s + t), s + t) answer bits:
        # (2000,2001) costs 4,001, not 24,000, (6999,7001) 14,000 at the rail, and (7000,7001) 14,001 beyond it
        for moduli, digits in [("2000,2001", 1199), ("6999,7001", 4209)]:
            code, out, err = run(capsys, "count", "--moduli", moduli, "--no-cache", "--format", "csv")
            assert (code, err, out.splitlines()[0]) == (0, "", "count"), moduli
            assert len(out.splitlines()[1]) == digits, moduli

        def refuse(*args):
            raise AssertionError("the rail let the work start")

        monkeypatch.setattr(enumeration.math, "comb", refuse)
        code, out, err = run(capsys, "count", "--moduli", "7000,7001", "--no-cache")
        assert (code, out) == (2, "")
        assert err == ("error: moduli (7000, 7001) take the closed form route, whose 14001 answer bits are beyond "
                       "the guard rail of 14000\n")

    def test_a_huge_modulus_costs_the_walk_nothing(self, capsys):
        # a modulus above every bead clears no child, so the rule skips it: the walk of (5, 7, 10^400 + 1) is (5, 7)'s
        code, out, err = run(capsys, "count", "--moduli", f"5,7,{10 ** 400 + 1}", "--no-cache")
        assert (code, err) == (0, "") and out.endswith(": count=66 max_weight=48 longest_parts=12\n"), out[-80:]

    def test_rail_boundary(self, capsys, monkeypatch):
        # the closed form's answers for (2, t) have at most 2 * (t + 2).bit_length() bits: t = 2^7000 - 3 is the
        # largest odd t admitted, and its largest weight, (t^2 - 1)/8, prints 4,214 digits
        t = 2 ** 7000 - 3
        code, out, err = run(capsys, "count", "--moduli", f"2,{t}", "--no-cache")
        assert (code, err) == (0, "") and f"count={(t + 1) // 2} max_weight={(t * t - 1) // 8} " in out
        assert len(str((t * t - 1) // 8)) == 4214
        code, out, err = run(capsys, "count", "--moduli", f"2,{t + 2}", "--no-cache")
        assert (code, out) == (2, "") and "whose 14002 answer bits are beyond the guard rail of 14000" in err
        # enumerate is railed on the parts it builds: (2,499999) would build 250,000 members of up to 249,999 parts
        monkeypatch.setattr(enumeration, "_lex_walk", lambda *args: pytest.fail("the rail let the walk start"))
        for moduli in ("2,499999", "13,14"):
            code, out, err = run(capsys, "enumerate", "--moduli", moduli, "--no-cache", "--format", "csv")
            assert (code, out) == (2, "") and "beyond the guard rail of 15000000 parts" in err, moduli

    @pytest.mark.parametrize("moduli", sorted({_triple_moduli(s, m) for s in range(1, 7) for m in range(1, 4)})
                             + [(5, 6), (9, 28), (10, 13)], ids=str)
    def test_enumerate_prints_the_family_stats(self, capsys, moduli):
        # family_stats, read off the route table, is the independent route; enumerate's own rail is the
        # parts it would build
        for flags in ([], ["--distinct"], ["--self-conjugate"], ["--distinct", "--self-conjugate"]):
            argv = ["enumerate", "--moduli", ",".join(map(str, moduli)), *flags, "--no-cache", "--format"]
            filters = {"distinct": "--distinct" in flags, "self_conjugate": "--self-conjugate" in flags}
            try:
                enumerate_multi_cores(moduli, **filters)
            except enumeration.GuardRailError as exc:
                for fmt in ("json", "csv", "table"):
                    assert run(capsys, *argv, fmt) == (2, "", f"error: {exc}\n"), (flags, fmt)
                continue
            count, max_weight, longest, _ = enumeration.family_stats(moduli, **filters)
            code, out, err = run(capsys, *argv, "json")
            payload = json.loads(out)
            assert (code, err, payload["filters"]) == (0, "", filters), flags
            assert (payload["count"], payload["max_weight"], payload["longest_parts"]) == (count, max_weight, longest)
            members = payload["partitions"]
            code, out, err = run(capsys, *argv, "table")
            rows = out.splitlines()
            assert (code, err, len(rows)) == (0, "", count + 1), flags
            assert rows[:-1] == ["(" + ",".join(map(str, parts)) + ")" for parts in members], flags
            assert rows[-1].endswith(f": count={count} max_weight={max_weight} longest_parts={longest}"), flags
            # csv prints no statistic: the header, then each member's weight and parts
            code, out, err = run(capsys, *argv, "csv")
            assert (code, err) == (0, ""), flags
            assert out == "".join(["weight,parts\n", *(f"{sum(p)},{' '.join(map(str, p))}\n" for p in members)])

    def test_bad_moduli(self, capsys):
        # no coprime pair; and with no odd modulus every staircase is a distinct self-conjugate core
        for argv in (["4,6"], ["2,4", "--distinct", "--self-conjugate"]):
            code, _, err = run(capsys, "count", "--moduli", *argv)
            assert code == 2 and err.startswith("error: ") and "infinite" in err, argv

    def test_finite_family_without_a_coprime_pair_is_walked(self, capsys):
        # gcd(6, 10, 15) = 1, so every bead is a gap of <6, 10, 15>, at most Schur's bound 69, and the family is walked;
        # beyond that rail, (6, 10, 200025) is refused; 4,6 keeps its message
        code, out, err = run(capsys, "count", "--moduli", "6,10,15", "--no-cache")
        assert (code, err) == (0, "") and out == "(6,10,15)-cores: count=259 max_weight=60 longest_parts=15\n"
        code, out, err = run(capsys, "enumerate", "--moduli", "6,10,15", "--format", "csv")
        members = enumerate_multi_cores((6, 10, 15)).members
        assert (code, err, len(members)) == (0, "", 259)
        assert out == "".join(["weight,parts\n", *(f"{sum(p)},{' '.join(map(str, p))}\n" for p in members)])
        for command in ("count", "enumerate"):
            code, _, err = run(capsys, command, "--moduli", "6,10,200025")
            assert code == 2 and "whose 1000119 possible bead values are beyond the guard rail" in err, command
            code, _, err = run(capsys, command, "--moduli", "4,6")
            assert code == 2 and "no coprime pair" in err and "may be infinite" in err, command

    def test_distinct_family_without_a_coprime_pair_is_walked(self, capsys):
        # with `--distinct` the walk is railed on Schur's bound, 69 for (6, 10, 15), so the finite family answers;
        # the hook oracle finds its 40 members, all of weight at most 28; with gcd above 1, 4,6 is still refused
        members = enumeration.filter_distinct(enumeration.oracle_enumerate((6, 10, 15), 28)).members
        assert len(members) == 40
        code, out, err = run(capsys, "count", "--moduli", "6,10,15", "--distinct", "--no-cache")
        assert (code, err) == (0, "") and out.endswith(": count=40 max_weight=28 longest_parts=7\n")
        code, out, err = run(capsys, "enumerate", "--moduli", "6,10,15", "--distinct", "--format", "csv")
        assert (code, err) == (0, "")
        assert out == "".join(["weight,parts\n", *(f"{sum(p)},{' '.join(map(str, p))}\n" for p in members)])
        code, _, err = run(capsys, "count", "--moduli", "4,6", "--distinct")
        assert code == 2 and "no coprime pair" in err and "may be infinite" in err

    def test_unparsable_moduli_is_a_usage_error(self, capsys):
        # argparse reads --moduli, so a parse error is a usage error, printed before any command runs
        for text, message in [("4,x", "cannot parse moduli '4,x'"), ("", "at least one modulus is required"),
                              (" , ", "at least one modulus is required"),
                              ("0,3", "moduli must be positive, got (0, 3)"),
                              ("3,-2", "moduli must be positive, got (-2, 3)")]:
            for command in ("count", "enumerate"):
                with pytest.raises(SystemExit) as exc:
                    main([command, "--moduli", text])
                out, err = capsys.readouterr()
                assert (exc.value.code, out) == (2, ""), text
                assert err.startswith("usage: cores ") and err.endswith(f"error: argument --moduli: {message}\n"), err

    def test_idempotent_output(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--moduli", "5,6", "--format", "json", "--no-cache")
        _, second, _ = run(capsys, "enumerate", "--moduli", "5,6", "--format", "json", "--no-cache")
        assert first == second
        # a hit replays the bytes the miss printed, in every format
        for family in (["5,6"], ["9,28", "--distinct"], ["8,9", "--distinct", "--self-conjugate"]):
            for fmt in ("json", "csv", "table"):
                argv = ["enumerate", "--moduli", *family, "--format", fmt]
                _, first, _ = run(capsys, *argv, "--no-cache")
                for _ in range(2):  # the first cached run is a miss, the second a hit
                    _, second, _ = run(capsys, *argv)
                    assert first == second, argv

    def test_cache_round_trip(self, capsys, tmp_path):
        _, first, _ = run(capsys, "count", "--moduli", "5,14", "--format", "json")
        cache_dir = tmp_path / "cache"
        assert any(cache_dir.iterdir())
        _, second, _ = run(capsys, "count", "--moduli", "5,14", "--format", "json")
        assert first == second

    def test_count_caches_no_members(self, capsys, tmp_path):
        code, counted, _ = run(capsys, "count", "--moduli", "5,14", "--format", "json")
        assert code == 0 and "partitions" not in json.loads(counted)
        (path,) = (tmp_path / "cache").iterdir()
        assert zlib.decompress(path.read_bytes()).decode() == f"{cli._source_hash()}\n0\n{counted}"
        code, out, _ = run(capsys, "enumerate", "--moduli", "5,14", "--format", "json")
        assert code == 0 and len(json.loads(out)["partitions"]) == 612
        assert len(list((tmp_path / "cache").iterdir())) == 2

    def test_moduli_spellings_share_one_entry(self, capsys, tmp_path, monkeypatch):
        spellings = ["5,14", "14,5", "5,14,5", " 14, 5 ,"]
        fresh = run(capsys, "enumerate", "--moduli", "5,14", "--format", "csv", "--no-cache")
        assert [run(capsys, "enumerate", "--moduli", m, "--format", "csv") for m in spellings] == [fresh] * 4
        assert len(list((tmp_path / "cache").iterdir())) == 1
        monkeypatch.setattr(cli, "enumerate_multi_cores", None)  # every spelling after the first is a hit
        assert [run(capsys, "enumerate", "--moduli", m, "--format", "csv") for m in spellings] == [fresh] * 4

    def test_json_members_are_what_json_dumps_prints(self, capsys):
        # the members are joined, not encoded a token at a time, into json.dumps's indent-2 text; the modulus 1
        # family is the empty partition alone
        for argv in (["5,6"], ["7,9"], ["5,14", "--distinct"], ["4,11,13"], ["6,9", "--distinct", "--self-conjugate"],
                     ["1"]):
            filters = {"distinct": "--distinct" in argv, "self_conjugate": "--self-conjugate" in argv}
            family = enumerate_multi_cores(map(int, argv[0].split(",")), **filters)
            payload = {"moduli": list(family.moduli), "filters": filters, "count": len(family),
                       "max_weight": family.max_weight(), "longest_parts": max(map(len, family.members)),
                       "partitions": family.members}
            code, out, err = run(capsys, "enumerate", "--moduli", *argv, "--format", "json", "--no-cache")
            assert (code, err, out) == (0, "", json.dumps(payload, indent=2) + "\n"), argv
        assert '"partitions": [\n    []\n  ]\n}' in out

    def test_hit_writes_its_stored_bytes(self, tmp_path):
        # a hit writes the stored stdout to stdout's binary buffer, or, where stdout has none, as text: an entry
        # made by hand, with the sources' stamp, is replayed as it is, through a process's stdout and a StringIO
        argv = ["enumerate", "--moduli", "5,6", "--format", "json"]
        assert main(argv) == 0
        (path,) = (tmp_path / "cache").iterdir()
        stored = b"stored\tstdout\n{}\n"
        path.write_bytes(zlib.compress(cli._source_hash().encode() + b"\n1\n" + stored))
        env = dict(os.environ, PYTHONPATH=str(Path(coreabacus.__file__).parent.parent))
        hit = subprocess.run([sys.executable, "-m", "coreabacus.cli", *argv], env=env, capture_output=True)
        assert (hit.returncode, hit.stdout, hit.stderr) == (1, stored, b"")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 1
        assert out.getvalue() == stored.decode()

    def test_hit_is_the_pieces_of_its_entry(self, capsys):
        # a hit's stdout is the pieces the entry was inflated in, the first a view past the stamp and exit code
        # lines, so no whole copy of the stdout is made; the 113 KB entry of (10,11) is inflated in two pieces
        for argv in (["count", "--moduli", "5,14", "--format", "json"],
                     ["enumerate", "--moduli", "10,11", "--format", "json"]):
            code, fresh, _ = run(capsys, *argv)
            hit_code, out = cli._cached(cli.build_parser().parse_args(argv))
            assert isinstance(out[0], memoryview) and out[0].obj[:64] == cli._source_hash().encode(), argv
            assert (hit_code, b"".join(out)) == (code, fresh.encode()), argv
        assert len(out) == 2

    def test_json_entry_is_compressed(self, capsys, tmp_path):
        code, out, _ = run(capsys, "enumerate", "--moduli", "9,11", "--format", "json")
        assert code == 0 and len(json.loads(out)["partitions"]) == 8398
        (path,) = (tmp_path / "cache").iterdir()
        assert path.stat().st_size < len(out.encode()) / 5

    def test_empty_or_relative_xdg_cache_home_is_ignored(self, capsys, tmp_path, monkeypatch):
        # the XDG base directory spec ignores an empty or relative XDG_CACHE_HOME: ~/.cache is the cache
        monkeypatch.delenv("COREABACUS_CACHE")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        for value in ("", "relative"):
            monkeypatch.setenv("XDG_CACHE_HOME", value)
            assert cli._cache_dir() == tmp_path / "home" / ".cache" / "coreabacus"
            assert run(capsys, "count", "--moduli", "5,14", "--distinct", "--format", "csv")[:2] == (0, "count\n33\n")
        assert list(work.iterdir()) == []
        assert len(list((tmp_path / "home" / ".cache" / "coreabacus").iterdir())) == 1
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert cli._cache_dir() == tmp_path / "xdg" / "coreabacus"

    def test_format_is_part_of_the_key(self, capsys, tmp_path, monkeypatch):
        argvs = [["enumerate", "--moduli", "5,14", "--format", fmt] for fmt in ("json", "csv")]
        fresh = [run(capsys, *argv, "--no-cache") for argv in argvs]
        assert fresh[0] != fresh[1]
        assert [run(capsys, *argv) for argv in argvs] == fresh
        assert len(list((tmp_path / "cache").iterdir())) == 2
        with monkeypatch.context() as patch:  # each hit replays its own bytes
            patch.setattr(cli, "enumerate_multi_cores", None)
            assert [run(capsys, *argv) for argv in argvs] == fresh

    def test_hit_replays_the_exit_code(self, capsys, monkeypatch):
        verify_claim = cli.verify_claim

        def failing(claim, grid=None):
            report = verify_claim(claim, grid)
            report.cells[0].passed = False
            return report

        argv = ["verify", "--claim", "middle", "--grid", "s=3..4"]
        monkeypatch.setattr(cli, "verify_claim", failing)
        cold = run(capsys, *argv)
        assert cold[0] == 1 and "FAILURES PRESENT" in cold[1]
        monkeypatch.setattr(cli, "verify_claim", None)
        assert run(capsys, *argv) == cold
        # the key holds the parsed grid, so another spelling of it is the same entry
        assert run(capsys, "verify", "--claim", "middle", "--grid", " s = 3..4") == cold

    def test_cache_ignores_entry_from_other_sources(self, capsys, tmp_path, monkeypatch):
        _, first, _ = run(capsys, "count", "--moduli", "5,14", "--format", "json")
        (path,) = (tmp_path / "cache").iterdir()
        tampered = json.dumps({**json.loads(first), "count": 999}, indent=2) + "\n"
        path.write_bytes(zlib.compress(f"{cli._source_hash()}\n0\n{tampered}".encode()))
        _, replayed, _ = run(capsys, "count", "--moduli", "5,14", "--format", "json")
        assert replayed == tampered  # the entry is read when its stamp is the sources' hash
        monkeypatch.setattr(cli, "_source_hash", lambda: "0" * 64)
        _, fresh, _ = run(capsys, "count", "--moduli", "5,14", "--format", "json")
        assert fresh == first  # another stamp is a miss: the tampered entry is not replayed
        # the command's one file is rewritten under the new stamp, so no entry of the old sources is left
        assert list((tmp_path / "cache").iterdir()) == [path]
        assert zlib.decompress(path.read_bytes()).decode() == f"{'0' * 64}\n0\n{first}"

    def test_malformed_entry_is_recomputed_and_rewritten(self, capsys, tmp_path, monkeypatch):
        # every damaged entry is a miss: the command runs again, and its rewrite answers the next run alone
        stamp = cli._source_hash().encode()

        def damaged(entry):
            middle = len(entry) // 2
            yield "empty", b""
            yield "cut short", entry[:-1]
            yield "byte flipped", entry[:middle] + bytes([entry[middle] ^ 0xFF]) + entry[middle + 1:]
            yield "old JSON entry", json.dumps({"key": "{}", "exit": 0, "stdout": "count\n999\n",
                                                "source_hash": cli._source_hash()}).encode()
            yield "exit not an int", zlib.compress(stamp + b"\nTrue\ncount\n999\n")
            yield "no exit", zlib.compress(stamp + b"\n\ncount\n999\n")
            yield "not UTF-8", zlib.compress(stamp + b"\n0\n\xff\xfe")
            yield "stale stamp", zlib.compress(b"0" * 64 + b"\n0\ncount\n999\n")

        for argv, compute in [(["enumerate", "--moduli", "5,6", "--format", "csv"], "enumerate_multi_cores"),
                              (["enumerate", "--moduli", "5,6", "--format", "table"], "enumerate_multi_cores"),
                              (["count", "--moduli", "5,14", "--format", "json"], "family_stats"),
                              (["verify", "--claim", "xiong"], "verify_claim")]:
            lines = -1 if argv[0] == "verify" else None  # a verify table ends with its elapsed time
            code, fresh, _ = run(capsys, *argv, "--no-cache")
            assert run(capsys, *argv)[0] == code
            (path,) = (tmp_path / "cache").iterdir()
            stored = zlib.decompress(path.read_bytes()).decode().splitlines()[:lines]
            assert stored == [cli._source_hash(), str(code), *fresh.splitlines()[:lines]], argv
            for case, data in damaged(path.read_bytes()):
                path.write_bytes(data)
                answer = run(capsys, *argv)
                assert answer[0] == code and answer[2] == "", (argv, case)
                assert answer[1].splitlines()[:lines] == fresh.splitlines()[:lines], (argv, case)
                assert zlib.decompress(path.read_bytes()).decode().splitlines()[:lines] == stored, (argv, case)
                with monkeypatch.context() as patch:
                    patch.setattr(cli, compute, None)
                    assert run(capsys, *argv) == answer, (argv, case)
            path.unlink()

    @pytest.mark.parametrize("argv, compute, field, value", [
        (["enumerate", "--moduli", "5,6", "--format", "csv"], "enumerate_multi_cores", "stdout", b"\xff\xfe"),
        (["enumerate", "--moduli", "5,6", "--format", "table"], "enumerate_multi_cores", "stdout", None),
        (["count", "--moduli", "5,6", "--format", "json"], "family_stats", "exit", b"0.0"),
        (["verify", "--claim", "xiong"], "verify_claim", "exit", b"True"),
        (["verify", "--claim", "xiong"], "verify_claim", "exit", None),
        (["verify", "--claim", "xiong"], "verify_claim", "stdout", None),
    ])
    def test_mistyped_field_is_recomputed_and_rewritten(self, capsys, tmp_path, monkeypatch,
                                                        argv, compute, field, value):
        # one field of an otherwise intact entry is replaced by `value`, or dropped with its newline if None
        lines = -1 if argv[0] == "verify" else None  # a verify table ends with its elapsed time
        code, fresh, _ = run(capsys, *argv)
        (path,) = (tmp_path / "cache").iterdir()
        entry = dict(zip(["stamp", "exit", "stdout"], zlib.decompress(path.read_bytes()).split(b"\n", 2)))
        stored = b"\n".join(entry.values()).decode().splitlines()[:lines]
        path.write_bytes(zlib.compress(b"\n".join(v for v in {**entry, field: value}.values() if v is not None)))
        answer = run(capsys, *argv)
        assert answer[0] == code and answer[2] == ""
        assert answer[1].splitlines()[:lines] == fresh.splitlines()[:lines]
        assert zlib.decompress(path.read_bytes()).decode().splitlines()[:lines] == stored
        with monkeypatch.context() as patch:  # the rewritten entry answers the next run alone
            patch.setattr(cli, compute, None)
            assert run(capsys, *argv) == answer


def test_package_holds_only_top_level_sources():
    # the cache's source hash covers the package's top-level .py files, so nothing else may feed it
    package = Path(coreabacus.__file__).parent
    files = [p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    assert files and all(p.parent == package and p.suffix == ".py" for p in files), files


def test_package_states_invariants_without_assert():
    # `python -O` strips assert statements, so an invariant must be an explicit raise
    package = Path(coreabacus.__file__).parent
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


COMPUTE_MODULES = [f"coreabacus.{m}" for m in ("abacus", "constructions", "enumeration", "verification")]


def fresh(code, cache=None) -> str:
    """The stdout of `code` run in a fresh interpreter that sees `coreabacus` and the `cache`."""
    env = dict(os.environ, PYTHONPATH=str(Path(coreabacus.__file__).parent.parent))
    if cache is not None:
        env["COREABACUS_CACHE"] = str(cache)
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def loaded(code, modules, cache=None):
    """The `modules` a fresh interpreter holds after running `code`."""
    code += f"; import json, sys; print(json.dumps(sorted(set({modules!r}) & sys.modules.keys())))"
    return json.loads(fresh(code, cache).splitlines()[-1])


def test_parser_start_imports_no_introspection_modules():
    # every `cores` run pays the parser's imports, compiled anew where bytecode is not written: the parser needs no
    # module of the library, and `dataclasses` alone would pull in `inspect`, `ast` and `dis`
    assert loaded("import coreabacus.cli as c; c.build_parser()",
                  ["dataclasses", "inspect", "ast", "hashlib", "coreabacus.partitions", *COMPUTE_MODULES]) == []


def test_a_command_imports_only_its_modules(tmp_path):
    # show never imports verification; a verify hit replays its entry without importing any module that computes
    run = "import coreabacus.cli as c; c.main({})".format
    assert loaded(run(["show", "A", "--s", "5"]), COMPUTE_MODULES) == COMPUTE_MODULES[:3]
    argv = ["verify", "--claim", "xiong", "--grid", "s=1..3"]
    assert loaded(run(argv), COMPUTE_MODULES, tmp_path) == COMPUTE_MODULES
    assert loaded(run(argv), ["coreabacus.partitions", *COMPUTE_MODULES, "hashlib"], tmp_path) == ["hashlib"]


def test_a_name_assigned_before_its_load_is_what_the_command_calls():
    # a tracer or a test may replace a library name of `cli` before any command has imported it
    code = ("import coreabacus.cli as c, coreabacus.verification as v\n"
            "def traced(claim, grid=None):\n"
            "    print('traced', claim)\n"
            "    return v.verify_claim(claim, grid)\n"
            "c.verify_claim = traced\n"
            "c.main(['verify', '--claim', 'xiong', '--grid', 's=1..3', '--no-cache'])")
    out = fresh(code)
    assert out.startswith("traced xiong\nclaim: xiong\n") and "all cells pass" in out


def test_lazy_exports_are_their_submodules_objects():
    # each exported name is imported from its submodule on first access, and is that submodule's object
    assert len(coreabacus.__all__) == len(set(coreabacus.__all__)) == 68
    for name in coreabacus.__all__:
        module = importlib.import_module(f"coreabacus.{coreabacus._EXPORTS[name]}")
        assert getattr(coreabacus, name) is getattr(module, name), name
    assert set(coreabacus.__all__) <= set(dir(coreabacus)) and "enumeration" in dir(coreabacus)
    assert isinstance(coreabacus.__version__, str)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        coreabacus.nonexistent  # noqa: B018
    with pytest.raises(ImportError):
        from coreabacus import nonexistent  # noqa: F401
    # importing the package imports no submodule; a name imports its own, and a submodule imports as one
    assert loaded("import coreabacus", COMPUTE_MODULES + ["coreabacus.partitions"]) == []
    assert loaded("from coreabacus import Partition", COMPUTE_MODULES) == []
    assert loaded("from coreabacus import GapPoset", COMPUTE_MODULES) == ["coreabacus.abacus", "coreabacus.enumeration"]
    assert loaded("import coreabacus; coreabacus.abacus", COMPUTE_MODULES) == ["coreabacus.abacus"]


@pytest.mark.parametrize("argv, refusal, names", [
    (["show", "Z", "--s", "5"], "unknown construction 'Z'", ("A", "B0", "B1", "C0", "C1", "E-", "E+", "L")),
    (["show", "Z", "--s", "10" * 2000], "unknown construction 'Z'", ("A", "L")),
    (["verify", "--claim", "bogus"], "unknown claim 'bogus'", CLAIM_IDS),
])
def test_an_unknown_name_is_refused_by_the_library(capsys, tmp_path, argv, refusal, names):
    # the parser takes any name; the construction table and the claim table are the one gate, and their refusal
    # is a usage error that names every valid value and stores nothing
    code, out, err = outcome(capsys, argv)
    assert (code, out) == (2, "") and err.startswith(f"error: {refusal}; expected one of ("), err
    assert all(repr(name) in err for name in names), err
    assert not (tmp_path / "cache").exists() or list((tmp_path / "cache").iterdir()) == []


def test_only_abacus_reads_the_positions_grid():
    # beyond `abacus`, code reads an abacus's mask; `.positions` and `from_abacus` are public-edge adapters
    def is_grid_read(node):
        if isinstance(node, ast.Call):
            node = node.func
            return getattr(node, "id", None) == "from_abacus" or getattr(node, "attr", None) == "from_abacus"
        return isinstance(node, ast.Attribute) and node.attr == "positions"

    package = Path(coreabacus.__file__).parent
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "abacus.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if is_grid_read(node)
    ]
    assert reads == []


def test_each_input_contract_is_stated_once():
    # a family's moduli pass `partitions._moduli`, an (s, m) point `constructions._check_s` and `_check_m`, a
    # runner count `abacus._runner_count` and a bead set `abacus.beadset`, and a family no route takes is refused
    # by `enumeration._route`, so an entry point calls them rather than restating a refusal in words of its own
    package = Path(coreabacus.__file__).parent
    raises = [
        (f"{path.name}:{node.lineno}", [c.value for c in ast.walk(node) if isinstance(c, ast.Constant)])
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
    ]
    for message, home in [("at least one modulus is required", "partitions.py"),
                          ("moduli must be positive", "partitions.py"),
                          ("s must be at least 1", "constructions.py"), ("m must be at least 1", "constructions.py"),
                          ("runner count must be positive", "abacus.py"),
                          ("bead positions must be non-negative", "abacus.py"),
                          ("the family may be infinite", "enumeration.py"),
                          ("unknown construction", "constructions.py"), ("unknown claim", "verification.py")]:
        stating = [place for place, texts in raises if any(message in str(text) for text in texts)]
        assert len(stating) == 1 and stating[0].startswith(f"{home}:"), (message, stating)


def test_the_hook_oracle_reads_no_bead_set():
    # `is_t_core`, `_mask_is_core` and the bench are checked against the Young-diagram hooks, so the
    # hooks and the brute-force family must not be computed from the abacus's bead masks
    package = Path(coreabacus.__file__).parent

    def imported(node):
        if isinstance(node, ast.ImportFrom):
            return [node.module or "", *(alias.name for alias in node.names)]
        return [alias.name for alias in node.names] if isinstance(node, ast.Import) else []

    imports = [
        f"partitions.py:{node.lineno}"
        for node in ast.walk(ast.parse((package / "partitions.py").read_text()))
        if any("abacus" in name for name in imported(node))
    ]
    assert imports == []
    abacus_names = {"abacus"}
    for node in ast.parse((package / "abacus.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            abacus_names.add(node.name)
        elif isinstance(node, ast.Assign):
            abacus_names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    assert {"_beads_mask", "_mask_is_core", "is_t_core"} <= abacus_names
    (oracle,) = [
        node for node in ast.walk(ast.parse((package / "enumeration.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "oracle_enumerate"
    ]
    used = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(oracle)}
    assert used & abacus_names == set()


class TestVerify:
    def test_xiong_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "xiong", "--grid", "s=1..6")
        assert code == 0
        assert "all cells pass" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--claim", "middle", "--grid", "s=3..5,m=1..2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["claim"] == "middle"
        assert all(c["pass"] for c in payload["cells"])

    def test_guard_rail_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "--claim", "xiong", "--grid", "s=1..50")
        assert code == 2 and "guard rail" in err

    def test_reversed_grid_exit_two(self, capsys):
        code, out, err = run(capsys, "verify", "--claim", "xiong", "--grid", "s=5..3")
        assert code == 2 and "empty" in err and "all cells pass" not in out

    def test_grid_without_cells_exit_two(self, capsys):
        for claim in ("olsson-stanton", "sylvester"):
            code, out, err = run(capsys, "verify", "--claim", claim, "--grid", "t=2..2")
            assert (code, out) == (2, ""), claim
            assert claim in err and "t=2..2" in err, claim

    def test_bad_grid_syntax(self, capsys):
        # argparse reads --grid, so a clause it cannot parse is a usage error
        code, _, err = outcome(capsys, ["verify", "--claim", "xiong", "--grid", "nonsense"])
        assert code == 2

    def test_repeated_grid_parameter_exit_two(self, capsys):
        # a repeated key once kept only its last clause, so s=1..2 went unverified behind exit 0
        for grid in ("s=1..2,s=3..4", "s=3..4, s =3..4", "s=3..4,m=1..2,m=1..3"):
            code, out, err = outcome(capsys, ["verify", "--claim", "middle", "--grid", grid])
            assert (code, out) == (2, ""), grid
            assert "grid parameter" in err and grid in err, grid


class TestMaximalAndLongest:
    def test_maximal_5_6(self, capsys):
        code, out, _ = run(capsys, "maximal", "--s", "5", "--t", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["weight"] == 35
        assert sum(payload["partition"]) == 35

    def test_maximal_table_line(self, capsys):
        # the README's `cores maximal --s 5 --t 6`, and the empty (1,1)-core
        assert run(capsys, "maximal", "--s", "5", "--t", "6") == (
            0, "maximal (5,6)-core: [10, 6, 6, 3, 3, 3, 1, 1, 1, 1] weight=35\n", "")
        assert run(capsys, "maximal", "--s", "1", "--t", "1") == (0, "maximal (1,1)-core: [] weight=0\n", "")

    def test_maximal_non_coprime(self, capsys):
        code, _, err = run(capsys, "maximal", "--s", "4", "--t", "6")
        assert code == 2

    def test_maximal_rail_boundary(self, capsys, monkeypatch):
        # the rail is on st - s - t: (1000,1001) spans 998,999 positions, (1001,1002) would span 1,000,999
        code, out, err = run(capsys, "maximal", "--s", "1000", "--t", "1001", "--format", "json")
        payload = json.loads(out)
        assert (code, err, len(payload["partition"])) == (0, "", 999 * 1000 // 2)
        assert payload["weight"] == max_weight_formula(1000, 1001)

        def beads_mask(gaps):  # `_gaps` rails at the call and lists only when consumed, so an admitted pair fails here
            raise AssertionError("the rail let the work start")

        monkeypatch.setattr(enumeration, "_beads_mask", beads_mask)
        # the larger modulus is named first
        for s, t, named in [(1001, 1002, "t here is 1001"), (2, 1000003, "t here is 1000002"),
                            (100000, 100001, "t here is 11"), (1000003, 2, "s here is 1000002"),
                            (1002, 1001, "s here is 1001")]:
            code, out, err = run(capsys, "maximal", "--s", str(s), "--t", str(t))
            assert (code, out) == (2, ""), (s, t)
            assert err.endswith(f"guard rail of 1000000; the largest admissible {named}\n"), err
            with pytest.raises(enumeration.GuardRailError):
                enumeration.maximal_st_core(s, t)

    def test_longest_rail_boundary(self, capsys, monkeypatch):
        # the rail is on the runners x rows of L(s, m): L(316, 20) is 6,320 x 158 = 998,560 cells, for 499,122 parts,
        # L(317, 20) would be 1,001,720; L(1414, 1) is 998,284 cells, L(1415, 1) would be 1,000,405; L(1, m) has one
        # row of m runners and no bead
        code, out, err = run(capsys, "longest", "--s", "316", "--m", "20", "--format", "json")
        assert (code, err, json.loads(out)["parts"]) == (0, "", 499122)
        code, out, err = run(capsys, "longest", "--s", "1414", "--m", "1", "--format", "json")
        assert (code, err, json.loads(out)["parts"]) == (0, "", 1413 ** 2 // 4)
        code, out, err = run(capsys, "longest", "--s", "1", "--m", "1000000", "--format", "json")
        assert (code, err, json.loads(out)["partition"]) == (0, "", [])

        def build_l(s, m):
            raise AssertionError(f"the rail built L({s}, {m})")

        def refuse(*args, **kwargs):
            raise AssertionError("the rail let the work start")

        monkeypatch.setattr(cli, "build_l", build_l)
        monkeypatch.setattr(cli, "build_named", refuse)
        monkeypatch.setattr(cli, "render_abacus", refuse)
        for s, m, named in [(317, 20, "s here is 316"), (1000, 20, "s here is 316"), (1416, 1, "s here is 1414"),
                            (1415, 1, "s here is 1414"), (1, 1000001, "m here is 1000000"),
                            (1, 30000000, "m here is 1000000"), (1000000, 0, "s here is 1414")]:
            code, out, err = run(capsys, "longest", "--s", str(s), "--m", str(m))
            assert (code, out) == (2, ""), (s, m)
            assert err.endswith(f"guard rail of 1000000; the largest admissible {named}\n"), err

    def test_longest_5_3(self, capsys):
        code, out, _ = run(capsys, "longest", "--s", "5", "--m", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["parts"] == 16 and payload["weight"] == 63

    def test_longest_table_header_names_the_moduli(self, capsys):
        code, out, _ = run(capsys, "longest", "--s", "1", "--m", "1")
        assert (code, out) == (0, "longest (1,2)-core: [] parts=0 weight=0\n")
        code, out, _ = run(capsys, "longest", "--s", "5", "--m", "3")
        assert (code, out) == (0, "longest (5,14,16)-core: [12, 9, 9, 6, 6, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1] "
                                  "parts=16 weight=63\n")

    def test_longest_matches_brute_force(self, capsys):
        for s in range(1, 8):
            for m in range(1, 4):
                moduli = tuple(t for t in (s, m * s - 1, m * s + 1) if t >= 1)
                brute = longest_member(enumerate_multi_cores(moduli))
                code, out, _ = run(capsys, "longest", "--s", str(s), "--m", str(m), "--format", "json")
                assert code == 0
                assert json.loads(out) == {"s": s, "m": m, "partition": list(brute.parts),
                                           "parts": len(brute), "weight": brute.weight}, (s, m)
