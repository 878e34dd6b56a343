import json
from pathlib import Path

import pytest

from coreabacus.cli import main
from coreabacus.enumeration import enumerate_multi_cores, longest_member

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("COREABACUS_CACHE", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_self_conjugate_filter(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--moduli", "8,9",
            "--self-conjugate", "--distinct", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["count"] == 5
        assert [4, 3, 2, 1] in payload["partitions"]

    def test_bad_moduli(self, capsys):
        code, _, err = run(capsys, "count", "--moduli", "4,6")
        assert code == 2 and "error" in err

    def test_idempotent_output(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--moduli", "5,6", "--format", "json", "--no-cache")
        _, second, _ = run(capsys, "enumerate", "--moduli", "5,6", "--format", "json", "--no-cache")
        assert first == second

    def test_cache_round_trip(self, capsys, tmp_path):
        _, first, _ = run(capsys, "count", "--moduli", "5,14", "--format", "json")
        cache_dir = tmp_path / "cache"
        assert any(cache_dir.iterdir())
        _, second, _ = run(capsys, "count", "--moduli", "5,14", "--format", "json")
        assert first == second


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

    def test_bad_grid_syntax(self, capsys):
        code, _, err = run(capsys, "verify", "--claim", "xiong", "--grid", "nonsense")
        assert code == 2


class TestMaximalAndLongest:
    def test_maximal_5_6(self, capsys):
        code, out, _ = run(capsys, "maximal", "--s", "5", "--t", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["weight"] == 35
        assert sum(payload["partition"]) == 35

    def test_maximal_non_coprime(self, capsys):
        code, _, err = run(capsys, "maximal", "--s", "4", "--t", "6")
        assert code == 2

    def test_longest_5_3(self, capsys):
        code, out, _ = run(capsys, "longest", "--s", "5", "--m", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["parts"] == 16 and payload["weight"] == 63

    def test_longest_matches_brute_force(self, capsys):
        for s in range(1, 8):
            for m in range(1, 4):
                moduli = tuple(t for t in (s, m * s - 1, m * s + 1) if t >= 1)
                brute = longest_member(enumerate_multi_cores(moduli))
                code, out, _ = run(capsys, "longest", "--s", str(s), "--m", str(m), "--format", "json")
                assert code == 0
                assert json.loads(out) == {"s": s, "m": m, "partition": list(brute.parts),
                                           "parts": len(brute), "weight": brute.weight}, (s, m)
