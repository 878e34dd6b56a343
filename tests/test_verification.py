import json
from pathlib import Path

import pytest

from coreabacus import abacus, enumeration
from coreabacus import partitions as pt
from coreabacus import verification as vf
from coreabacus.abacus import Abacus
from coreabacus.enumeration import GuardRailError, enumerate_multi_cores
from coreabacus.partitions import Partition, is_two_core


def fib_reference(s):
    """Fibonacci with seeds 1, 2, by its own loop: an oracle for `fib_count`."""
    a, b = 1, 2  # values at s = 1 and s = 2
    for _ in range(s - 1):
        a, b = b, a + b
    return a


def self_conjugate_reference(kind, m, s):
    """The piecewise counts case by case, s = 1 apart: an oracle for `self_conjugate_counts`."""
    alpha = s // 2
    if kind == "plain":
        return 1 if s == 1 else alpha + 1
    if kind == "minus":
        if s == 1:
            return 1
        return m * alpha if s % 2 == 0 else alpha + 1
    if s == 1:
        return 1
    return m * alpha + 1 if s % 2 == 0 else alpha + 1


class TestFibCount:
    def test_seeds(self):
        assert vf.fib_count(1) == 1
        assert vf.fib_count(2) == 2

    def test_unrolled(self):
        assert [vf.fib_count(s) for s in range(1, 11)] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            vf.fib_count(0)

    def test_matches_fibonacci_loop(self):
        assert [vf.fib_count(s) for s in range(1, 61)] == [fib_reference(s) for s in range(1, 61)]


class TestStraubRecurrences:
    def test_seeds(self):
        assert vf.straub_minus(3, 2) == 3
        assert vf.straub_plus(3, 2) == 4
        for m in range(1, 7):
            assert vf.straub_minus(m, 1) == 1
            assert vf.straub_plus(m, 1) == 1

    def test_unrolled_m3(self):
        assert [vf.straub_minus(3, s) for s in range(1, 6)] == [1, 3, 6, 15, 33]
        assert [vf.straub_plus(3, s) for s in range(1, 6)] == [1, 4, 7, 19, 40]

    def test_middle_identity(self):
        assert vf.middle_identity_check(3, 5)
        assert vf.middle_identity_check(1, 3)
        for m in range(1, 7):
            for s in range(3, 21):
                assert vf.middle_identity_check(m, s)

    def test_middle_requires_s_at_least_3(self):
        with pytest.raises(ValueError):
            vf.middle_identity_check(2, 2)


class TestMaxWeightFormula:
    def test_values(self):
        assert vf.max_weight_formula(3, 4) == 5
        assert vf.max_weight_formula(5, 14) == 195
        assert vf.max_weight_formula(5, 6) == 35
        assert vf.max_weight_formula(1, 9) == 0

    def test_non_coprime(self):
        with pytest.raises(ValueError):
            vf.max_weight_formula(4, 6)


class TestLongestWeightFormula:
    def test_cases(self):
        assert vf.longest_weight_formula(5, 3) == 63
        assert vf.longest_weight_formula(4, 2) == 12
        assert vf.longest_weight_formula(1, 5) == 0

    def test_s2_boundary_matches_brute_force(self):
        # smallest even case: confirm the parameterization before trusting it
        for m in range(1, 5):
            moduli = tuple(t for t in (2, 2 * m - 1, 2 * m + 1) if t >= 1)
            family = enumerate_multi_cores(moduli)
            assert vf.longest_weight_formula(2, m) == family.max_weight()

    def test_integer_valued_on_grid(self):
        for s in range(1, 15):
            for m in range(1, 8):
                assert isinstance(vf.longest_weight_formula(s, m), int)


class TestSelfConjugateCounts:
    def test_plain(self):
        assert vf.self_conjugate_counts("plain", 1, 1) == 1
        assert vf.self_conjugate_counts("plain", 1, 2) == 2
        assert vf.self_conjugate_counts("plain", 1, 8) == 5
        assert vf.self_conjugate_counts("plain", 1, 9) == 5

    def test_minus(self):
        assert vf.self_conjugate_counts("minus", 1, 1) == 1
        assert vf.self_conjugate_counts("minus", 3, 2) == 3
        assert vf.self_conjugate_counts("minus", 3, 5) == 3

    def test_plus(self):
        assert vf.self_conjugate_counts("plus", 3, 2) == 4
        assert vf.self_conjugate_counts("plus", 3, 5) == 3
        assert vf.self_conjugate_counts("plus", 2, 6) == 7

    def test_odd_counts_agree(self):
        for m in range(1, 4):
            for alpha in range(1, 5):
                s = 2 * alpha + 1
                assert vf.self_conjugate_counts("minus", m, s) == vf.self_conjugate_counts("plus", m, s)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            vf.self_conjugate_counts("other", 1, 2)

    def test_matches_piecewise_cases(self):
        for kind in ("plain", "minus", "plus"):
            for m in range(1, 6):
                for s in range(1, 61):
                    assert vf.self_conjugate_counts(kind, m, s) == self_conjugate_reference(kind, m, s), (kind, m, s)


class TestStaircaseOracle:
    def test_5_14(self):
        assert vf.staircase_core_count((5, 14)) == 3

    def test_8_9(self):
        assert vf.staircase_core_count((8, 9)) == 5

    def test_all_even_rejected(self):
        with pytest.raises(ValueError):
            vf.staircase_core_count((2, 4))


class TestCorollary3:
    def test_4_2(self):
        assert vf.corollary3_check(4, 2)

    def test_2_1_trivial(self):
        assert vf.corollary3_check(2, 1)

    def test_6_2_fails(self):
        # max weight of the (6,11,13)-cores is 57, which 4 does not divide
        assert not vf.corollary3_check(6, 2)

    def test_odd_s_rejected(self):
        with pytest.raises(ValueError):
            vf.corollary3_check(5, 2)


class TestHarness:
    def test_xiong_passes(self):
        report = vf.verify_claim("xiong", {"s": (1, 6)})
        assert report.all_passed
        assert [c.params["s"] for c in report.cells] == [1, 2, 3, 4, 5, 6]

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            vf.verify_claim("no-such-claim")

    def test_guard_rail_breach(self):
        with pytest.raises(GuardRailError):
            vf.verify_claim("xiong", {"s": (1, 11)})
        with pytest.raises(GuardRailError):
            vf.verify_claim("xiong", {"m": (1, 2)})
        with pytest.raises(GuardRailError):
            vf.verify_claim("xiong", {"s": (5, 3)})

    def test_t_grid_lower_end(self):
        for claim in ("olsson-stanton", "sylvester"):
            report = vf.verify_claim(claim, {"t": (9, 9)})
            assert report.all_passed
            assert [(c.params["s"], c.params["t"]) for c in report.cells] == [(2, 9), (4, 9), (5, 9), (7, 9), (8, 9)]

    def test_grid_without_cells_is_refused(self):
        for claim in ("olsson-stanton", "sylvester"):
            with pytest.raises(GuardRailError, match=f"{claim}.*t=2..2"):
                vf.verify_claim(claim, {"t": (2, 2)})
            assert vf.verify_claim(claim, {"t": (2, 3)}).cells

    def test_two_conj_sweeps_from_grid_lower_end(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return is_two_core(p)

        monkeypatch.setattr(pt, "is_two_core", counted)
        report = vf.verify_claim("two-conj", {"w": (5, 5)})
        assert report.all_passed and [c.params for c in report.cells] == [{"w": 5}]
        assert len(calls) == 7  # p(5)
        assert {sum(p) for p in calls} == {5}

    def test_report_json_schema(self):
        report = vf.verify_claim("middle", {"s": (3, 5), "m": (1, 2)})
        payload = json.loads(report.to_json())
        assert payload["claim"] == "middle"
        assert set(payload["grid"]) == {"s", "m"}
        assert all({"params", "expected", "observed", "pass"} <= set(c) for c in payload["cells"])
        assert payload["elapsed_ms"] >= 0

    def test_berger_reports_statuses(self):
        report = vf.verify_claim("berger", {"s": (1, 4), "m": (1, 2)})
        for cell in report.cells:
            assert cell.status.startswith(("SUPPORTED", "REFUTED-AT", "UNTESTED"))
        m1 = [c for c in report.cells if c.params["m"] == 1]
        assert m1 and all(c.status == "SUPPORTED" for c in m1)

    def test_emax_small_grid(self):
        assert vf.verify_claim("emax", {"s": (1, 4), "m": (1, 2)}).all_passed

    def test_star_routes_report_notes(self):
        report = vf.verify_claim("fstar", {"s": (1, 5)})
        assert report.all_passed
        assert all("route" in c.note for c in report.cells)

    def test_star_cells_match_staircase_oracle(self):
        moduli = {"fstar": lambda p: (p["s"], p["s"] + 1),
                  "e-minus-star": lambda p: (p["s"], p["m"] * p["s"] - 1),
                  "e-plus-star": lambda p: (p["s"], p["m"] * p["s"] + 1)}
        for claim, pair in moduli.items():
            cells = [c for c in vf.verify_claim(claim).cells if c.status != "UNTESTED"]
            assert cells
            for cell in cells:
                assert cell.observed == vf.staircase_core_count(pair(cell.params)), (claim, cell.params)

    def test_guardrails_cover_all_claims(self):
        rails = vf.claim_guardrails()
        assert set(rails) == set(vf.CLAIM_IDS)


@pytest.mark.parametrize("claim", vf.CLAIM_IDS)
def test_every_claim_passes_at_its_default_rails(claim):
    # reads the golden rails report, which TestGoldenReports recomputes byte for byte
    rails = {k: list(v) for k, v in vf.claim_guardrails()[claim].items()}
    (report,) = [r for r in map(json.loads, GOLDEN_REPORTS) if r["claim"] == claim and r["grid"] == rails]
    assert report["cells"] and all(c["pass"] for c in report["cells"]), [c for c in report["cells"] if not c["pass"]]


class TestRowStructure:
    def test_default_rails_observe_no_violation(self):
        cells = [c for c in vf.verify_claim("row-structure").cells if c.status != "UNTESTED"]
        assert cells and all(c.observed == 0 and c.passed for c in cells)

    def test_empty_envelope_flags_every_nonempty_core(self, monkeypatch):
        monkeypatch.setattr(vf, "build_e_plus", lambda s, m: Abacus(m * s, frozenset()))
        cells = [c for c in vf.verify_claim("row-structure").cells if c.params["sign"] == +1]
        assert cells
        for cell in cells:
            m, s = cell.params["m"], cell.params["s"]
            assert cell.observed == vf.straub_plus(m, s) - 1, cell.params  # all but the empty core
            assert cell.passed == (s == 1), cell.params  # s = 1 leaves the empty core alone

    def test_bead_in_row_one_of_the_envelope_is_a_violation(self, monkeypatch):
        s, m = 3, 2
        row_one = {}
        for sign, build in ((-1, vf.build_e_minus), (+1, vf.build_e_plus)):
            envelope = build(s, m)
            row_one[m * s + sign] = min(i + j * envelope.runners for i, j in envelope.positions if j == 1)
        monkeypatch.setattr(vf, "_masks", lambda moduli, distinct: iter([(1 << row_one[moduli[1]], 1, row_one[moduli[1]])]))
        report = vf.verify_claim("row-structure", {"s": (s, s), "m": (m, m)})
        assert [(c.params["sign"], c.observed, c.passed) for c in report.cells] == [(-1, 1, False), (+1, 1, False)]

    def test_builds_no_partition(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("row-structure built a Partition")

        monkeypatch.setattr(Partition, "_trusted", refuse)
        monkeypatch.setattr(abacus, "_mask_to_partition", refuse)
        monkeypatch.setattr(enumeration, "_mask_to_partition", refuse)
        assert vf.verify_claim("row-structure").all_passed


GOLDEN_REPORTS = (Path(__file__).parent / "golden" / "verify_reports.json").read_text().splitlines()
GOLDEN_IDS = [f"{claim}-{grid}" for grid in ("rails", "narrowed") for claim in vf.CLAIM_IDS]


def _report_line(claim, grid=None):
    payload = json.loads(vf.verify_claim(claim, grid).to_json())
    del payload["elapsed_ms"]
    return json.dumps(payload)


class TestGoldenReports:
    """Each line is a full report (cells, params key order, statuses, notes) without `elapsed_ms`.

    The first 14 lines are every claim at its default rails; the next 14 narrow each
    claim's grid to lower ends above the rail's.  A line names its own claim and grid.
    """

    def test_covers_every_claim_at_its_rails_and_narrowed(self):
        reports = [json.loads(line) for line in GOLDEN_REPORTS]
        rails = vf.claim_guardrails()
        assert [r["claim"] for r in reports] == 2 * list(vf.CLAIM_IDS)
        for r in reports[: len(vf.CLAIM_IDS)]:
            assert r["grid"] == {k: list(v) for k, v in rails[r["claim"]].items()}
        for r in reports[len(vf.CLAIM_IDS):]:
            assert all(lo > rails[r["claim"]][k][0] for k, (lo, _) in r["grid"].items()), r

    @pytest.mark.parametrize("line", GOLDEN_REPORTS, ids=GOLDEN_IDS)
    def test_report_is_byte_identical(self, line):
        report = json.loads(line)
        grid = {k: tuple(v) for k, v in report["grid"].items()}
        assert _report_line(report["claim"], grid) == line
