"""Mutation check: each listed mutant of `src/` must make the tests named beside it fail.

    python tests/mutants.py

For each mutant the script copies `src/`, `tests/` and `pyproject.toml` to a temporary directory, replaces the
mutant's old text, which must occur exactly once in its file, with its new text, and runs
`python -m pytest -x -q <tests>` there.  The mutant is killed when pytest reports a failed test.  It survives
when the tests pass, and the script then exits 1; so it does on a stale or repeated old text, on an unmutated
copy that fails its tests, and on any other pytest outcome, such as a test id that names no test.
Equivalent mutants are listed with the reason no test can kill them, and are not run.

Each pytest run is bounded: it is stopped after `TIME_LIMIT_S` seconds, and its address space is capped at
`MEMORY_LIMIT_BYTES`, so an allocation past the cap raises `MemoryError`.  A run that hits either limit kills
its mutant only when the mutant is marked `hangs`, as one that can make a walk endless; on any other mutant,
or on the unmutated copy, it makes the script exit 1.

Standard library only; the file name keeps pytest from collecting it.
"""

from __future__ import annotations

import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 120  # the slowest named test, `test_small_pair_walks[plain]`, takes about 20 s
MEMORY_LIMIT_BYTES = 2 << 30


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple  # pytest ids, at least one of which must fail
    hangs: bool = False  # may run without end: a limit hit then counts as its kill


class Equivalent(NamedTuple):
    file: str
    old: str
    new: str
    reason: str


CONSTRUCTIONS, ENUMERATION, ABACUS, PARTITIONS = (
    f"src/coreabacus/{m}.py" for m in ("constructions", "enumeration", "abacus", "partitions"))
ROWS = "tests/test_constructions.py::TestRowsMatchTheCellByCellRoute"
WALK = "tests/test_enumeration.py::TestLatticePathStream"
SMALL_PAIR_WALKS = f"{WALK}::test_small_pair_walks"
ROW_READS = f"{WALK}::test_child_rule_is_read_once_per_row"
NAMED_ROWS = "tests/test_constructions.py::TestNamedLookup::test_rows_and_beads_read_off_s_and_m_match_the_builders"
SHOW_RAIL = "tests/test_cli.py::TestShow::test_rail_boundary"
ORACLE = "tests/test_partitions.py::TestAgainstReferences::test_oracle_enumerate_keeps_the_hook_free_members"
CONJUGATE = "tests/test_partitions.py::TestAgainstReferences::test_conjugate_and_self_conjugacy"

MUTANTS = [
    # the block table: A becomes the pyramid C0, and B1 loses its k
    Mutant(CONSTRUCTIONS, '"A": (0, 1, 0)', '"A": (0, 1, 1)', (f"{ROWS}::test_a_b_and_c_rows",)),
    Mutant(CONSTRUCTIONS, '"B1": (1, 0, 1)', '"B1": (0, 0, 1)', (f"{ROWS}::test_a_b_and_c_rows",)),
    # the m-fold table: E- with its blocks swapped, L ending on its body
    Mutant(CONSTRUCTIONS, '"E-": ("B0", "B1")', '"E-": ("B1", "B0")', (f"{ROWS}::test_m_fold_masks",)),
    Mutant(CONSTRUCTIONS, '"L": ("C0", "C1")', '"L": ("C0", "C0")', (f"{ROWS}::test_m_fold_masks",)),
    # the row count: an m-fold read off its last block at every m, and a block's k dropped
    Mutant(CONSTRUCTIONS, "(name, name))[m == 1]", "(name, name))[1]", (NAMED_ROWS, SHOW_RAIL)),
    Mutant(CONSTRUCTIONS, "max((s - 2 - k) //", "max((s - 2) //", (NAMED_ROWS, SHOW_RAIL)),
    # the gaps rail without its s input names t even where only s can be lowered
    Mutant(ENUMERATION, '_frobenius_bound(v["s"], v["t"]), [("s", s), ("t", t)][::1 if s > t else -1]',
           '_frobenius_bound(s, v["t"]), [("t", t)]',
           ("tests/test_enumeration.py::TestGapPoset::test_rail_boundary",
            "tests/test_cli.py::TestMaximalAndLongest::test_maximal_rail_boundary")),
    # `normalize` as the bead set itself, solid prefix kept
    Mutant(ABACUS, "return first_column_hooks(beadset_to_partition(x))", "return beadset(x)",
           ("tests/test_abacus.py::TestBeadSetConversions::test_partition_of_any_beadset_passes_validation",)),
    # the parts rail refusing a family of exactly its limit
    Mutant(ENUMERATION, "if count * longest > FAMILY_MAX_PARTS:", "if count * longest >= FAMILY_MAX_PARTS:",
           ("tests/test_enumeration.py::TestMultiCores::test_parts_rail_boundary",)),
    # the first-part walk reading each bucket once, missing the cores with a repeated first part it added
    Mutant(ENUMERATION, "while done < len(parents):", "if done < len(parents):", (SMALL_PAIR_WALKS,)),
    # each batch of a bucket built from its first parent, repeating the members of the batches before
    Mutant(ENUMERATION, "map(head.__add__, parents[done:])", "map(head.__add__, parents[0:])", (SMALL_PAIR_WALKS,)),
    # the first-part walk's child state shifted down by i, one position short of the child's top
    Mutant(ENUMERATION, "(state | 1 << m + i) >> i + 1", "(state | 1 << m + i) >> i", (ROW_READS,), hangs=True),
    # the first-part walk caching no state of a core whose top is exactly m
    Mutant(ENUMERATION, "if top >= m:", "if top > m:", (ROW_READS,)),
    # the first-part walk's empty core admitting a part 0, so bucket 0 never ends
    Mutant(ENUMERATION, "children(state, distinct or not top)", "children(state, distinct)", (ROW_READS,)),
    # a depth-first child weighing its parent plus i, not plus its first part a + i
    Mutant(ENUMERATION, "weight + a + i", "weight + i", (SMALL_PAIR_WALKS,)),
    # the child rule admitting a part 0 at the empty core
    Mutant(ABACUS, "window = -2 if distinct or not mask else -1", "window = -2 if distinct else -1",
           (f"{WALK}::test_child_rule_is_the_core_test",)),
    # the walk's visit budget never refusing a walk that visits more cores than it
    Mutant(ENUMERATION, "if next(nodes, None) is not None:", "if False:",
           ("tests/test_enumeration.py::TestMultiCores::test_distinct_walk_visit_budget_boundary",)),
    # the self-conjugate second-row test counting the parts 2 where the parts 1 are the ones not above 1
    Mutant(PARTITIONS, "p[1] == n - p.count(1)", "p[1] == n - p.count(2)",
           ("tests/test_partitions.py::TestPredicates::test_self_conjugate",)),
    # the hook oracle's new first-row box one short of its hook 1 + legs[a], so every first-row hook is one short
    Mutant(ENUMERATION, "hooks = hooks << 1 | 2 << leg", "hooks = hooks << 1 | 1 << leg", (ORACLE,)),
    # the hook oracle reading q's column lengths shifted by one column
    Mutant(ENUMERATION, "pt._columns(q) + [0] * (widest - below)", "pt._columns(q)[1:] + [0] * (widest - below + 1)",
           (ORACLE,)),
    # the conjugate's column lengths summed from the smallest part value up, not as suffix sums
    Mutant(PARTITIONS, "accumulate(reversed(counts))", "accumulate(counts)", (CONJUGATE,)),
    # the conjugate counting part v at index v, not v - 1
    Mutant(PARTITIONS, "counts[part - 1] += 1", "counts[part] += 1", (CONJUGATE,)),
    # an m-fold at m = 1 building the body it copies zero times
    Mutant(CONSTRUCTIONS, "_M_FOLDS[name] if m > 1 else _M_FOLDS[name][1:] * 2", "_M_FOLDS[name]",
           ("tests/test_constructions.py::TestNamedLookup::test_each_distinct_block_is_built_once",)),
]

EQUIVALENTS = [
    Equivalent(ENUMERATION, "target[n + k] = (value, old[1] + hits)", "target[n + k] = (value, old[1])",
               "`_runner_paths`' tie branch: on the 627 pair cells and 286 pivot-triple runs searched, the mutant "
               "returned the same (stats, hits); the branch stays because it is what makes `hits == 1` a check"),
    Equivalent(ENUMERATION, "r == low or r <= bound", "r == low or r < bound",
               "the first-part walk's kept moduli: a modulus of B + min(moduli) is above the largest possible bead B, "
               "so by Sylvester (by Schur without a coprime pair) it lies in the semigroup the moduli generate and "
               "every core of the rest is a core of it; dropping it changes no member"),
]


def _mutated_copy(dest: Path, mutant: Mutant | None) -> None:
    """`src/`, `tests/` and `pyproject.toml` under `dest`, with `mutant` applied to its file."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    if mutant is not None:
        path = dest / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def _pytest(dest: Path, tests) -> int | str:
    """pytest's exit code for `tests` run in `dest`, stopping at the first failure, or the limit the run hit:
    "time" when it ran past `TIME_LIMIT_S`, "memory" when it raised `MemoryError` under the address-space cap."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(command, cwd=dest, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             timeout=TIME_LIMIT_S, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "time"
    return "memory" if b"MemoryError" in run.stdout else run.returncode


def _stale(entries) -> list:
    """The entries whose old text does not occur exactly once in their file, or that change nothing."""
    return [e for e in entries if (ROOT / e.file).read_text().count(e.old) != 1 or e.old == e.new]


def main() -> int:
    start = time.perf_counter()
    stale = _stale(MUTANTS + EQUIVALENTS)
    for entry in stale:
        print(f"STALE  {entry.file}: {entry.old!r} must occur exactly once")
    if stale:
        return 1
    for entry in EQUIVALENTS:
        print(f"EQUIV  {entry.file}: {entry.old!r} -> {entry.new!r}: {entry.reason}")
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        baseline = Path(tmp) / "baseline"
        _mutated_copy(baseline, None)
        named = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if (code := _pytest(baseline, named)) != 0:
            print(f"ERROR  the unmutated copy fails the named tests ({code})")
            return 1
        for number, mutant in enumerate(MUTANTS):
            dest = Path(tmp) / str(number)
            _mutated_copy(dest, mutant)
            begin = time.perf_counter()
            code = _pytest(dest, mutant.tests)
            if isinstance(code, str):
                killed = mutant.hangs
                verdict = f"killed by the {code} limit" if killed else f"ERROR (hit the {code} limit)"
            else:
                killed = code == 1
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            failures += not killed
            print(f"{verdict:8} {mutant.file}: {mutant.old!r} -> {mutant.new!r} "
                  f"({time.perf_counter() - begin:.1f} s)")
            shutil.rmtree(dest)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed, {len(EQUIVALENTS)} equivalent not run, "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
