"""One-line mutants of the checkers and kernels, each with the tests that must kill it.

Each mutant replaces one fragment, which must occur exactly once, in a copy
of ``src/`` and runs pytest on the test files or node ids it names, with the
copy first on PYTHONPATH.  A mutant is killed when those tests fail.  The
unmutated source must pass the same tests first, or nothing is judged.

Exit status: 0 when every mutant is killed or listed as equivalent (with the
reason it cannot be told apart); 1 when another mutant survives; 2 when the
baseline fails or a fragment no longer occurs exactly once, so a change that
moves the mutated code must move its entry too.

Run from any directory, with pytest and hypothesis installed:

    python scripts/mutants.py              # every mutant
    python scripts/mutants.py NAME ...     # only these
    python scripts/mutants.py --list

pytest does not collect this file: it lies outside the ``tests`` testpath.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/rainbowpath
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why no test can kill it; empty: it must die


MUTANTS = (
    # σ2 by minimum degree: the bound, its cut-off, and the exact fallback.
    Mutant("sigma2-bound-2delta-plus-1", "model.py",
           "floor = 2 * min(map(int.bit_count, row))",
           "floor = 2 * min(map(int.bit_count, row)) + 1",
           ("tests/test_sigma2_bounds.py",)),
    Mutant("check-hypothesis-no-exact-fallback", "model.py",
           "or all(value >= bound for value in collection.sigma2s))",
           "or False)",
           ("tests/test_sigma2_bounds.py",)),
    Mutant("sigma2-cutoff-n", "model.py",
           "cutoff = n + (n - 4) // 3",
           "cutoff = n",
           ("tests/test_sigma2_bounds.py",)),
    # The greedy step answers with the lowest unused color only where its
    # row holds the candidate.
    Mutant("try-extend-first-color-untested", "solver.py",
           "if collection.adjacency[first][end] & low:",
           "if low:",
           ("tests/test_solver.py::TestTryExtend",)),
    # Certificate checker clauses.
    Mutant("no-cross-ignores-vertex-0", "structures.py",
           "present = y_mask & collection.adjacency[c][a]",
           "present = y_mask & collection.adjacency[c][a] & ~1",
           ("tests/test_structures.py",)),
    Mutant("all-pairs-present-skips-a-plus-1", "structures.py",
           "missing = b_mask & ~collection.adjacency[c][a] & ~(1 << a)",
           "missing = b_mask & ~collection.adjacency[c][a] & ~(3 << a)",
           ("tests/test_structures.py",)),
    # The decoder's bit-matrix check reads column n as out of range.
    Mutant("check-bit-matrix-misses-column-n", "model.py",
           "if transpose >> n * stride:",
           "if transpose >> (n + 1) * stride:",
           ("tests/test_serialize.py", "tests/test_model.py")),
    # The exact search's rainbow toughness cut without its private-edge
    # owners: it cuts states that have a completion.
    Mutant("toughness-cut-a-zero", "oracle.py",
           "slack = bound + owned.bit_count()",
           "slack = bound",
           ("tests/test_oracle.py",)),
    # Scanning on after the degree-order stop only revisits pairs whose
    # sum cannot be lower, so sigma2 is unchanged.
    Mutant("row-sigma2-stops-later", "model.py",
           "if 2 * du >= best:",
           "if 2 * du > best:",
           ("tests/test_model.py::TestSigma2",),
           equivalent="scans more pairs; every pair it adds has a degree sum >= the minimum found"),
)


def _passes(src: Path, tests: tuple[str, ...]) -> tuple[bool, str]:
    """Run pytest on ``tests`` against the package under ``src``; return
    whether it passed and the first failing test id, if any."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    failed = next((line for line in result.stdout.splitlines() if line.startswith("FAILED")), "")
    return result.returncode == 0, failed


def _mutated_copy(mutant: Mutant, workdir: Path) -> Path:
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = src / "rainbowpath" / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"{mutant.name}: fragment occurs {count} times in {mutant.path}")
    target.write_text(text.replace(mutant.old, mutant.new))
    return src


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(f"{mutant.name}: {mutant.path}: {mutant.old!r} -> {mutant.new!r}")
        return 0
    unknown = set(argv) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not argv or mutant.name in argv]
    baseline = tuple(dict.fromkeys(test for mutant in chosen for test in mutant.tests))
    ok, failed = _passes(ROOT / "src", baseline)
    if not ok:
        print(f"baseline fails, nothing judged: {failed or 'pytest error'}", file=sys.stderr)
        return 2
    survivors = []
    for mutant in chosen:
        with tempfile.TemporaryDirectory(prefix="rainbowpath-mutant-") as workdir:
            try:
                src = _mutated_copy(mutant, Path(workdir))
            except LookupError as exc:
                print(exc, file=sys.stderr)
                return 2
            survived, failed = _passes(src, mutant.tests)
        if not survived:
            print(f"killed      {mutant.name}: {failed}")
        elif mutant.equivalent:
            print(f"equivalent  {mutant.name}: {mutant.equivalent}")
        else:
            print(f"SURVIVED    {mutant.name}")
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
