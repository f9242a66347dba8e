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


DERIVATION_TESTS = (
    "tests/test_corollary.py::test_every_derivation_mutation_is_rejected_with_its_message",
    "tests/test_corollary.py::test_every_path_the_replay_accepts_passes_the_full_check",
)

MUTANTS = (
    # σ2 >= b per color: the known value, then 2·δ >= b, then the exact σ2.
    Mutant("sigma2-floor-2delta-plus-1", "model.py",
           "floor = {key: 2 * min(map(int.bit_count, row)) for key, row in rows.items()}",
           "floor = {key: 2 * min(map(int.bit_count, row)) + 1 for key, row in rows.items()}",
           ("tests/test_sigma2_bounds.py",)),
    Mutant("sigma2-floor-alone", "model.py",
           "if floors[c] < bound and self._exact_sigma2(c) < bound)",
           "if floors[c] < bound)",
           ("tests/test_sigma2_bounds.py",)),
    Mutant("sigma2-seeded-values-skipped", "model.py",
           'known = self.__dict__.get("sigma2s")',
           "known = None",
           ("tests/test_sigma2_bounds.py",)),
    Mutant("sigma2-exact-values-not-kept", "model.py",
           'exact, row = self.__dict__.setdefault("_sigma2_exact", {}), self.adjacency[color]',
           "exact, row = {}, self.adjacency[color]",
           ("tests/test_sigma2_bounds.py",)),
    Mutant("dispatch-bound-n-plus-2d", "solver.py",
           "collection.sigma2_below(n - 2 + loss, bits(palette))",
           "collection.sigma2_below(n + loss, bits(palette))",
           ("tests/test_sigma2_bounds.py",)),
    # The greedy step answers with the lowest unused color only where its
    # row holds the candidate.
    Mutant("try-extend-first-color-untested", "solver.py",
           "if collection.adjacency[first][end] & low:",
           "if low:",
           ("tests/test_solver.py::TestTryExtend",)),
    # The adjacency check the case-2 and case-3 constructions lean on.
    Mutant("assert-adjacent-unchecked", "solver.py",
           "if missing:",
           "if False:",
           ("tests/test_constructions.py::test_construction_checks_the_forced_adjacency",)),
    # The extremal checker's neighbour-mask scans.
    Mutant("no-cross-ignores-vertex-0", "structures.py",
           "present = y_mask & collection.adjacency[c][a]",
           "present = y_mask & collection.adjacency[c][a] & ~1",
           ("tests/test_structures.py",)),
    Mutant("all-pairs-present-skips-a-plus-1", "structures.py",
           "missing = b_mask & ~collection.adjacency[c][a] & ~(1 << a)",
           "missing = b_mask & ~collection.adjacency[c][a] & ~(3 << a)",
           ("tests/test_structures.py",)),
    # Extremal checker clauses, each disabled alone; every test expects the
    # clause's own message.
    Mutant("extremal-coverage-unchecked", "structures.py",
           "if X | Y != universe:",
           "if False:",
           ("tests/test_structures.py",)),
    Mutant("extremal-overlap-unchecked", "structures.py",
           "if X & Y:",
           "if False:",
           ("tests/test_structures.py",)),
    Mutant("level-b-pair-not-required", "structures.py",
           "if cert.pair is None:",
           "if False:",
           ("tests/test_structures.py",)),
    Mutant("level-c-forest-not-required", "structures.py",
           'elif level == "C" and forest is None:',
           "elif False:",
           ("tests/test_structures.py",)),
    Mutant("two-cliques-may-be-empty", "structures.py",
           "if not X or not Y:",
           "if False:",
           ("tests/test_structures.py",)),
    Mutant("ell-unchecked", "structures.py",
           "if cert.ell is not None and cert.ell != len(X):",
           "if False:",
           ("tests/test_structures.py",)),
    Mutant("heavy-side-parity-unchecked", "structures.py",
           "if (n + gap) % 2 != 0:",
           "if False:",
           ("tests/test_structures.py",)),
    Mutant("heavy-side-sizes-unchecked", "structures.py",
           "elif len(X) != (n + gap) // 2 or len(Y) != (n - gap) // 2:",
           "elif False:",
           ("tests/test_structures.py",)),
    Mutant("hub-inside-x-unchecked", "structures.py",
           "if not hub <= X:",
           "if False:",
           ("tests/test_structures.py",)),
    Mutant("c2-component-count-unchecked", "structures.py",
           'if level != "A" and len(comps) != 2:',
           "if False:",
           ("tests/test_structures.py",)),
    Mutant("level-a-identical-colors-unchecked", "structures.py",
           "if any(row != collection.adjacency[0] for row in collection.adjacency[1:]):",
           "if False:",
           ("tests/test_structures.py",)),
    Mutant("heavy-side-y-independence-unchecked", "structures.py",
           'within(Y, f"{kind} Y", edges=False)',
           "pass",
           ("tests/test_structures.py",)),
    Mutant("level-c-checks-forest-colors", "structures.py",
           "colors = [c for c in colors if c not in used]",
           "colors = list(colors)",
           ("tests/test_structures.py",)),
    Mutant("pair-guard-unchecked", "structures.py",
           "if cert.pair is not None and (len(cert.pair) != 2 or cert.pair[0] == cert.pair[1]):",
           "if False:",
           ("tests/test_structures.py",)),
    Mutant("vertex-range-guard-unchecked", "structures.py",
           "if outside:",
           "if False:",
           ("tests/test_structures.py",)),
    # The decoder's bit-matrix check reads column n as out of range.
    Mutant("check-bit-matrix-misses-column-n", "model.py",
           "if transpose >> n * stride:",
           "if transpose >> (n + 1) * stride:",
           ("tests/test_serialize.py", "tests/test_model.py")),
    # The uniform generator's draws: the top-byte cut, the full compare of
    # a tie, and the grid slice that holds a vertex's upper row.
    Mutant("uniform-draws-byte-cut-44", "gen.py",
           "cut = limit >> 45",
           "cut = limit >> 44",
           ("tests/test_gen.py::TestUniformRows", "tests/test_gen.py::TestPinnedBytes")),
    Mutant("uniform-draws-tie-reads-b-shift-5", "gen.py",
           "b >> 6) < limit",
           "b >> 5) < limit",
           ("tests/test_gen.py::TestUniformRows", "tests/test_gen.py::TestPinnedBytes")),
    Mutant("uniform-rows-slice-from-diagonal", "gen.py",
           "grid[row + a + 1 : row + n]",
           "grid[row + a : row + n]",
           ("tests/test_gen.py::TestUniformRows", "tests/test_gen.py::TestPinnedBytes")),
    # The exact search's rainbow toughness cut without its private-edge
    # owners: it cuts states that have a completion.
    Mutant("toughness-cut-a-zero", "oracle.py",
           "slack = bound + owned.bit_count()",
           "slack = bound",
           ("tests/test_oracle.py",)),
    # The exact search's other two cuts: a free set disconnected in the
    # union graph, and a union independent set with 2|I| >= k + 1.
    Mutant("exact-search-no-connectivity-cut", "oracle.py",
           "if seen != avail:",
           "if False:",
           ("tests/test_oracle.py",)),
    # The union greedy's cut back at 2|I| > k + 1.  Both forms are sound: in
    # a state with a completion an I with 2|I| = k + 1 holds every other
    # vertex of the row, so before its last pick that vertex alone is left
    # and the stop test has ended the greedy.
    Mutant("union-independent-set-cut-at-equality", "oracle.py",
           "if 2 * picked >= bound:",
           "if 2 * picked > bound:",
           ("tests/test_oracle.py",),
           equivalent="cuts fewer states, all without a completion; no status or order changes, "
                      "only the node counts of dead subtrees"),
    # The rows decoder takes lowercase hex only.
    Mutant("rows-decoder-takes-uppercase", "serialize.py",
           'b"0123456789abcdef"',
           'b"0123456789abcdefABCDEF"',
           ("tests/test_serialize.py", "tests/test_cli.py")),
    # The walk checker: its lower color bound (a negative color indexes the
    # colors from the end), then each clause of the path and cycle checks.
    Mutant("walk-negative-color", "model.py",
           "if not (0 <= color < m):",
           "if not (color < m):",
           ("tests/test_model.py",)),
    Mutant("path-permutation-unchecked", "model.py",
           "if sorted(order) != (list(range(n)) if active is None else bits(active)):",
           "if False:",
           ("tests/test_model.py",)),
    Mutant("cycle-permutation-unchecked", "model.py",
           "if sorted(order) != list(range(n)):",
           "if False:",
           ("tests/test_model.py",)),
    Mutant("walk-adjacency-unchecked", "model.py",
           "if not adjacency[color][a] >> b & 1:",
           "if False:",
           ("tests/test_model.py",)),
    Mutant("walk-colors-may-repeat", "model.py",
           "if color in seen_colors:",
           "if False:",
           ("tests/test_model.py",)),
    Mutant("forest-edge-may-be-missing", "model.py",
           'problems.append(f"forest edge {edge} is not consecutive on the path")',
           "pass",
           ("tests/test_model.py",)),
    Mutant("forest-edge-color-unchecked", "model.py",
           "elif consecutive[edge] != color:",
           "elif False:",
           ("tests/test_model.py",)),
    # The rotation-derivation replay: one mutant for the entry shape, one per
    # step clause and two for exact coverage.  The fuzz test expects each
    # clause's own message.
    Mutant("derivation-entry-shape-unchecked", "model.py",
           "if not (type(parent) is type(side) is type(p) is type(c) is int):",
           "if False:",
           DERIVATION_TESTS),
    Mutant("derivation-parent-may-be-negative", "model.py",
           "if not 0 <= parent < index:",
           "if not parent < index:",
           DERIVATION_TESTS),
    Mutant("derivation-pivot-may-be-n-minus-2", "model.py",
           "elif not 0 <= p < n - 2:",
           "elif not 0 <= p < n - 1:",
           DERIVATION_TESTS),
    Mutant("derivation-edge-presence-unchecked", "model.py",
           "if not adjacency[c][a] >> back & 1:",
           "if False:",
           DERIVATION_TESTS),
    Mutant("derivation-parent-color-unchecked", "model.py",
           "elif c != colors[p] and mask >> c & 1:",
           "elif False:",
           DERIVATION_TESTS),
    Mutant("derivation-pair-may-repeat", "model.py",
           "if pair in paths:",
           "if False:",
           DERIVATION_TESTS),
    Mutant("derivation-pairs-may-be-missing", "model.py",
           "if len(paths) != n * (n - 1) // 2:",
           "if False:",
           DERIVATION_TESTS),
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
