"""``GraphCollection.sigma2_below`` decides every σ2 bound as the exact σ2 does.

A color passes a bound b on its known σ2 (seeded, or computed earlier), else
when twice its minimum degree reaches b, and only else is its exact σ2
computed, once per row tuple.  These tests build random collections three
ways (by hand, decoded from the instance schema, and with σ2 seeded as the
generator seeds it) and compare ``check_hypothesis`` and the dispatch
precondition with references that read only the exact σ2, for every k.
Tight colors, with σ2 = 2·δ one below some n+k, are where a floor that is
off by one gives a different verdict.  Every ``sigma2`` call is of a color
whose 2·δ misses n+k, so no input is scanned more than by a rule that scans
every color whose 2·δ misses a fixed cut-off at or above n+k.
"""

import random
from itertools import combinations
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import rainbowpath.model
import rainbowpath.solver
from rainbowpath import GraphCollection, RainbowLinearForest, check_hypothesis
from rainbowpath.forest import ReductionBoundError, select_deletion_set
from rainbowpath.model import InputError, bits, row_sigma2
from rainbowpath.serialize import instance_from_dict, instance_to_dict
from rainbowpath.solver import li2_dispatch


def _floor(row):
    return 2 * min(map(int.bit_count, row))


def _random_row(n, p, rng):
    masks = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return tuple(masks)


def _tight_row(n, delta, rng):
    """A graph with minimum degree ``delta`` <= n-3 and σ2 = 2·delta: K_n
    minus the edge ab, with a and b each cut from n-2-delta more vertices.
    Every other vertex keeps degree >= n-3, so ab is the lightest pair."""
    a, b = rng.sample(range(n), 2)
    others = [x for x in range(n) if x not in (a, b)]
    full = (1 << n) - 1
    masks = [full & ~(1 << x) for x in range(n)]
    for end, cut in ((a, [b]), (a, rng.sample(others, n - 2 - delta)),
                     (b, rng.sample(others, n - 2 - delta))):
        for x in cut:
            masks[end] &= ~(1 << x)
            masks[x] &= ~(1 << end)
    return tuple(masks)


def _collection(n, way, seed, p, tight, share):
    """n colors: ``tight`` tight ones (σ2 = 2·δ), the rest drawn at density
    ``p``; with ``share`` a color may reuse the previous color's row tuple."""
    rng = random.Random(seed)
    rows = []
    for color in range(n):
        if rows and share and rng.random() < 0.3:
            rows.append(rows[-1])
        elif color < tight:
            # One below a random n+k >= n.
            target = n + rng.randint(0, n - 4)
            rows.append(_tight_row(n, min((target - 1) // 2, n - 3), rng))
        else:
            rows.append(_random_row(n, p, rng))
    if way == "decoded":
        return instance_from_dict(instance_to_dict(GraphCollection(n, tuple(rows)), u=0, v=1)).collection
    coll = GraphCollection(n, tuple(rows))
    if way == "seeded":
        coll.seed_sigma2s(row_sigma2(row) for row in rows)
    return coll


def _plans(n, rng):
    """The empty-forest plan of every pair (of a sample of them for n > 12),
    and, for every forest size k from 1 to n-2, two plans whose forest is
    one path from u."""
    pairs = list(combinations(range(n), 2))
    if n > 12:
        pairs = rng.sample(pairs, 24)
    for u, v in pairs:
        yield 0, select_deletion_set(RainbowLinearForest.empty(), u, v, n)
    for k in range(1, n - 1):
        for _ in range(2):
            vertices = rng.sample(range(n), k + 2)
            path = vertices[:k + 1]
            colors = rng.sample(range(n), k)
            forest = RainbowLinearForest.from_paths([path], [(a, b, c) for a, b, c in zip(path, path[1:], colors)])
            yield k, select_deletion_set(forest, vertices[0], vertices[-1], n)


class _Passed(Exception):
    """Raised in place of the detectors: the precondition let the call through."""


def _precondition(collection, plan):
    """What ``li2_dispatch`` does before its detectors: its verdict, with the
    error's type, text and bundle, and the masked scans it ran."""
    scans = []

    def counting(row, active=None):
        scans.append((row, active))
        return row_sigma2(row, active)

    def passed(*args):
        raise _Passed

    with mock.patch.object(rainbowpath.solver, "row_sigma2", counting), \
            mock.patch.object(rainbowpath.solver, "detect_identical_split", passed):
        try:
            if plan is None:
                li2_dispatch(collection)
            else:
                li2_dispatch(collection, plan.active, plan.retained_mask)
        except _Passed:
            return "passed", scans
        except (InputError, ReductionBoundError) as exc:
            return (type(exc), str(exc), getattr(exc, "bundle", None)), scans
    raise AssertionError("li2_dispatch returned before its detectors")


def _wanted_scans(collection, exact, plan):
    """The masked scans the dispatch precondition must run: of the colors
    whose exact σ2 misses n-2+2d (d deleted vertices), in color order, up to
    the first whose masked σ2 misses n-2."""
    n_all = collection.n_vertices
    active = (1 << n_all) - 1 if plan is None else plan.active
    palette = (1 << n_all) - 1 if plan is None else plan.retained_mask
    n = active.bit_count()
    scans = []
    for c in bits(palette):
        if exact[c] < n - 2 + 2 * (n_all - n):
            scans.append((collection.adjacency[c], active))
            if row_sigma2(collection.adjacency[c], active) < n - 2:
                break
    return scans


def _wanted_calls(collection, exact, known, bound):
    """The colors ``check_hypothesis`` computes σ2 for at ``bound``: in color
    order up to the first color that misses it, each one whose row tuple is
    not in ``known`` and whose 2·δ misses ``bound``.  Adds them to ``known``."""
    calls = []
    for c, row in enumerate(collection.adjacency):
        if id(row) not in known and _floor(row) < bound:
            calls.append(c)
            known.add(id(row))
        if exact[c] < bound:
            break
    return calls


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.integers(4, 40), way=st.sampled_from(["hand", "decoded", "seeded"]),
       seed=st.integers(0, 2**32 - 1), p=st.floats(0.2, 1.0), tight=st.integers(0, 3),
       share=st.booleans())
# Complete colors: 2·δ = 2n-2 < n+k <= σ2 = inf for k >= n-1.
@example(n=9, way="hand", seed=0, p=1.0, tight=0, share=False)
# Dense colors beside tight ones, shared rows, and an odd n+k = 2·δ + 1.
@example(n=14, way="hand", seed=1, p=0.97, tight=1, share=True)
@example(n=14, way="decoded", seed=2, p=0.97, tight=2, share=False)
# Colors with n <= 2·δ < n+k <= σ2: the floor misses and the exact σ2
# passes, so they must not reach the masked scan.
@example(n=22, way="hand", seed=3, p=0.72, tight=0, share=False)
def test_bounds_decide_as_exact_sigma2(n, way, seed, p, tight, share):
    coll = _collection(n, way, seed, p, tight, share)
    exact = tuple(row_sigma2(row) for row in coll.adjacency)
    known = {id(row) for row in coll.adjacency} if way == "seeded" else set()
    with mock.patch.object(rainbowpath.model, "sigma2", wraps=rainbowpath.model.sigma2) as sigma2:
        for k in range(n + 1):
            sigma2.reset_mock()
            assert check_hypothesis(coll, k) == all(value >= n + k for value in exact), k
            assert [call.args[1] for call in sigma2.call_args_list] == _wanted_calls(coll, exact, known, n + k), k

    reference = GraphCollection(n, coll.adjacency).seed_sigma2s(exact)
    rng = random.Random(seed)
    for k, plan in [(0, None), *_plans(n, rng)]:
        got, scans = _precondition(coll, plan)
        want, want_scans = _precondition(reference, plan)
        assert got == want, (k, plan)
        assert scans == want_scans == _wanted_scans(coll, exact, plan), (k, plan)


def test_tight_row_is_tight():
    rng = random.Random(0)
    for n in range(5, 41):
        for delta in (0, n // 2, n - 3):
            delta = min(delta, n - 3)
            row = _tight_row(n, delta, rng)
            assert min(map(int.bit_count, row)) == delta
            assert row_sigma2(row) == 2 * delta
            GraphCollection.from_rows(n, [row])


def test_dense_colors_are_not_scanned():
    # A dense collection passes on its minimum degrees alone: no sigma2 call
    # for any n+k up to the least 2·δ.
    rng = random.Random(5)
    n = 40
    coll = GraphCollection(n, tuple(_random_row(n, 0.97, rng) for _ in range(n)))
    top = min(map(_floor, coll.adjacency)) - n
    assert top >= n // 2
    with mock.patch("rainbowpath.model.sigma2", side_effect=AssertionError("scanned")):
        for k in range(top + 1):
            assert check_hypothesis(coll, k)
        assert "sigma2s" not in coll.__dict__


def test_one_tight_color_is_scanned_alone():
    # A dense n=100 collection with one color at σ2 = 99: K_100 minus the
    # edge 01, vertex 0 keeping 50 neighbours and vertex 1 keeping 49.  The
    # other colors pass on 2·δ >= 100, so one sigma2 call decides, whether
    # the tight color comes first or last.
    n, full = 100, (1 << 100) - 1
    masks = [full & ~(1 << x) for x in range(n)]
    for end, others in ((0, [1, *range(52, n)]), (1, range(51, n))):
        for x in others:
            masks[end] &= ~(1 << x)
            masks[x] &= ~(1 << end)
    tight = tuple(masks)
    assert row_sigma2(tight) == 99 and _floor(tight) == 98
    rng = random.Random(1)
    dense = [_random_row(n, 0.95, rng) for _ in range(n - 1)]
    assert min(map(_floor, dense)) >= n
    for rows in ([tight, *dense], [*dense, tight]):
        coll = GraphCollection(n, tuple(rows))
        with mock.patch.object(rainbowpath.model, "sigma2", wraps=rainbowpath.model.sigma2) as sigma2:
            assert check_hypothesis(coll, 0) is False
        assert [call.args[1] for call in sigma2.call_args_list] == [rows.index(tight)]
