"""An exhaustive census of the collections on four vertices.

The graphs on four labelled vertices that meet sigma2 >= 4 are listed by a
local enumerator, and every multiset of four of them is one collection.  On
each collection the pair solver agrees with the exact path oracle on every
pair, the cycle oracle finds a rainbow Hamiltonian cycle, and the
corollary's answer passes its checks.  The counts by outcome are pinned.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from rainbowpath import (
    FOUND,
    NOT_FOUND,
    GraphCollection,
    exact_rainbow_ham_cycle,
    exact_rainbow_ham_path,
    hamiltonian_or_connected,
    solve_pair,
    verify_certificate,
)
from rainbowpath.model import row_sigma2

N = 4
PAIRS = list(combinations(range(N), 2))


def _graphs_meeting_the_bound() -> list[tuple[int, ...]]:
    """Neighbour masks of every graph on N labelled vertices with sigma2 >= N."""
    graphs = []
    for picks in range(1 << len(PAIRS)):
        row = [0] * N
        for i, (a, b) in enumerate(PAIRS):
            if picks >> i & 1:
                row[a] |= 1 << b
                row[b] |= 1 << a
        if row_sigma2(row) >= N:
            graphs.append(tuple(row))
    return graphs


@pytest.fixture(scope="module")
def collections() -> list[GraphCollection]:
    graphs = _graphs_meeting_the_bound()
    # K4, the six K4 minus an edge, and the three 4-cycles.
    assert len(graphs) == 10
    census = [GraphCollection(N, combo) for combo in combinations_with_replacement(graphs, N)]
    assert len(census) == 715
    return census


def test_pair_solver_agrees_with_the_path_oracle(collections):
    counts: Counter = Counter()
    for coll in collections:
        for u, v in PAIRS:
            out = solve_pair(coll, u, v)
            status = exact_rainbow_ham_path(coll, u, v).status
            if out.path is not None:
                assert status == FOUND, (coll.adjacency, u, v)
                assert {out.path.order[0], out.path.order[-1]} == {u, v}
                assert verify_certificate(coll, out.path)
                counts["path"] += 1
            else:
                assert status == NOT_FOUND, (coll.adjacency, u, v)
                assert out.extremal.pair == (u, v)
                assert verify_certificate(coll, out.extremal)
                counts[out.extremal.kind] += 1
    assert counts == {"path": 4260, "B2": 30}


def test_every_collection_has_a_rainbow_hamiltonian_cycle(collections):
    kinds: Counter = Counter()
    for coll in collections:
        found = exact_rainbow_ham_cycle(coll)
        assert found.status == FOUND, coll.adjacency
        assert verify_certificate(coll, found.certificate)
        res = hamiltonian_or_connected(coll)
        if res.kind == "cycle":
            assert verify_certificate(coll, res.cycle)
            assert verify_certificate(coll, res.extremal)
        else:
            assert list(res.paths) == PAIRS
            for (u, v), path in res.paths.items():
                assert path.order[0] == u and path.order[-1] == v
                assert verify_certificate(coll, path)
            assert verify_certificate(coll, res.derivation)
        kinds[res.kind] += 1
    assert kinds == {"cycle": 27, "connected": 688}
