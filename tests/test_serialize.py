import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowpath import (
    ExtremalCertificate,
    GenSpec,
    GraphCollection,
    InputError,
    cycle_from_extremal,
    hamiltonian_or_connected,
    random_instance,
    solve,
    verify_certificate,
)
from rainbowpath.gen import build_extremal
from rainbowpath.structures import KINDS
from rainbowpath.serialize import (
    certificate_from_dict,
    certificate_to_dict,
    collection_to_dict,
    dumps,
    instance_from_dict,
)

from .conftest import edges_form, small_collections


def test_rows_layout():
    # Path 0-1-2 plus the lone vertex 3 and the edge 0-4; n=5 gives two hex
    # digits per vertex, vertex 0's mask first.
    coll = GraphCollection.from_edge_lists(5, [[(0, 1), (1, 2), (0, 4)]])
    assert collection_to_dict(coll) == {"n": 5, "m": 1, "rows": ["1205020001"]}


@given(small_collections(max_n=13, max_m=6, min_n=1, min_m=0))
@example(GraphCollection(1, ((0,),)))
@example(GraphCollection(6, ()))
def test_rows_round_trip(coll):
    data = json.loads(dumps(collection_to_dict(coll)))
    width = (coll.n_vertices + 3) // 4
    assert [len(text) for text in data["rows"]] == [coll.n_vertices * width] * coll.n_colors
    assert instance_from_dict(data).collection == coll
    assert instance_from_dict(edges_form(data)).collection == coll


def test_certificate_round_trip():
    cert = build_extremal("B2", 6)[1]["certificate"]
    data = json.loads(dumps(certificate_to_dict(cert)))
    assert certificate_from_dict(data) == cert


@pytest.mark.parametrize("data", [
    {"type": "path", "order": [0, 1.5], "colors": [0]},
    {"type": "path", "order": [0, 1], "colors": ["0"]},
    {"type": "cycle", "order": [0, 1, True], "colors": [0, 1, 2]},
    {"type": "cycle", "order": "012", "colors": [0, 1, 2]},
    {"type": "path", "colors": [0]},
    {"type": "extremal", "kind": "B2", "X": "ab", "Y": [4, 5], "pair": [0, 1]},
    {"type": "extremal", "kind": "B2", "X": [2, 3], "Y": [4, None], "pair": [0, 1]},
    {"type": "extremal", "kind": "B2", "X": [2, 3], "Y": [4, 5], "pair": [0, "1"]},
    {"type": "extremal", "kind": "B2", "X": [2, 3], "Y": [4, 5], "pair": 1},
    {"type": "extremal", "kind": "A2p", "X": [2, 3], "Y": [4, 5], "l": 2.0},
    # Not an object at all.
    [1], "path", 3, None,
])
def test_certificate_fields_must_be_integers(data):
    with pytest.raises(InputError):
        certificate_from_dict(data)


def _certificate_cases() -> list[tuple]:
    """(collection, forest, encoded certificate) for a path, a cycle and
    every extremal level and shape."""
    coll, forest, u, v = random_instance(GenSpec(n=8, k=1, seed=3))
    cases = [(coll, forest, certificate_to_dict(solve(coll, forest, u, v, 1).path))]
    coll = build_extremal("B2", 6)[0]
    cases.append((coll, None, certificate_to_dict(hamiltonian_or_connected(coll).cycle)))
    for kind, n, k in (("A2", 6, 0), ("B2", 6, 0), ("B3", 6, 0), ("C2", 10, 2), ("C3", 9, 1)):
        coll, meta = build_extremal(kind, n, k)
        cases.append((coll, meta["forest"], certificate_to_dict(meta["certificate"])))
    return cases


CASES = _certificate_cases()
B3_CASE = next(i for i, (_, _, data) in enumerate(CASES) if data.get("kind") == "B3")
_ENTRIES = st.integers(-2, 12)
_VALUES = st.one_of(
    st.none(), st.booleans(), _ENTRIES, st.floats(allow_nan=False), st.text(max_size=3),
    st.sampled_from(("path", "cycle", "extremal", *KINDS)), st.lists(_ENTRIES, max_size=12),
)


@st.composite
def mutated_certificates(draw):
    """A case index and its certificate with one to three fields dropped,
    replaced, or edited one list entry at a time."""
    index = draw(st.integers(0, len(CASES) - 1))
    data = json.loads(dumps(CASES[index][2]))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(("type", "kind", "order", "colors", "X", "Y", "l", "pair")))
        action = draw(st.sampled_from(("drop", "set", "remove", "replace", "insert")))
        items = data.get(key)
        if action == "drop":
            data.pop(key, None)
        elif action == "set" or not isinstance(items, list) or not items:
            data[key] = draw(_VALUES)
        else:
            i = draw(st.integers(0, len(items) - 1))
            if action == "remove":
                del items[i]
            elif action == "replace":
                items[i] = draw(_ENTRIES)
            else:
                items.insert(i, draw(_ENTRIES))
    return index, data


@settings(deadline=None)
@given(mutated_certificates())
@example((B3_CASE, {**CASES[B3_CASE][2], "pair": [0]}))
@example((B3_CASE, {**CASES[B3_CASE][2], "pair": [0, 0]}))
@example((B3_CASE, {**CASES[B3_CASE][2], "pair": [0, 1, 2]}))
def test_mutated_certificate_is_rejected_or_checked(case):
    # Decoding raises InputError or the checker answers; a verified B2/B3
    # yields a valid cycle or an InputError, never a crash.
    index, data = case
    coll, forest, _ = CASES[index]
    try:
        cert = certificate_from_dict(data)
    except InputError:
        return
    verified = verify_certificate(coll, cert, forest)
    assert type(verified) is bool
    if verified and isinstance(cert, ExtremalCertificate) and cert.kind in ("B2", "B3"):
        try:
            cycle = cycle_from_extremal(coll, cert)
        except InputError:
            return
        assert verify_certificate(coll, cycle)
