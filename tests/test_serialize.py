import json

import pytest
from hypothesis import example, given

from rainbowpath import GraphCollection, InputError
from rainbowpath.gen import build_extremal
from rainbowpath.serialize import (
    certificate_from_dict,
    collection_to_dict,
    dumps,
    extremal_certificate_to_dict,
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
    data = json.loads(dumps(extremal_certificate_to_dict(cert)))
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
])
def test_certificate_fields_must_be_integers(data):
    with pytest.raises(InputError):
        certificate_from_dict(data)
