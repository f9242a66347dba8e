import json

from hypothesis import example, given

from rainbowpath import GraphCollection
from rainbowpath.serialize import collection_to_dict, dumps, instance_from_dict

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
