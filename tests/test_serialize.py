import json
import random
import re
import tracemalloc
from itertools import repeat

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


_HEX_ROW = re.compile("[0-9a-f]*")


def reference_rows_decoder(data: dict, n: int, m: int) -> GraphCollection:
    """The rows decoder that the bit-matrix one replaced, kept verbatim: a
    regex row check, one slice and one int(., 16) per vertex, then
    ``GraphCollection.from_rows``."""
    texts = data["rows"]
    if not isinstance(texts, list) or len(texts) != m:
        raise InputError(f"instance declares m={m} but rows is not a list of {m} strings")
    if n < 1:
        raise InputError(f"need at least one vertex, got {n}")
    width = (n + 3) // 4
    chunks = [slice(i, i + width) for i in range(0, n * width, width)]
    masks = []
    for color, text in enumerate(texts):
        # int(., 16) alone would also take "0x", "_", whitespace and uppercase.
        if not (isinstance(text, str) and len(text) == n * width and _HEX_ROW.fullmatch(text)):
            raise InputError(
                f"rows[{color}] must be {n * width} lowercase hex digits ({width} per vertex)"
            )
        masks.append(list(map(int, map(text.__getitem__, chunks), repeat(16))))
    return GraphCollection.from_rows(n, masks)


def _decoded(data: dict, reference: bool):
    """The collection the decoder builds from ``data``, or its InputError text."""
    try:
        if reference:
            return reference_rows_decoder(data, data["n"], data["m"])
        return instance_from_dict(data).collection
    except InputError as exc:
        return f"InputError: {exc}"


def random_symmetric_masks(n: int, rng: random.Random, sparse: bool = False) -> tuple[int, ...]:
    """The neighbour masks of a random simple graph on n vertices, each pair
    an edge with probability 1/2 (1/4 if ``sparse``)."""
    # upper[u] is vertex u's mask written from bit n-1 down to bit 0, with
    # only the bits v > u kept; its columns give the bits v < u.
    upper = []
    for u in range(n):
        bits = rng.getrandbits(n)
        if sparse:
            bits &= rng.getrandbits(n)
        upper.append(format(bits, f"0{n}b")[: n - 1 - u] + "0" * (u + 1))
    columns = ["".join(column) for column in zip(*upper)]
    return tuple(int(upper[u], 2) | int(columns[n - 1 - u][::-1], 2) for u in range(n))


STRIDE_SIZES = [*range(1, 71), *range(127, 131), *range(255, 259), *range(511, 514), 1024]


@pytest.mark.parametrize("n", STRIDE_SIZES)
def test_rows_decoder_matches_reference(n):
    # Every stride from 8 to 1,024, odd and even widths, and fields that need
    # no padding (n = 8, 64, 1,024).
    rng = random.Random(n)
    rows = (random_symmetric_masks(n, rng), random_symmetric_masks(n, rng, sparse=True))
    data = collection_to_dict(GraphCollection(n, rows))
    decoded = _decoded(data, reference=False)
    assert decoded == _decoded(data, reference=True)
    assert decoded.adjacency == rows


def test_rows_decoder_memory_does_not_grow_with_colors():
    # Rows are decoded a block of colors at a time (one color per block at
    # n = 1,024), so the decoder's transient memory stays near one color's
    # text however many colors the file holds; decoding all 16 at once would
    # take about 10 MB here.
    n, m = 1024, 16
    rows = random_symmetric_masks(n, random.Random(0), sparse=True)
    data = collection_to_dict(GraphCollection(n, (rows,) * m))
    instance_from_dict(data)  # fills the bit-matrix plan's cache first
    tracemalloc.start()
    try:
        decoded = instance_from_dict(data).collection
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded.adjacency == (rows,) * m
    assert peak - current < 6 * len(data["rows"][0])


def _with_char(text: str, i: int, char: str) -> str:
    return text[:i] + char + text[i + 1:]


def _with_mask(n: int, text: str, vertex: int, flip: int) -> str:
    width = (n + 3) // 4
    field = format(int(text[vertex * width:(vertex + 1) * width], 16) ^ flip, f"0{width}x")
    return text[:vertex * width] + field + text[(vertex + 1) * width:]


# Each defect rewrites the rows of an instance with n vertices and three colors.
ROW_DEFECTS = {
    "uppercase": lambda n, rows: [rows[0], _with_char(rows[1], 0, "A"), rows[2]],
    "0x": lambda n, rows: [rows[0], "0x" + rows[1][2:], rows[2]],
    "underscore": lambda n, rows: [rows[0], _with_char(rows[1], 1, "_"), rows[2]],
    "whitespace": lambda n, rows: [rows[0], _with_char(rows[1], len(rows[1]) - 1, " "), rows[2]],
    "arabic-indic-digit": lambda n, rows: [rows[0], _with_char(rows[1], 0, "\u0663"), rows[2]],
    "fullwidth-letter": lambda n, rows: [rows[0], _with_char(rows[1], 0, "\uff41"), rows[2]],
    "lone-surrogate": lambda n, rows: [rows[0], _with_char(rows[1], 0, "\ud800"), rows[2]],
    "short": lambda n, rows: [rows[0], rows[1][:-1], rows[2]],
    "long": lambda n, rows: [rows[0], rows[1] + "0", rows[2]],
    "not-a-string": lambda n, rows: [rows[0], int(rows[1][:8], 16), rows[2]],
    "loop": lambda n, rows: [rows[0], _with_mask(n, rows[1], n // 2, 1 << n // 2), rows[2]],
    "loop-last-color": lambda n, rows: [rows[0], rows[1], _with_mask(n, rows[2], 0, 1)],
    # Vertex (n-1)/2 alone gains or loses its edge to n-1, so it is the first
    # asymmetric vertex.
    "asymmetric-middle": lambda n, rows: [
        rows[0], _with_mask(n, rows[1], (n - 1) // 2, 1 << n - 1), rows[2]],
    "bad-hex-after-asymmetric": lambda n, rows: [
        _with_mask(n, rows[0], (n - 1) // 2, 1 << n - 1), rows[1], _with_char(rows[2], 0, "F")],
}


def _field_top_bit(n: int) -> int:
    """The highest bit a vertex field holds; it is beyond n unless 4 divides n."""
    return 1 << 4 * ((n + 3) // 4) - 1


BEYOND_N = {
    "beyond-n-first-vertex": lambda n, rows: [
        rows[0], _with_mask(n, rows[1], 0, _field_top_bit(n)), rows[2]],
    "beyond-n-last-vertex": lambda n, rows: [
        rows[0], _with_mask(n, rows[1], n - 1, _field_top_bit(n)), rows[2]],
    # Bit n itself, the first column past the last vertex.
    "at-n": lambda n, rows: [rows[0], _with_mask(n, rows[1], n // 2, 1 << n), rows[2]],
}


@pytest.mark.parametrize("n, defect", [
    # At n = 1,024 each color is decoded as a block of its own.
    *((n, defect) for n in (2, 5, 8, 9, 64, 130, 1024) for defect in ROW_DEFECTS),
    *((n, defect) for n in (2, 5, 9, 130) for defect in BEYOND_N),
])
def test_rows_decoder_errors_match_reference(n, defect):
    rng = random.Random(n)
    data = collection_to_dict(GraphCollection(n, tuple(random_symmetric_masks(n, rng) for _ in range(3))))
    data["rows"] = {**ROW_DEFECTS, **BEYOND_N}[defect](n, data["rows"])
    data = json.loads(dumps(data))
    message = _decoded(data, reference=True)
    assert isinstance(message, str)
    assert _decoded(data, reference=False) == message


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
