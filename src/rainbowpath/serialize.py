"""Byte-stable JSON for instances, certificates, outcomes, and reports.

Instance schema (all modules speak it):

    {"n": int, "m": int,
     "rows": ["<hex>", ...],                    # one string per color
     "forest": {"components": [[v, ...], ...],  # optional
                "colors": [[u, v, color], ...]},
     "u": int, "v": int, "k": int}              # optional pair / edge budget

Each row string is n*w lowercase hex digits, w = ceil(n/4): the slice
[i*w, (i+1)*w) is vertex i's neighbour mask in that color (bit v set iff
{i, v} is an edge), i.e. ``GraphCollection.adjacency`` written out.  Readers
also accept ``"graphs": [[[u, v], ...], ...]`` (one edge list per color) in
place of ``"rows"``; writers emit rows only, so decoding a file and encoding
it again gives the same bytes whichever form it was in, and hashes are taken
over that re-encoding.  Every number is a JSON integer; n <= MAX_VERTICES.
"""

from __future__ import annotations

import hashlib
import json
from binascii import unhexlify
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from struct import iter_unpack

from .forest import RainbowLinearForest
from .model import (
    CycleCertificate,
    GraphCollection,
    InputError,
    PathCertificate,
    bit_matrix_plan,
    canonical_edge,
    check_bit_matrix,
)
from .structures import ExtremalCertificate


@dataclass(frozen=True)
class Instance:
    collection: GraphCollection
    forest: RainbowLinearForest
    u: int | None = None
    v: int | None = None
    k: int | None = None


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(data) -> str:
    return hashlib.sha256(dumps(data).encode()).hexdigest()[:16]


def _row_width(n: int) -> int:
    """Hex digits per neighbour mask in the rows form."""
    return (n + 3) // 4


def collection_to_dict(collection: GraphCollection) -> dict:
    n = collection.n_vertices
    width = f"0{_row_width(n)}x"
    return {
        "n": n,
        "m": collection.n_colors,
        "rows": ["".join([format(mask, width) for mask in row]) for row in collection.adjacency],
    }


def forest_to_dict(forest: RainbowLinearForest) -> dict:
    return {
        "components": [list(comp) for comp in forest.components],
        "colors": [
            [u, v, c] for (u, v), c in sorted(forest.fixed_colors.items())
        ],
    }


def instance_to_dict(
    collection: GraphCollection,
    forest: RainbowLinearForest | None = None,
    u: int | None = None,
    v: int | None = None,
    k: int | None = None,
) -> dict:
    data = collection_to_dict(collection)
    if forest is not None and forest.components:
        data["forest"] = forest_to_dict(forest)
    if u is not None:
        data["u"] = u
    if v is not None:
        data["v"] = v
    if k is not None:
        data["k"] = k
    return data


#: The most vertices an instance may declare: an edge list, or rows with no
#: colors, can declare any n in a few bytes.
MAX_VERTICES = 1024


def check_vertex_count(n: int) -> int:
    """``n`` if an instance file may declare that many vertices, else InputError."""
    if n > MAX_VERTICES:
        raise InputError(f"n={n} exceeds the limit of {MAX_VERTICES} vertices")
    return n


def _int(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _packed_rows(texts: list[str], n: int, width: int, size: int) -> bytes:
    """The rows ``texts``, n vertex fields of ``width`` hex digits each, as
    ``size``-byte big-endian masks: color by color, each color's vertices
    last to first.  So a color's ``n * size`` bytes, read big-endian, are its
    bit matrix in the layout of ``bit_matrix_plan``.  One strided copy per
    digit place pads every field at once."""
    count = n * len(texts)
    digits = 2 * size
    # The copy reverses the order of all fields, and so restores the colors'.
    raw = "".join(reversed(texts)).encode()
    field = bytearray(b"0" * (count * digits))
    for j in range(width):
        field[digits - width + j :: digits] = raw[(count - 1) * width + j :: -width]
    return unhexlify(field)


def _collection_from_dict(data: dict, n: int, m: int) -> GraphCollection:
    if ("rows" in data) == ("graphs" in data):
        raise InputError('instance needs exactly one of "rows" and "graphs"')
    if "rows" in data:
        texts = data["rows"]
        if not isinstance(texts, list) or len(texts) != m:
            raise InputError(f"instance declares m={m} but rows is not a list of {m} strings")
        if n < 1:
            raise InputError(f"need at least one vertex, got {n}")
        width = _row_width(n)
        for color, text in enumerate(texts):
            # Lowercase hex only (unhexlify also takes uppercase); isascii
            # first, as a lone surrogate cannot be encoded.
            if not (isinstance(text, str) and len(text) == n * width and text.isascii()
                    and not text.encode().translate(None, b"0123456789abcdef")):
                raise InputError(
                    f"rows[{color}] must be {n * width} lowercase hex digits ({width} per vertex)"
                )
        size = bit_matrix_plan(n)[0] // 8
        span = n * size
        # Blocks of about 64 KB of matrix bytes keep the strided copies in
        # cache and the buffers small: in process, one block per file is
        # ~1.7x slower at n=400, one color per block ~1.3x at n=100, and
        # 128 KB blocks are no faster but raise peak memory at n=100.
        step = max(1, (1 << 16) // span)
        adjacency = []
        for first in range(0, m, step):
            packed = _packed_rows(texts[first : first + step], n, width, size)
            fields = map(itemgetter(0), iter_unpack(f"{size}s", packed))
            masks = list(map(int.from_bytes, fields, repeat("big")))
            for i in range(len(packed) // span):
                check_bit_matrix(int.from_bytes(packed[i * span : (i + 1) * span], "big"), n, first + i)
                adjacency.append(tuple(reversed(masks[i * n : (i + 1) * n])))
        return GraphCollection(n, tuple(adjacency))
    graphs = data["graphs"]
    if not isinstance(graphs, list) or len(graphs) != m:
        raise InputError(f"instance declares m={m} but graphs is not a list of {m} edge lists")
    return GraphCollection.from_edge_lists(
        n,
        [[(_int(a, "edge endpoint"), _int(b, "edge endpoint")) for a, b in glist] for glist in graphs],
    )


def instance_from_dict(data: dict) -> Instance:
    """Decode the instance schema; any malformed field raises InputError."""
    if not isinstance(data, dict):
        raise InputError("an instance must be a JSON object")
    try:
        n = check_vertex_count(_int(data["n"], "n"))
        m = _int(data["m"], "m")
        collection = _collection_from_dict(data, n, m)
        forest = RainbowLinearForest.empty()
        if "forest" in data and data["forest"]:
            fdata = data["forest"]
            comps = [
                tuple(_int(x, "forest vertex") for x in comp)
                for comp in fdata.get("components", [])
            ]
            colors = {
                canonical_edge(_int(a, "forest vertex"), _int(b, "forest vertex")):
                    _int(c, "forest color")
                for a, b, c in fdata.get("colors", [])
            }
            forest = RainbowLinearForest(tuple(comps), colors)
            problems = forest.structure_violations()
            if problems:
                raise InputError("malformed forest: " + "; ".join(problems))
        u, v, k = (
            None if data.get(key) is None else _int(data[key], key) for key in ("u", "v", "k")
        )
        if k is not None and k != forest.edge_count:
            raise InputError(f"k={k} does not match the forest's {forest.edge_count} edges")
        return Instance(collection, forest, u, v, k)
    except InputError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance: {exc}") from exc


def load_instance(path: str) -> Instance:
    # Bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError like
    # JSONDecodeError; nesting too deep for the JSON scanner, RecursionError.
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read instance {path}: {exc}") from exc
    return instance_from_dict(data)


def certificate_to_dict(cert: PathCertificate | CycleCertificate | ExtremalCertificate) -> dict:
    """Encode any certificate: a path or cycle as its order and edge colors,
    an extremal certificate as its kind, sides, and split size or pair if set."""
    if not isinstance(cert, ExtremalCertificate):
        kind = "path" if isinstance(cert, PathCertificate) else "cycle"
        return {"type": kind, "order": list(cert.order), "colors": list(cert.coloring)}
    data: dict = {
        "type": "extremal",
        "kind": cert.kind,
        "X": sorted(cert.X),
        "Y": sorted(cert.Y),
    }
    if cert.ell is not None:
        data["l"] = cert.ell
    if cert.pair is not None:
        data["pair"] = list(cert.pair)
    return data


def _ints(data: dict, key: str) -> tuple[int, ...]:
    """``data[key]`` as a tuple, if it is a JSON list of integers."""
    values = data.get(key)
    if not isinstance(values, list):
        raise InputError(f"certificate {key} must be a list of integers, got {values!r}")
    return tuple(_int(value, f"certificate {key} entry") for value in values)


def certificate_from_dict(data: dict):
    """Decode a certificate; a missing field or a non-integer vertex or color
    raises InputError, as does data that is not an object.  Ranges are the
    verifiers' business."""
    if not isinstance(data, dict):
        raise InputError(f"a certificate must be a JSON object, got {data!r}")
    kind = data.get("type")
    if kind == "path":
        return PathCertificate(_ints(data, "order"), _ints(data, "colors"))
    if kind == "cycle":
        return CycleCertificate(_ints(data, "order"), _ints(data, "colors"))
    if kind == "extremal":
        return ExtremalCertificate(
            data.get("kind"),
            frozenset(_ints(data, "X")),
            frozenset(_ints(data, "Y")),
            ell=None if data.get("l") is None else _int(data["l"], "certificate l"),
            pair=_ints(data, "pair") if data.get("pair") else None,
        )
    raise InputError(f"unknown certificate type {kind!r}")


def outcome_to_dict(outcome) -> dict:
    """Serialize a SolverOutcome: its kind, its certificate and its trace."""
    return {
        "outcome": outcome.kind,
        "certificate": certificate_to_dict(outcome.path or outcome.extremal),
        "trace": [dict(rec) for rec in outcome.trace],
    }
