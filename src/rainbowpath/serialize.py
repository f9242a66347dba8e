"""Byte-stable JSON for instances, certificates, outcomes, and reports.

Instance schema (all modules speak it):

    {"n": int, "m": int,
     "graphs": [[[u, v], ...], ...],            # one sorted edge list per color
     "forest": {"components": [[v, ...], ...],  # optional
                "colors": [[u, v, color], ...]},
     "u": int, "v": int, "k": int}              # optional pair / edge budget

Edges are canonicalized (min, max) and sorted, so serializing the same
instance always produces identical bytes; hashes are taken over those bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .forest import RainbowLinearForest
from .model import (
    CycleCertificate,
    GraphCollection,
    InputError,
    PathCertificate,
    canonical_edge,
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


def collection_to_dict(collection: GraphCollection) -> dict:
    return {
        "n": collection.n_vertices,
        "m": collection.n_colors,
        "graphs": [
            [list(e) for e in collection.edges(c)] for c in range(collection.n_colors)
        ],
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


def instance_from_dict(data: dict) -> Instance:
    """Decode the instance schema; any malformed field raises InputError."""
    try:
        n = int(data["n"])
        m = int(data["m"])
        graphs = data["graphs"]
        if not isinstance(graphs, list) or len(graphs) != m:
            raise InputError(f"instance declares m={m} but carries {len(graphs)} graphs")
        collection = GraphCollection.from_edge_lists(
            n, [[(int(e[0]), int(e[1])) for e in glist] for glist in graphs]
        )
        forest = RainbowLinearForest.empty()
        if "forest" in data and data["forest"]:
            fdata = data["forest"]
            comps = [tuple(int(x) for x in comp) for comp in fdata.get("components", [])]
            colors = {
                canonical_edge(int(u), int(v)): int(c)
                for u, v, c in fdata.get("colors", [])
            }
            forest = RainbowLinearForest(tuple(comps), colors)
            problems = forest.structure_violations()
            if problems:
                raise InputError("malformed forest: " + "; ".join(problems))
        u = data.get("u")
        v = data.get("v")
        k = data.get("k")
        return Instance(
            collection,
            forest,
            int(u) if u is not None else None,
            int(v) if v is not None else None,
            int(k) if k is not None else None,
        )
    except InputError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance: {exc}") from exc


def load_instance(path: str) -> Instance:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read instance {path}: {exc}") from exc
    return instance_from_dict(data)


def path_certificate_to_dict(cert: PathCertificate) -> dict:
    return {"type": "path", "order": list(cert.order), "colors": list(cert.coloring)}


def cycle_certificate_to_dict(cert: CycleCertificate) -> dict:
    return {"type": "cycle", "order": list(cert.order), "colors": list(cert.coloring)}


def extremal_certificate_to_dict(cert: ExtremalCertificate) -> dict:
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


def certificate_from_dict(data: dict):
    kind = data.get("type")
    if kind == "path":
        return PathCertificate(tuple(data["order"]), tuple(data["colors"]))
    if kind == "cycle":
        return CycleCertificate(tuple(data["order"]), tuple(data["colors"]))
    if kind == "extremal":
        return ExtremalCertificate(
            data["kind"],
            frozenset(data["X"]),
            frozenset(data["Y"]),
            ell=data.get("l"),
            pair=tuple(data["pair"]) if data.get("pair") else None,
        )
    raise InputError(f"unknown certificate type {kind!r}")


def outcome_to_dict(outcome) -> dict:
    """Serialize a SolverOutcome-shaped object (path/extremal plus trace)."""
    if getattr(outcome, "path", None) is not None:
        cert = path_certificate_to_dict(outcome.path)
        kind = "path"
    else:
        cert = extremal_certificate_to_dict(outcome.extremal)
        kind = "extremal"
    return {
        "outcome": kind,
        "certificate": cert,
        "trace": [dict(rec) for rec in getattr(outcome, "trace", ())],
    }
