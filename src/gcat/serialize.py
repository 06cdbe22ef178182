"""Canonical document IO.

All documents are JSON with sorted keys and sorted lists; serialization is
bit-stable under round-trip, and every report embeds content hashes of its
inputs plus the library version.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__
from .config import DEFAULT_CAPS, SizeCaps
from .errors import GcatError
from .fincat import FinCat, Functor, category_from_doc
from .actions import (
    MonoidActionCat,
    monoid_from_doc,
    subgroup_from_elements,
)
from .corpus import named_group


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def content_hash(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def maps_doc(F: Functor) -> dict:
    """The object and morphism maps of a functor, keys sorted."""
    return {"object_map": dict(sorted(F.object_map.items())),
            "morphism_map": dict(sorted(F.morphism_map.items()))}


def functor_from_maps(doc, source: FinCat, target: FinCat) -> Functor:
    """The validated functor source -> target with the maps of `doc` (see maps_doc)."""
    return Functor(source, target, dict(doc["object_map"]), dict(doc["morphism_map"])).validate()


def functor_doc(F: Functor) -> dict:
    return {"source": F.source.to_doc(), "target": F.target.to_doc(), **maps_doc(F)}


def functor_from_doc(doc, caps: SizeCaps = DEFAULT_CAPS) -> Functor:
    src = category_from_doc(doc["source"], caps)
    dst = category_from_doc(doc["target"], caps)
    return functor_from_maps(doc, src, dst)


def action_doc(A: MonoidActionCat) -> dict:
    cdoc = A.carrier.to_doc()
    return {
        "monoid": A.monoid.to_doc(),
        "category": cdoc,
        "category_hash": content_hash(cdoc),
        "object_maps": {m: dict(sorted(A.act[m].object_map.items())) for m in A.monoid.elements},
        "morphism_maps": {m: dict(sorted(A.act[m].morphism_map.items())) for m in A.monoid.elements},
    }


def action_from_doc(doc, caps: SizeCaps = DEFAULT_CAPS) -> MonoidActionCat:
    M = monoid_from_doc(doc["monoid"])
    cat = category_from_doc(doc["category"], caps)
    if doc.get("category_hash") and doc["category_hash"] != content_hash(cat.to_doc()):
        raise GcatError("action document category hash mismatch")
    act = {m: Functor(cat, cat, dict(doc["object_maps"][m]), dict(doc["morphism_maps"][m]))
           for m in M.elements}
    return MonoidActionCat(M, cat, act).validate()


def sset_map_doc(f) -> dict:
    return {
        "source": f.source.to_doc(),
        "target": f.target.to_doc(),
        "values": sorted([n, sid, [v[0], list(v[1])]] for (n, sid), v in f.values.items()),
    }


def _tuple_of(kind, entries, message):
    """`entries` as a tuple.  An entry whose type is not `kind` itself (a bool
    is not an int) makes the document malformed: TypeError(message.format(entry))."""
    out = tuple(entries)
    for k in out:
        if type(k) is not kind:
            raise TypeError(message.format(k))
    return out


def _alpha(entries):
    """The alpha of a face or map value in a document, as a tuple of ints."""
    return _tuple_of(int, entries, "alpha entry {!r} is not an integer")


def sset_map_from_doc(doc):
    from .sset import SSetMap, sset_from_doc
    src = sset_from_doc(doc["source"])
    dst = sset_from_doc(doc["target"])
    values = {(int(n), sid): (v[0], _alpha(v[1])) for n, sid, v in doc["values"]}
    return SSetMap(src, dst, values).validate()


def complex_doc(K) -> dict:
    return {"vertices": list(K.vertices), "faces": sorted(list(f) for f in K.faces)}


def complex_from_doc(doc):
    """The complex of `doc`; a vertex or face entry that is not a string makes
    the document malformed: TypeError."""
    from .sset import OrderedComplex

    def ids(entries):
        return _tuple_of(str, entries, "vertex {!r} is not a string")

    return OrderedComplex(ids(doc["vertices"]), frozenset(map(ids, doc["faces"])))


def witness_doc(w) -> dict:
    return {
        "i": functor_doc(w.i),
        "cosieve_objects": list(w.cosieve_objects),
        "f": maps_doc(w.f),
        "r": maps_doc(w.r),
        "unit": dict(sorted(w.unit.components.items())),
        "counit": dict(sorted(w.counit.components.items())),
        "equivariant": w.group is not None,
        "source_hash": content_hash(w.i.source.to_doc()),
        "target_hash": content_hash(w.i.target.to_doc()),
    }


def load_pairs(doc):
    """Pairs document: {"G": name, "H_group": name, "pairs": [{"H": [...], "phi": {...}}]}."""
    G = named_group(doc["G"])
    Hg = named_group(doc.get("H_group", doc["G"]))
    out = []
    for p in doc["pairs"]:
        H = subgroup_from_elements(Hg, p["H"])
        out.append((H, dict(p["phi"])))
    return G, Hg, out


def load_family(doc):
    """Family document: {"group": name, "subgroups": [[...], ...]}."""
    G = named_group(doc["group"])
    return G, [subgroup_from_elements(G, els) for els in doc["subgroups"]]


def report(command: str, inputs: dict, body: dict) -> dict:
    return {
        "command": command,
        "library_version": __version__,
        "input_hashes": {k: content_hash(v) for k, v in sorted(inputs.items())},
        **body,
    }
