"""Canonical document IO.

All documents are JSON with sorted keys and sorted lists; serialization is
bit-stable under round-trip, and every report embeds content hashes of its
inputs plus the library version.  Every document reader is here, built on
three checked readers that raise a TypeError naming any value of the wrong
type: every id is a string, and caps, dimensions and alpha entries are ints.
"""

from __future__ import annotations

import json

try:   # CPython's own SHA-256, so that hashlib does not load OpenSSL for one digest
    from _sha2 import sha256            # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .config import DEFAULT_CAPS, SizeCaps
from .errors import GcatError
from .fincat import FinCat, Functor, validate_category
from .actions import FinGroup, FinMonoid, MonoidActionCat, subgroup_from_elements
from .corpus import named_group
from .sset import FinSSet, OrderedComplex, SSetMap


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def content_hash(doc) -> str:
    return sha256(canonical_json(doc).encode("utf-8")).hexdigest()


_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _value(kind, value, what):
    """`value`, whose type must be `kind` itself: TypeError naming `what` if not."""
    if type(value) is not kind:
        raise TypeError(f"{what} {value!r} is not {_TYPE_NAMES[kind]}")
    return value


def _list(kind, entries, what):
    """A JSON list of `kind` values, each named `what`, as a tuple."""
    for x in _value(list, entries, f"{what} list"):
        _value(kind, x, what)
    return tuple(entries)


def _id_map(value, what):
    """A JSON object of string ids to string ids, as it is."""
    _list(str, [*_value(dict, value, what), *value.values()], f"{what} entry")
    return value


def category_from_doc(doc, caps: SizeCaps = DEFAULT_CAPS) -> FinCat:
    """The validated category of `doc`."""
    objects = _list(str, doc["objects"], "object id")
    morphisms = [(_value(str, m, "morphism id"), _value(str, s, "object id"), _value(str, t, "object id"))
                 for m, s, t in _value(list, doc["morphisms"], "morphisms")]
    compose = {(g, f): h for g, f, h in
               (_list(str, entry, "morphism id") for entry in _value(list, doc["compose"], "compose"))}
    return validate_category(objects, morphisms, _id_map(doc["identity"], "identity"),
                             compose, caps)


def maps_doc(F: Functor) -> dict:
    """The object and morphism maps of a functor, keys sorted."""
    return {"object_map": dict(sorted(F.object_map.items())),
            "morphism_map": dict(sorted(F.morphism_map.items()))}


def functor_from_maps(doc, source: FinCat, target: FinCat) -> Functor:
    """The validated functor source -> target with the maps of `doc` (see maps_doc)."""
    return Functor(source, target, _id_map(doc["object_map"], "object map"),
                   _id_map(doc["morphism_map"], "morphism map")).validate()


def functor_doc(F: Functor) -> dict:
    return {"source": F.source.to_doc(), "target": F.target.to_doc(), **maps_doc(F)}


def functor_from_doc(doc, caps: SizeCaps = DEFAULT_CAPS) -> Functor:
    src = category_from_doc(doc["source"], caps)
    dst = category_from_doc(doc["target"], caps)
    return functor_from_maps(doc, src, dst)


def monoid_from_doc(doc) -> FinMonoid:
    """The validated monoid of `doc`, a FinGroup when every element has an inverse."""
    els = _list(str, doc["elements"], "monoid element")
    rows = [_list(str, row, "monoid element") for row in _value(list, doc["table"], "table")]
    table = {(a, b): rows[i][j] for i, a in enumerate(els) for j, b in enumerate(els)}
    m = FinMonoid(els, table, _value(str, doc["unit"], "monoid element")).validate()
    return FinGroup(m.elements, m.table, m.unit) if m.is_group() else m


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
    if "category_hash" in doc and (_value(str, doc["category_hash"], "category hash")
                                   != content_hash(cat.to_doc())):
        raise GcatError("action document category hash mismatch")
    act = {m: Functor(cat, cat, _id_map(doc["object_maps"][m], "object map"),
                      _id_map(doc["morphism_maps"][m], "morphism map"))
           for m in M.elements}
    return MonoidActionCat(M, cat, act).validate()


def sset_from_doc(doc) -> FinSSet:
    """The validated simplicial set of `doc`; JSON makes the keys of `cells` strings."""
    cells = {int(n): _list(str, ids, "simplex id")
             for n, ids in _value(dict, doc["cells"], "cells").items()}
    faces = {(_value(int, n, "face dimension"), _value(str, sid, "simplex id")):
             tuple((_value(str, c, "simplex id"), _list(int, a, "alpha entry")) for c, a in fs)
             for n, sid, fs in _value(list, doc["faces"], "faces")}
    return FinSSet(_value(int, doc["cap"], "cap"), cells, faces).validate()


def sset_map_from_doc(doc) -> SSetMap:
    src = sset_from_doc(doc["source"])
    dst = sset_from_doc(doc["target"])
    values = {(_value(int, n, "map value dimension"), _value(str, sid, "simplex id")):
              (_value(str, c, "simplex id"), _list(int, a, "alpha entry"))
              for n, sid, (c, a) in _value(list, doc["values"], "values")}
    return SSetMap(src, dst, values).validate()


def complex_doc(K) -> dict:
    return {"vertices": list(K.vertices), "faces": sorted(list(f) for f in K.faces)}


def complex_from_doc(doc) -> OrderedComplex:
    return OrderedComplex(_list(str, doc["vertices"], "vertex"),
                          frozenset(_list(str, f, "vertex")
                                    for f in _value(list, doc["faces"], "faces")))


def witness_doc(w) -> dict:
    A = w.i.source
    return {
        "i": functor_doc(w.i),
        "cosieve_objects": list(w.X.objects),
        "f": maps_doc(w.f),
        "r": maps_doc(w.r),
        "unit": {a: A.identity[a] for a in sorted(A.objects)},
        "counit": dict(sorted(w.counit.items())),
        "equivariant": w.group is not None,
        "source_hash": content_hash(A.to_doc()),
        "target_hash": content_hash(w.i.target.to_doc()),
    }


def subgroup_from_doc(group: FinMonoid, doc) -> FinGroup:
    return subgroup_from_elements(group, _list(str, doc, "subgroup element"))


def phi_from_doc(doc) -> dict:
    return _id_map(doc, "phi")


def load_pairs(doc):
    """Pairs document: {"G": name, "H_group": name, "pairs": [{"H": [...], "phi": {...}}]}."""
    G = named_group(doc["G"])
    Hg = named_group(doc.get("H_group", doc["G"]))
    pairs = [(subgroup_from_doc(Hg, p["H"]), phi_from_doc(p["phi"]))
             for p in _value(list, doc["pairs"], "pairs")]
    return G, Hg, pairs


def load_family(doc):
    """Family document: {"group": name, "subgroups": [[...], ...]}."""
    G = named_group(doc["group"])
    return G, [subgroup_from_doc(G, els) for els in _value(list, doc["subgroups"], "subgroups")]


def report(command: str, inputs: dict, body: dict) -> dict:
    return {
        "command": command,
        "library_version": __version__,
        "input_hashes": {k: content_hash(v) for k, v in sorted(inputs.items())},
        **body,
    }
