"""Finite categories as explicit tables.

A FinCat stores its objects, morphisms, identity assignment, and the full
composition table.  Everything is validated exhaustively: identity laws for
every morphism, then associativity over the composable triples that they do
not imply, those with no identity factor.  A functor is validated once: it
carries a mark from then on.  On top of that
this module provides functors, natural transformations, products, functor
categories, exhaustive equivalence search, and a presentation-based pushout
oracle that is independent of the explicit Dwyer-pushout construction.
Thin categories (posets, chaotic and discrete categories) come from one
builder, `thin_category`, and a functor into a thin category from its object
map alone, by `thin_functor`.
Fun(T, C) comes from one depth-first search, `_search`, run by both
`enumerate_functors` and `enumerate_nat_trans`: each law is filed under the
position that completes it and checked once per assignment there, as in
standard backtracking (Dechter, Constraint Processing, 2003).  The
oracle is coset enumeration (Holt, Eick & O'Brien, Handbook of Computational
Group Theory, 2005, ch. 5): a coset table of morphism classes named by
composite words, filled in HLT order by relation scans, coincidences and
definitions, with one union-find for object classes, generator classes and
states, and at most 4 * max_morphisms live states, checked every 128 states.

Ids are strings ordered lexicographically; `serialize.category_from_doc`,
the reader of category documents, refuses any other id.  All constructions
are deterministic functions of their inputs.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .config import DEFAULT_CAPS, SizeCaps
from .errors import (
    AssociativityViolation,
    DanglingReference,
    GcatError,
    IdentityViolation,
    Inconclusive,
    SizeCapExceeded,
)


# ---------------------------------------------------------------------------
# categories


@dataclass(frozen=True, eq=False)
class FinCat:
    """A finite category given by explicit tables.

    objects: sorted tuple of object ids.
    morphisms: sorted tuple of (mor id, src id, dst id).
    identity: object id -> morphism id.
    compose: (g, f) -> g∘f, defined exactly on composable pairs (f: x->y,
    g: y->z gives g∘f: x->z).
    src, dst and _hom (endpoints -> morphisms in `morphisms` order) are
    built from `morphisms` unless given; `validate_category` hands over the
    ones it builds.
    """

    objects: tuple
    morphisms: tuple
    identity: Mapping
    compose: Mapping
    src: Mapping = field(repr=False, default=None)
    dst: Mapping = field(repr=False, default=None)
    _hom: Mapping = field(repr=False, default=None)

    def __post_init__(self):
        if self.src is None:
            object.__setattr__(self, "src", {m: s for m, s, _ in self.morphisms})
            object.__setattr__(self, "dst", {m: t for m, _, t in self.morphisms})
        if self._hom is None:
            hom = {}
            for m, s, t in self.morphisms:
                hom.setdefault((s, t), []).append(m)
            object.__setattr__(self, "_hom", {k: tuple(v) for k, v in hom.items()})

    # -- basic queries ------------------------------------------------

    @functools.cached_property
    def morphism_ids(self):
        return tuple(m for m, _, _ in self.morphisms)

    def hom(self, x, y):
        return self._hom.get((x, y), ())

    def is_identity(self, m):
        return self.identity.get(self.src[m]) == m and self.src[m] == self.dst[m]

    def n_objects(self):
        return len(self.objects)

    def n_morphisms(self):
        return len(self.morphisms)

    def isos(self):
        """Set of invertible morphism ids."""
        return set(self.inverses)

    @functools.cached_property
    def inverses(self):
        """Invertible morphism id -> its inverse, in `morphisms` order."""
        compose, identity, out = self.compose, self.identity, {}
        for m, s, t in self.morphisms:
            for w in self.hom(t, s):
                if compose[(w, m)] == identity[s] and compose[(m, w)] == identity[t]:
                    out[m] = w
                    break
        return out

    def full_subcategory(self, objs):
        objs = sorted(objs)
        oset = set(objs)
        mors = tuple(sorted((m, s, t) for m, s, t in self.morphisms if s in oset and t in oset))
        mids = {m for m, _, _ in mors}
        ident = {x: self.identity[x] for x in objs}
        comp = {
            (g, f): h
            for (g, f), h in self.compose.items()
            if g in mids and f in mids
        }
        return FinCat(tuple(objs), mors, ident, comp)

    def to_doc(self):
        return {
            "objects": list(self.objects),
            "morphisms": [[m, s, t] for m, s, t in self.morphisms],
            "identity": {x: self.identity[x] for x in self.objects},
            "compose": sorted([g, f, h] for (g, f), h in self.compose.items()),
        }


def validate_category(objects, morphisms, identity, compose, caps: SizeCaps = DEFAULT_CAPS):
    """Validate raw tables and return a canonical FinCat.

    Raises DanglingReference / IdentityViolation / AssociativityViolation with
    the offending ids, and SizeCapExceeded past the configured caps.

    Associativity is checked on the triples with no identity factor only.
    The identity laws are checked first, for every morphism, composites
    included, and they imply the rest: with f = id, both sides are h∘g; with
    g = id, both are h∘f; with h = id, both are g∘f.  So a table that fails
    associativity at a triple with an identity factor has already raised
    IdentityViolation, and every message and its precedence are those of the
    check over all triples.
    """
    objects = tuple(sorted(objects))
    if len(set(objects)) != len(objects):
        raise DanglingReference("duplicate object ids")
    if len(objects) > caps.max_objects:
        raise SizeCapExceeded("objects", len(objects), caps.max_objects)
    morphisms = tuple(sorted(tuple(m) for m in morphisms))
    mids = [m for m, _, _ in morphisms]
    if len(set(mids)) != len(mids):
        raise DanglingReference("duplicate morphism ids")
    if len(morphisms) > caps.max_morphisms:
        raise SizeCapExceeded("morphisms", len(morphisms), caps.max_morphisms)
    oset = set(objects)
    for m, s, t in morphisms:
        if s not in oset or t not in oset:
            raise DanglingReference(f"morphism {m!r} has unknown endpoint {s!r} or {t!r}")
    midset = set(mids)
    src, dst, hom = {}, {}, {}
    by_src, by_dst = {}, {}   # the morphisms out of and into each object, in `mids` order
    for m, s, t in morphisms:
        src[m], dst[m] = s, t
        by_src.setdefault(s, []).append(m)
        by_dst.setdefault(t, []).append(m)
        hom.setdefault((s, t), []).append(m)
    identity = dict(identity)
    for x in objects:
        if x not in identity:
            raise DanglingReference(f"object {x!r} has no identity")
        i = identity[x]
        if i not in midset:
            raise DanglingReference(f"identity {i!r} of {x!r} is not a morphism")
        if src[i] != x or dst[i] != x:
            raise IdentityViolation(f"identity {i!r} of {x!r} is not an endomorphism of {x!r}")
    compose = {(g, f): h for (g, f), h in dict(compose).items()}
    for (g, f), h in compose.items():
        if g not in midset or f not in midset or h not in midset:
            raise DanglingReference(f"compose entry ({g!r},{f!r})->{h!r} uses unknown ids")
        if dst[f] != src[g]:
            raise DanglingReference(f"compose defined on non-composable pair ({g!r},{f!r})")
        if src[h] != src[f] or dst[h] != dst[g]:
            raise DanglingReference(f"composite {h!r} of ({g!r},{f!r}) has wrong endpoints")
    for g in mids:
        for f in by_dst.get(src[g], ()):
            if (g, f) not in compose:
                raise DanglingReference(f"compose missing on composable pair ({g!r},{f!r})")
    for m in mids:
        if compose[(m, identity[src[m]])] != m:
            raise IdentityViolation(f"right identity law fails for {m!r}")
        if compose[(identity[dst[m]], m)] != m:
            raise IdentityViolation(f"left identity law fails for {m!r}")
    # associativity over the composable triples with no identity factor
    ids = {identity[x] for x in objects}
    out = {x: [m for m in ms if m not in ids] for x, ms in by_src.items()}
    for f in mids:
        if f in ids:
            continue
        for g in out[dst[f]]:
            gf = compose[(g, f)]
            for h in out[dst[g]]:
                if compose[(h, gf)] != compose[(compose[(h, g)], f)]:
                    raise AssociativityViolation(f"(h∘g)∘f ≠ h∘(g∘f) for ({h!r},{g!r},{f!r})")
    return FinCat(objects, morphisms, identity, compose, src, dst,
                  {k: tuple(v) for k, v in hom.items()})


# -- small builders -------------------------------------------------------


def terminal_category():
    return validate_category(["*"], [("id*", "*", "*")], {"*": "id*"}, {("id*", "id*"): "id*"})


def thin_category(objects, relation, name, caps: SizeCaps = DEFAULT_CAPS):
    """The thin category of a reflexive, transitive relation on `objects`:
    one morphism name(x, y): x -> y for each pair (x, y) of `relation`, the
    identity of x is name(x, x), and name(y, z)∘name(x, y) = name(x, z).
    The composites are read off the pairs above each object.  The tables
    still go through `validate_category`, so a relation that is not
    reflexive or transitive is refused there."""
    ids = {(x, y): name(x, y) for x, y in relation}
    above = {}
    for x, y in ids:
        above.setdefault(x, []).append(y)
    comp = {(ids[y, z], xy): ids.get((x, z))
            for (x, y), xy in ids.items() for z in above.get(y, ())}
    return validate_category(objects, [(m, x, y) for (x, y), m in ids.items()],
                             {x: ids.get((x, x)) for x in objects}, comp, caps)


def discrete_category(elements):
    return thin_category([str(e) for e in elements], [(str(e), str(e)) for e in elements],
                         lambda x, _: f"id:{x}")


# ---------------------------------------------------------------------------
# posets


@dataclass(frozen=True, eq=False)
class Poset:
    """Finite poset; `leq` is the full relation as a frozenset of pairs."""

    elements: tuple
    leq: frozenset

    def __post_init__(self):
        els = set(self.elements)
        for x in self.elements:
            if (x, x) not in self.leq:
                raise GcatError(f"poset not reflexive at {x!r}")
        for x, y in self.leq:
            if x not in els or y not in els:
                raise GcatError("poset relation has unknown element")
            if x != y and (y, x) in self.leq:
                raise GcatError(f"poset not antisymmetric on ({x!r},{y!r})")
        for x, y in self.leq:
            for z in self.elements:
                if (y, z) in self.leq and (x, z) not in self.leq:
                    raise GcatError(f"poset not transitive on ({x!r},{y!r},{z!r})")

    def le(self, x, y):
        return (x, y) in self.leq

    def to_fincat(self, caps: SizeCaps = DEFAULT_CAPS):
        return thin_category(self.elements, self.leq, lambda x, y: f"{x}<={y}", caps)


def poset_from_relation(elements, pairs):
    """Reflexive-transitive closure of `pairs` over `elements` (must be acyclic)."""
    elements = tuple(sorted(str(e) for e in elements))
    rel = {(str(a), str(b)) for a, b in pairs}
    rel |= {(x, x) for x in elements}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), list(rel)):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return Poset(elements, frozenset(rel))


def chain_poset(n):
    """The linear order 0 < 1 < ... < n, i.e. the category [n]."""
    els = [str(i) for i in range(n + 1)]
    return Poset(tuple(els), frozenset((str(i), str(j)) for i in range(n + 1) for j in range(i, n + 1)))


def arrow_category():
    return chain_poset(1).to_fincat()


# ---------------------------------------------------------------------------
# functors and natural transformations


@dataclass(eq=False)
class Functor:
    source: FinCat
    target: FinCat
    object_map: dict
    morphism_map: dict
    _checked: bool = field(default=False, init=False, repr=False)   # validated in full

    def validate(self):
        """Check every functor law, once: the mark set on success makes a
        later call return at once.

        Composition is checked on the compose entries of the source with no
        identity factor only.  The endpoints and the identities are checked
        first, for every morphism and object, and with the laws of source
        and target they imply the rest: for g∘id = g, F(g)∘F(id) =
        F(g)∘id = F(g), and likewise for id∘f = f.  So a map that breaks an
        entry with an identity factor has already raised DanglingReference
        or IdentityViolation, and every message and its precedence are those
        of the check over all entries."""
        if self._checked:
            return self
        S, T, om, mm = self.source, self.target, self.object_map, self.morphism_map
        target_objects = set(T.objects)
        for x in S.objects:
            if x not in om or om[x] not in target_objects:
                raise DanglingReference(f"object map undefined/invalid at {x!r}")
        for m, s, t in S.morphisms:
            fm = mm.get(m)
            if fm is None or fm not in T.src:
                raise DanglingReference(f"morphism map undefined/invalid at {m!r}")
            if T.src[fm] != om[s] or T.dst[fm] != om[t]:
                raise DanglingReference(f"functor breaks endpoints at {m!r}")
        ids = set()
        for x in S.objects:
            i = S.identity[x]
            ids.add(i)
            if mm[i] != T.identity[om[x]]:
                raise IdentityViolation(f"functor breaks identity at {x!r}")
        for (g, f), h in S.compose.items():
            if g not in ids and f not in ids and T.compose[(mm[g], mm[f])] != mm[h]:
                raise AssociativityViolation(f"functor breaks composition on ({g!r},{f!r})")
        self._checked = True
        return self

    def same_maps(self, other: "Functor"):
        return self.object_map == other.object_map and self.morphism_map == other.morphism_map

    def signature(self):
        return (
            tuple(sorted(self.object_map.items())),
            tuple(sorted(self.morphism_map.items())),
        )

    def then(self, other: "Functor") -> "Functor":
        """self followed by other (other ∘ self)."""
        return Functor(
            self.source,
            other.target,
            {x: other.object_map[v] for x, v in self.object_map.items()},
            {m: other.morphism_map[v] for m, v in self.morphism_map.items()},
        )

    def is_injective_on_objects(self):
        vals = list(self.object_map.values())
        return len(set(vals)) == len(vals)

    def is_fully_faithful(self):
        """Each S(x, y) -> T(Fx, Fy) is a bijection: the images (x, y, F m) are
        distinct, lie in those hom-sets and fill them, as their sizes sum to |mor_S|."""
        S, T, om = self.source, self.target, self.object_map
        image = {(s, t, self.morphism_map[m]) for m, s, t in S.morphisms}
        fibre = Counter(om[x] for x in S.objects)
        return (len(image) == len(S.morphisms)
                and all(T.src.get(fm) == om[s] and T.dst[fm] == om[t] for s, t, fm in image)
                and len(image) == sum(fibre[a] * fibre[b] * len(ms) for (a, b), ms in T._hom.items()))


def thin_functor(source: FinCat, target: FinCat, object_map) -> Functor:
    """The functor that sends each m: s -> t of `source` to the one morphism
    object_map[s] -> object_map[t] of `target`; DanglingReference unless
    that hom-set has exactly one morphism.

    This check is the functor's whole validation, so the functor carries the
    mark that `Functor.validate` sets: every object has an identity, so the
    object map is checked at each, and the image of an identity or of g∘f
    lies in a one-morphism hom-set that also holds the target's identity or
    the composite of the images."""
    om = dict(object_map)
    mm = {}
    for m, s, t in source.morphisms:
        hom = target.hom(om.get(s), om.get(t))
        if len(hom) != 1:
            raise DanglingReference(f"{m!r}: {s!r} -> {t!r} has {len(hom)} images "
                                    f"{om.get(s)!r} -> {om.get(t)!r}, not one")
        mm[m] = hom[0]
    F = Functor(source, target, om, mm)
    F._checked = True
    return F


def identity_functor(cat: FinCat) -> Functor:
    return Functor(cat, cat, {x: x for x in cat.objects}, {m: m for m in cat.morphism_ids})


def constant_functor(source: FinCat, target: FinCat, obj) -> Functor:
    return Functor(
        source,
        target,
        {x: obj for x in source.objects},
        {m: target.identity[obj] for m in source.morphism_ids},
    )


def inclusion_functor(sub: FinCat, amb: FinCat) -> Functor:
    return Functor(sub, amb, {x: x for x in sub.objects}, {m: m for m in sub.morphism_ids})


@dataclass(eq=False)
class NatTrans:
    source: Functor
    target: Functor
    components: dict  # object id of the common source -> morphism id in the common target

    def validate(self):
        F, G = self.source, self.target
        cat, tgt = F.source, F.target
        for x in cat.objects:
            c = self.components.get(x)
            if c is None or c not in tgt.src:
                raise DanglingReference(f"component missing/invalid at {x!r}")
            if tgt.src[c] != F.object_map[x] or tgt.dst[c] != G.object_map[x]:
                raise DanglingReference(f"component at {x!r} has wrong endpoints")
        for m, s, t in cat.morphisms:
            lhs = tgt.compose[(self.components[t], F.morphism_map[m])]
            rhs = tgt.compose[(G.morphism_map[m], self.components[s])]
            if lhs != rhs:
                raise GcatError(f"naturality fails at {m!r}")
        return self

    def is_componentwise_iso(self):
        isos = self.source.target.isos()
        return all(c in isos for c in self.components.values())


# ---------------------------------------------------------------------------
# products


def pair_obj(a, b):
    return f"({a},{b})"


def pair_mor(f, g):
    return f"({f},{g})"


def product_category(S: FinCat, C: FinCat, caps: SizeCaps = DEFAULT_CAPS) -> FinCat:
    """S × C with componentwise composition; |Mor| multiplies."""
    n_mor = S.n_morphisms() * C.n_morphisms()
    if n_mor > caps.max_morphisms:
        raise SizeCapExceeded("product morphisms", n_mor, caps.max_morphisms)
    if S.n_objects() * C.n_objects() > caps.max_objects:
        raise SizeCapExceeded("product objects", S.n_objects() * C.n_objects(), caps.max_objects)
    objects = [pair_obj(a, b) for a in S.objects for b in C.objects]
    morphisms = [
        (pair_mor(f, g), pair_obj(S.src[f], C.src[g]), pair_obj(S.dst[f], C.dst[g]))
        for f in S.morphism_ids
        for g in C.morphism_ids
    ]
    identity = {pair_obj(a, b): pair_mor(S.identity[a], C.identity[b]) for a in S.objects for b in C.objects}
    compose = {}
    for (f2, f1), f in S.compose.items():
        for (g2, g1), g in C.compose.items():
            compose[(pair_mor(f2, g2), pair_mor(f1, g1))] = pair_mor(f, g)
    return validate_category(objects, morphisms, identity, compose, caps)


def product_functor(F: Functor, G: Functor, prod_src: FinCat, prod_tgt: FinCat) -> Functor:
    """F × G on already-built product categories."""
    om = {}
    mm = {}
    for a in F.source.objects:
        for b in G.source.objects:
            om[pair_obj(a, b)] = pair_obj(F.object_map[a], G.object_map[b])
    for f in F.source.morphism_ids:
        for g in G.source.morphism_ids:
            mm[pair_mor(f, g)] = pair_mor(F.morphism_map[f], G.morphism_map[g])
    return Functor(prod_src, prod_tgt, om, mm)


# ---------------------------------------------------------------------------
# functor categories


@dataclass(eq=False)
class FunctorCategoryData:
    """Fun(T, C) together with the dictionaries needed to act on it."""

    cat: FinCat
    source: FinCat
    target: FinCat
    functors: list          # index -> Functor; object id is f"F{index:03d}"
    index_of: dict          # Functor.signature() -> index
    trans: dict             # morphism id -> (src index, dst index, components dict)
    trans_lookup: dict      # (src index, dst index, sorted components) -> morphism id

    def functor_of(self, obj_id):
        return self.functors[int(obj_id[1:])]

    def trans_id(self, src_idx, dst_idx, components):
        return self.trans_lookup[(src_idx, dst_idx, tuple(sorted(components.items())))]


def _search(n, candidates, consistent, what, caps: SizeCaps, spent=0, first=False):
    """Every assignment of values to positions 0..n-1, depth first, or with
    `first` only the first, and the nodes counted: position k takes each
    value of candidates(k, values) in turn and keeps it when
    consistent(k, values), which runs the checks that position k completes,
    so each check runs once per assignment of its positions.  One node per
    position reached, counted on from `spent`, the nodes of earlier searches
    that share the budget; past caps.max_candidates nodes,
    SizeCapExceeded(what).  The values left to try are kept on an explicit
    stack, one iterator per assigned position, so no recursion limit bounds
    n."""
    values, found, nodes, stack = [None] * n, [], spent, []
    while True:
        nodes += 1
        if nodes > caps.max_candidates:
            raise SizeCapExceeded(what, nodes, caps.max_candidates)
        if len(stack) == n:
            found.append(list(values))
            if first:
                return found, nodes
        else:
            stack.append(iter(candidates(len(stack), values)))
        while stack:
            k = len(stack) - 1
            for v in stack[-1]:
                values[k] = v
                if consistent(k, values):
                    break
            else:
                stack.pop()
                continue
            break
        else:
            return found, nodes


def enumerate_functors(T: FinCat, C: FinCat, caps: SizeCaps = DEFAULT_CAPS):
    """All functors T -> C, sorted by signature.  Positions are T's objects,
    then its non-identity morphisms, each drawn from C's hom-set between its
    endpoints' images.  An object position checks that the hom-sets of the
    morphisms it completes are non-empty; a morphism position checks each
    compose entry of non-identities that it completes (entries with an
    identity factor hold by construction)."""
    objs = T.objects
    nonid = [m for m in T.morphism_ids if not T.is_identity(m)]
    # an identity stands at its object's position, which is below len(objs)
    pos = {T.identity[x]: k for k, x in enumerate(objs)}
    pos.update((m, len(objs) + k) for k, m in enumerate(nonid))
    ends = [(pos[T.identity[T.src[m]]], pos[T.identity[T.dst[m]]]) for m in nonid]
    checks = [[] for _ in pos]
    for s, t in dict.fromkeys(ends):
        checks[max(s, t)].append((s, t))
    for (g, f), h in T.compose.items():
        if len(objs) <= min(pos[g], pos[f]):
            checks[max(pos[g], pos[f], pos[h])].append((pos[g], pos[f], pos[h]))

    def candidates(k, v):
        if k < len(objs):
            return C.objects
        s, t = ends[k - len(objs)]
        return C.hom(v[s], v[t])

    def consistent(k, v):
        if k < len(objs):
            return all(C.hom(v[s], v[t]) for s, t in checks[k])
        return all(C.compose[(v[g], v[f])] == (v[h] if h >= len(objs) else C.identity[v[h]])
                   for g, f, h in checks[k])

    results = []
    for v in _search(len(checks), candidates, consistent, "functor enumeration", caps)[0]:
        om = dict(zip(objs, v))
        mm = {T.identity[x]: C.identity[c] for x, c in om.items()}
        mm.update(zip(nonid, v[len(objs):]))
        results.append(Functor(T, C, om, mm))
    results.sort(key=lambda F: F.signature())
    return results


def enumerate_nat_trans(F: Functor, G: Functor, caps: SizeCaps = DEFAULT_CAPS):
    """All natural transformations F => G, as component dicts sorted by their
    items.  Positions are T's objects; naturality at a non-identity m is
    checked once, at the later of its endpoints' positions."""
    T, C = F.source, F.target
    homs = [C.hom(F.object_map[x], G.object_map[x]) for x in T.objects]
    if not all(homs):
        return []
    pos = {x: k for k, x in enumerate(T.objects)}
    checks = [[] for _ in homs]
    for m, s, t in T.morphisms:
        if not T.is_identity(m):
            checks[max(pos[s], pos[t])].append((pos[s], F.morphism_map[m], G.morphism_map[m], pos[t]))

    def natural(k, v):
        return all(C.compose[(v[t], fm)] == C.compose[(gm, v[s])] for s, fm, gm, t in checks[k])

    found, _ = _search(len(homs), lambda k, v: homs[k], natural, "nat-trans enumeration", caps)
    return sorted((dict(zip(T.objects, v)) for v in found), key=lambda d: tuple(sorted(d.items())))


def functor_category_data(T: FinCat, C: FinCat, caps: SizeCaps = DEFAULT_CAPS) -> FunctorCategoryData:
    """Fun(T, C), validated as a category.  Its objects are the functors of
    `enumerate_functors`, whose search checked every functor law once, so
    they are not validated again."""
    functors = enumerate_functors(T, C, caps)
    if len(functors) > caps.max_objects:
        raise SizeCapExceeded("functor-category objects", len(functors), caps.max_objects)
    index_of = {F.signature(): i for i, F in enumerate(functors)}
    objects = [f"F{i:03d}" for i in range(len(functors))]
    morphisms, trans, lookup = [], {}, {}
    all_trans = {}   # (i, j) -> [(morphism id, components)]
    for i, F in enumerate(functors):
        for j, G in enumerate(functors):
            comps = enumerate_nat_trans(F, G, caps)
            if len(morphisms) + len(comps) > caps.max_morphisms:
                raise SizeCapExceeded("functor-category morphisms", len(morphisms) + len(comps),
                                      caps.max_morphisms)
            all_trans[(i, j)] = [(f"n{i:03d}>{j:03d}#{k:03d}", comp) for k, comp in enumerate(comps)]
            for mid, comp in all_trans[(i, j)]:
                morphisms.append((mid, f"F{i:03d}", f"F{j:03d}"))
                trans[mid] = (i, j, comp)
                lookup[(i, j, tuple(sorted(comp.items())))] = mid
    identity, compose = {}, {}
    for i, F in enumerate(functors):
        comp = {x: C.identity[F.object_map[x]] for x in T.objects}
        identity[f"F{i:03d}"] = lookup[(i, i, tuple(sorted(comp.items())))]
    by_src_idx = {}
    for (i, j), alphas in all_trans.items():
        by_src_idx.setdefault(j, []).append((i, alphas))
    for (j, k), betas in all_trans.items():
        for i, alphas in by_src_idx.get(j, ()):
            for bid, beta in betas:
                for aid, alpha in alphas:
                    comp = {x: C.compose[(beta[x], alpha[x])] for x in T.objects}
                    compose[(bid, aid)] = lookup[(i, k, tuple(sorted(comp.items())))]
    cat = validate_category(objects, morphisms, identity, compose, caps)
    return FunctorCategoryData(cat, T, C, functors, index_of, trans, lookup)


def _induced_on_fun(data_src: FunctorCategoryData, data_dst: FunctorCategoryData,
                    image, components) -> Functor:
    """The functor between functor categories that sends F to image(F), each
    computed once, and the transformation with components c to the one with
    components(c)."""
    idx = [data_dst.index_of[image(F).signature()] for F in data_src.functors]
    om = {f"F{i:03d}": f"F{j:03d}" for i, j in enumerate(idx)}
    mm = {mid: data_dst.trans_id(idx[i], idx[j], components(comp))
          for mid, (i, j, comp) in data_src.trans.items()}
    return Functor(data_src.cat, data_dst.cat, om, mm)


def postcompose_on_fun(data_src: FunctorCategoryData, data_dst: FunctorCategoryData, g: Functor) -> Functor:
    """Fun(T, g): Fun(T,C) -> Fun(T,D) for g: C -> D (same T)."""
    return _induced_on_fun(data_src, data_dst, lambda F: F.then(g),
                           lambda comp: {x: g.morphism_map[c] for x, c in comp.items()})


def precompose_on_fun(data_src: FunctorCategoryData, data_dst: FunctorCategoryData, r: Functor) -> Functor:
    """Fun(r, C): Fun(T,C) -> Fun(S,C) for r: S -> T (same C)."""
    return _induced_on_fun(data_src, data_dst, r.then,
                           lambda comp: {x: comp[r.object_map[x]] for x in r.source.objects})


# ---------------------------------------------------------------------------
# equivalences


@dataclass(eq=False)
class EquivalenceWitness:
    functor: Functor
    quasi_inverse: Functor
    unit: NatTrans       # id ≅ QF
    counit: NatTrans     # FQ ≅ id

    def validate(self):
        F, Q = self.functor, self.quasi_inverse
        self.unit.validate()
        self.counit.validate()
        if not self.unit.is_componentwise_iso() or not self.counit.is_componentwise_iso():
            raise GcatError("equivalence witness transformations are not isomorphisms")
        if not self.unit.source.same_maps(identity_functor(F.source)):
            raise GcatError("unit source is not the identity functor")
        if not self.unit.target.same_maps(F.then(Q)):
            raise GcatError("unit target is not QF")
        if not self.counit.source.same_maps(Q.then(F)):
            raise GcatError("counit source is not FQ")
        if not self.counit.target.same_maps(identity_functor(F.target)):
            raise GcatError("counit target is not the identity functor")
        return self


def find_equivalence(F: Functor, caps: SizeCaps = DEFAULT_CAPS) -> Optional[EquivalenceWitness]:
    """Equivalence witness iff F is fully faithful and essentially surjective.

    The search is exhaustive, so None is a proof of non-equivalence.
    """
    C, D = F.source, F.target
    if C.n_objects() > caps.max_objects or D.n_objects() > caps.max_objects:
        raise SizeCapExceeded("equivalence search", max(C.n_objects(), D.n_objects()), caps.max_objects)
    if not F.is_fully_faithful():
        return None
    isos = D.isos()
    # the lexicographically least (preimage object, iso) per target object;
    # F is essentially surjective when every target object has one
    choice = {d: next(((c, m) for c in sorted(C.objects) for m in D.hom(F.object_map[c], d)
                       if m in isos), None) for d in D.objects}
    if None in choice.values():
        return None
    q_ob = {d: choice[d][0] for d in D.objects}
    xi = {d: choice[d][1] for d in D.objects}  # xi_d : F(q(d)) -> d, iso

    # (x, y, F(m)) -> m: one entry per morphism of D(Fx, Fy), as F is fully faithful
    preimage = {(s, t, F.morphism_map[m]): m for m, s, t in C.morphisms}
    q_mor = {}
    for g in D.morphism_ids:
        d1, d2 = D.src[g], D.dst[g]
        conj = D.compose[(D.inverses[xi[d2]], D.compose[(g, xi[d1])])]
        q_mor[g] = preimage[(q_ob[d1], q_ob[d2], conj)]
    Q = Functor(D, C, q_ob, q_mor).validate()
    counit = NatTrans(Q.then(F), identity_functor(D), dict(xi))
    eta = {}
    for c in C.objects:
        eta[c] = preimage[(c, q_ob[F.object_map[c]], D.inverses[xi[F.object_map[c]]])]
    unit = NatTrans(identity_functor(C), F.then(Q), eta)
    return EquivalenceWitness(F, Q, unit, counit).validate()


# ---------------------------------------------------------------------------
# exhaustive isomorphism search


def is_isomorphism_functor(F: Functor) -> bool:
    """Exact isomorphism of categories: bijective on objects and morphisms."""
    try:
        F.validate()
    except GcatError:
        return False
    if len(set(F.object_map.values())) != F.target.n_objects():
        return False
    if len(F.object_map) != F.source.n_objects():
        return False
    vals = list(F.morphism_map.values())
    return len(set(vals)) == F.target.n_morphisms() and len(vals) == F.source.n_morphisms()


def _object_profiles(cat: FinCat):
    """x -> (|C(x, x)|, sorted |C(x, y)| and sorted |C(y, x)| over all y), from the hom keys."""
    n, degrees = len(cat.objects), {x: ([], []) for x in cat.objects}
    for (s, t), ms in cat._hom.items():
        degrees[s][0].append(len(ms))
        degrees[t][1].append(len(ms))
    return {x: (len(cat.hom(x, x)), *(tuple(sorted(d + [0] * (n - len(d)))) for d in degrees[x]))
            for x in cat.objects}


def find_isomorphism(C: FinCat, D: FinCat, caps: SizeCaps = DEFAULT_CAPS) -> Optional[Functor]:
    """Exhaustive category-isomorphism search with profile pruning: objects, then C's
    hom-sets in object order, each assignment checking the compose entries it completes.
    Depth first on explicit stacks of candidate iterators, one per assigned object or
    hom-set, so no recursion limit bounds the size of C.  The budget counts the root, each
    object assignment and each hom-set permutation tried."""
    if C.n_objects() != D.n_objects() or C.n_morphisms() != D.n_morphisms():
        return None
    profC, profD = _object_profiles(C), _object_profiles(D)
    if sorted(profC.values()) != sorted(profD.values()):
        return None
    objs = sorted(C.objects, key=lambda x: (profC[x], x))
    position = {x: k for k, x in enumerate(C.objects)}
    pairs = sorted(C._hom, key=lambda p: (position[p[0]], position[p[1]]))
    level = {m: k for k, p in enumerate(pairs) for m in C._hom[p]}
    checks = [[] for _ in pairs]
    for (g, f), h in C.compose.items():
        checks[max(level[g], level[f], level[h])].append((g, f, h))
    budget, cap = 0, caps.max_candidates

    def match_morphisms(ob):
        nonlocal budget
        mm, stack = {}, []   # stack[k]: the permutations left for the hom-set pairs[k]
        while True:
            k = len(stack)
            if k == len(pairs):
                F = Functor(C, D, dict(ob), dict(mm))
                if is_isomorphism_functor(F):
                    return F
            else:
                x, y = pairs[k]
                target_h = D.hom(ob[x], ob[y])
                if len(C.hom(x, y)) == len(target_h):
                    stack.append(itertools.permutations(target_h))
            while stack:
                k = len(stack) - 1
                source_h, check = C.hom(*pairs[k]), checks[k]
                for perm in stack[-1]:
                    budget += 1
                    if budget > cap:
                        raise SizeCapExceeded("isomorphism search", budget, cap)
                    mm.update(zip(source_h, perm))
                    if all(D.compose[(mm[g], mm[f])] == mm[h] for g, f, h in check):
                        break
                else:
                    stack.pop()
                    continue
                break
            else:
                return None

    ob, used, stack = {}, set(), []   # stack[k]: the images left to try for objs[k]
    while True:
        budget += 1
        if budget > cap:
            raise SizeCapExceeded("isomorphism search", budget, cap)
        if len(stack) == len(objs):
            found = match_morphisms(ob)
            if found is not None:
                return found
        else:
            x = objs[len(stack)]
            stack.append(iter([y for y in D.objects if profD[y] == profC[x]]))
        while stack:
            x = objs[len(stack) - 1]
            if x in ob:
                used.discard(ob.pop(x))
            for y in stack[-1]:
                if y not in used:
                    ob[x] = y
                    used.add(y)
                    break
            else:
                stack.pop()
                continue
            break
        else:
            return None


# ---------------------------------------------------------------------------
# presented pushout: the congruence-closure oracle


@dataclass
class PresentedPushout:
    category: FinCat
    leg_from_b: Functor   # d : B -> D
    leg_from_c: Functor   # j : C -> D
    word_of: dict         # morphism id -> canonical generator word
    relation_scans: int   # relation instances walked (lhs and rhs) by the closure


def free_tag(tag, clashes):
    """The tag that a pushout puts before the names n of one side's new
    ids, f"{tag}:{n}": `tag` itself unless such an id clashes with one that
    the pushout keeps, and otherwise `tag` with as few primes appended as
    avoid every clash.  `clashes` lists (ids kept, names to tag) pairs."""
    while any(f"{tag}:{n}" in taken for taken, names in clashes for n in names):
        tag += "'"
    return tag


def _uf_find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _tagged_union(parent, a, b):
    """Join the classes of the tagged nodes a and b under the lesser root,
    ordering nodes C's first, then by id."""
    ra, rb = _uf_find(parent, a), _uf_find(parent, b)
    if ra != rb:
        lo, hi = sorted((ra, rb), key=lambda n: (n[0] != "C", n[1]))
        parent[hi] = lo


class _CosetTable:
    """The coset table of a presented category (Holt-Eick-O'Brien, ch. 5).

    States are ints indexing parallel lists: word[s], the composite word that
    named s when it was defined (letters applied first to last); its object
    classes src[s] and dst[s]; parent[s], for `_uf_find`; and act[s], the
    table row letter -> state, kept on representatives; ending[x] lists the
    states with dst x, in state order.  The first states are the identities
    of `objects`, in order.  A definition whose word would be longer than
    word_cap raises Inconclusive; when the state count reaches a multiple of
    128, more than max_live live states raise SizeCapExceeded.
    """

    def __init__(self, objects, letter_dst, word_cap, max_live):
        self.identity = {x: s for s, x in enumerate(objects)}
        self.word = [()] * len(objects)
        self.src = list(objects)
        self.dst = list(objects)
        self.parent = list(range(len(objects)))
        self.act = [{} for _ in objects]
        self.ending = {x: [s] for s, x in enumerate(objects)}
        self.live = len(objects)
        self.letter_dst, self.word_cap, self.max_live = letter_dst, word_cap, max_live

    def new(self, word, src, dst):
        """Define a state named `word`."""
        if len(word) > self.word_cap:
            raise Inconclusive(word)
        s = len(self.parent)
        self.word.append(word)
        self.src.append(src)
        self.dst.append(dst)
        self.parent.append(s)
        self.act.append({})
        self.ending[dst].append(s)
        self.live += 1
        if len(self.parent) % 128 == 0 and self.live > self.max_live:
            raise SizeCapExceeded("pushout oracle states", self.live, self.max_live)
        return s

    def merge(self, s1, s2):
        """Coincidence: identify two states and every pair that follows,
        keeping the shorter (then lesser) word as representative."""
        parent, act, word = self.parent, self.act, self.word
        pending = [(s1, s2)]
        while pending:
            r1, r2 = (_uf_find(parent, s) for s in pending.pop())
            if r1 == r2:
                continue
            lo, hi = sorted((r1, r2), key=lambda s: (len(word[s]), word[s]))
            if self.src[lo] != self.src[hi] or self.dst[lo] != self.dst[hi]:
                raise GcatError("pushout oracle merged states with different endpoints")
            parent[hi] = lo
            self.live -= 1
            for letter, v in act[hi].items():
                if letter in act[lo]:
                    pending.append((act[lo][letter], v))
                else:
                    act[lo][letter] = v

    def walk(self, word, s, create=True):
        """The representative reached from s along `word`.  A missing entry
        is defined if `create`, and otherwise makes the result None."""
        parent, act = self.parent, self.act
        s = _uf_find(parent, s)
        for letter in word:
            nxt = act[s].get(letter)
            if nxt is None:
                if not create:
                    return None
                nxt = act[s][letter] = self.new(self.word[s] + (letter,), self.src[s],
                                                self.letter_dst[letter])
            s = _uf_find(parent, nxt)
        return s

    def close(self, relations, out_letters):
        """HLT enumeration: scan relation instances (lhs, rhs, object) at the
        representatives ending at that object, merging where the two walks
        part, until a pass merges nothing; then define the first missing
        entry in state and letter order, and repeat.  Returns the number of
        relation instances walked.  A scan visits only the states of
        `ending` at its object.

        Each relation's scan, and the search for a missing entry, resumes
        where it stopped.  That is exact because classes only coarsen: a
        scanned instance stays satisfied, a state merged away never becomes
        a representative again, dst never changes, and a complete
        representative stays complete.
        """
        parent, dst, act, ending = self.parent, self.dst, self.act, self.ending
        scanned = [0] * len(relations)   # relation r has been scanned at ending[at][:scanned[r]]
        complete = 0                     # states below it are merged away or complete
        scans = 0
        while True:
            changed = True
            while changed:
                changed = False
                for r, (lhs, rhs, at) in enumerate(relations):
                    states = ending[at]
                    end = len(states)
                    for s in states[scanned[r]:end]:
                        if parent[s] != s:
                            continue
                        scans += 1
                        left, right = self.walk(lhs, s), self.walk(rhs, s)
                        if _uf_find(parent, left) != _uf_find(parent, right):
                            self.merge(left, right)
                            changed = True
                    scanned[r] = end
            while complete < len(parent):
                if parent[complete] == complete:
                    missing = next((x for x in out_letters.get(dst[complete], ())
                                    if x not in act[complete]), None)
                    if missing is not None:
                        break
                complete += 1
            else:
                return scans
            self.walk((missing,), complete)


def presented_pushout(A: FinCat, B: FinCat, C: FinCat, i: Functor, c: Functor,
                      word_cap: int = 16, caps: SizeCaps = DEFAULT_CAPS) -> PresentedPushout:
    """Pushout of B <-i- A -c-> C presented by generators and relations.

    Objects are the classes of B's and C's objects under i(x) ~ c(x);
    letters are the classes of their morphisms under i(a) ~ c(a), the class
    of the identities being the empty word; relations are the two
    composition tables.  One union-find, `_uf_find`, holds the object
    classes, the letter classes and the states.  The closure is HLT coset
    enumeration on a `_CosetTable` (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, ch. 5): states are morphism classes,
    letters act by postcomposition, relation scans merge coincidences and
    definitions fill missing entries.  A word longer than word_cap raises
    Inconclusive with that word; more than 4 * caps.max_morphisms live
    states, checked each time the state count reaches a multiple of 128,
    raise SizeCapExceeded.  The closed table is assembled into a validated
    category with its two legs.  C's objects keep their ids, and B's objects
    outside i(A) are tagged 'B:', primed by `free_tag` where that would give
    one of C's ids.
    """
    if not i.is_injective_on_objects():
        raise GcatError("presented_pushout requires i injective on objects")
    if word_cap < 1:
        raise GcatError("word_cap must be >= 1")
    tagged = (("B", B), ("C", C))

    oparent = {(tag, x): (tag, x) for tag, cat in tagged for x in cat.objects}
    for a in A.objects:
        _tagged_union(oparent, ("B", i.object_map[a]), ("C", c.object_map[a]))
    oclass = {n: _uf_find(oparent, n) for n in oparent}

    eps = ("", "eps")   # the class of the empty word
    gparent = {(tag, m): (tag, m) for tag, cat in tagged for m in cat.morphism_ids}
    gparent[eps] = eps
    for tag, cat in tagged:
        for x in cat.objects:
            _tagged_union(gparent, (tag, cat.identity[x]), eps)
    for a in A.morphism_ids:
        if not A.is_identity(a):
            _tagged_union(gparent, ("B", i.morphism_map[a]), ("C", c.morphism_map[a]))
    empty = _uf_find(gparent, eps)
    letter_of = {n: r for n in gparent if (r := _uf_find(gparent, n)) != empty}

    ends = {(tag, m): (oclass[(tag, s)], oclass[(tag, t)])
            for tag, cat in tagged for m, s, t in cat.morphisms}
    out_letters = {}   # object class -> the letters out of it, in letter order
    for letter in sorted(set(letter_of.values())):
        out_letters.setdefault(ends[letter][0], []).append(letter)

    # (lhs word, rhs word, object class where both start)
    relations = set()
    for tag, cat in tagged:
        for (g, f), h in cat.compose.items():
            if cat.is_identity(g) or cat.is_identity(f):
                continue
            lhs = tuple(letter_of[(tag, m)] for m in (f, g) if (tag, m) in letter_of)
            rhs = tuple(letter_of[(tag, m)] for m in (h,) if (tag, m) in letter_of)
            if lhs != rhs:
                relations.add((lhs, rhs, ends[(tag, f)][0]))

    table = _CosetTable(sorted(set(oclass.values())), {x: ends[x][1] for x in letter_of.values()},
                        word_cap, caps.max_morphisms * 4)
    scans = table.close(sorted(relations), out_letters)
    image = set(i.object_map.values())
    tag = free_tag("B", [(set(C.objects), [b for b in B.objects if b not in image])])
    return _assemble_pushout(table, oclass, letter_of, (A, B, C, i, c), caps, scans, tag)


def _assemble_pushout(table, oclass, letter_of, span, caps, relation_scans, b_tag):
    """The quotient category of a closed table with its legs from B and C,
    checked to be a cocone on the span that the legs generate.  A class of
    B's objects outside i(A) is named by its object tagged with `b_tag`."""
    A, B, C, i, c = span
    parent, word = table.parent, table.word

    def obj_id(oc):
        tag, x = oc
        return x if tag == "C" else f"{b_tag}:{x}"

    # a word's letters tag:id are joined with ".".  While no id of B or C
    # holds ":", the colons of a name are its tags' and mark its letters, so
    # names stay apart; otherwise each id has "\", "." and ":" escaped with a
    # backslash, as `chain_id` escapes its ids
    escape = any(":" in m for cat in (B, C) for m in cat.morphism_ids)

    def letter(tag, m):
        if escape:
            m = m.replace("\\", "\\\\").replace(".", "\\.").replace(":", "\\:")
        return f"{tag}:{m}"

    reps = sorted((s for s in range(len(parent)) if parent[s] == s),
                  key=lambda s: (len(word[s]), word[s]))
    name = {r: "w:" + ".".join(letter(t, m) for t, m in word[r]) if word[r]
            else f"id:{obj_id(table.src[r])}" for r in reps}
    objects = [obj_id(oc) for oc in table.identity]
    morphisms = [(name[r], obj_id(table.src[r]), obj_id(table.dst[r])) for r in reps]
    identity = {x: f"id:{x}" for x in objects}
    reps_by_dst = {}
    for f in reps:
        reps_by_dst.setdefault(table.dst[f], []).append(f)
    compose = {}
    for g in reps:
        for f in reps_by_dst.get(table.src[g], ()):
            gf = table.walk(word[g], f, create=False)
            if gf is None:
                raise GcatError("pushout oracle closure left an undefined composite")
            compose[(name[g], name[f])] = name[gf]
    D = validate_category(objects, morphisms, identity, compose, caps)

    def leg(cat, tag):
        om = {x: obj_id(oclass[(tag, x)]) for x in cat.objects}
        mm = {}
        for m, s, _ in cat.morphisms:
            if (tag, m) in letter_of:
                start = table.identity[oclass[(tag, s)]]
                mm[m] = name[table.walk((letter_of[(tag, m)],), start, create=False)]
            else:
                mm[m] = identity[om[s]]
        return Functor(cat, D, om, mm).validate()

    d_leg, j_leg = leg(B, "B"), leg(C, "C")
    for a in A.morphism_ids:
        if d_leg.morphism_map[i.morphism_map[a]] != j_leg.morphism_map[c.morphism_map[a]]:
            raise GcatError("pushout cocone does not commute")
    generated = set(d_leg.morphism_map.values()) | set(j_leg.morphism_map.values())
    changed = True
    while changed:
        changed = False
        for (g, f), h in D.compose.items():
            if g in generated and f in generated and h not in generated:
                generated.add(h)
                changed = True
    if generated != set(D.morphism_ids):
        raise GcatError("pushout oracle produced non-generated morphisms")
    return PresentedPushout(D, d_leg, j_leg, {name[r]: word[r] for r in reps}, relation_scans)
