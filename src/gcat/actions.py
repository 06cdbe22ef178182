"""Finite monoids and groups acting strictly on finite categories.

Actions are stored as one explicit endofunctor per monoid element and
verified exhaustively (unit acts as identity, act(mn) = act(m)∘act(n)).
Also here: chaotic categories, deloopings, graph subgroups, free-action
quotients, and equivariant retractions of free right actions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .config import DEFAULT_CAPS, SizeCaps
from .errors import (
    ActionNotFree,
    EquivarianceViolation,
    GcatError,
    NotAHomomorphism,
    NotASubgroup,
    SubgroupNotInUnits,
)
from .fincat import (
    FinCat,
    Functor,
    discrete_category,
    enumerate_functors,
    identity_functor,
    pair_obj,
    product_category,
    product_functor,
    thin_category,
    thin_functor,
    validate_category,
)


# ---------------------------------------------------------------------------
# monoids and groups


@dataclass(frozen=True, eq=False)
class FinMonoid:
    elements: tuple
    table: dict  # (a, b) -> a·b
    unit: str
    # sorted element tuple -> its validated subgroup, None -> the units group
    _subgroups: dict = field(default_factory=dict, init=False, repr=False)

    def mul(self, a, b):
        return self.table[(a, b)]

    def validate(self):
        els = set(self.elements)
        if self.unit not in els:
            raise GcatError("unit not an element")
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.table or self.table[(a, b)] not in els:
                    raise GcatError(f"multiplication undefined/invalid on ({a!r},{b!r})")
        for a in self.elements:
            if self.mul(a, self.unit) != a or self.mul(self.unit, a) != a:
                raise GcatError(f"unit law fails at {a!r}")
        for a, b, c in itertools.product(self.elements, repeat=3):
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise GcatError(f"associativity fails on ({a!r},{b!r},{c!r})")
        return self

    def is_group(self):
        return all(self.inverse(a) is not None for a in self.elements)

    def inverse(self, a):
        for b in self.elements:
            if self.mul(a, b) == self.unit and self.mul(b, a) == self.unit:
                return b
        return None

    def to_doc(self):
        els = list(self.elements)
        return {
            "elements": els,
            "table": [[self.mul(a, b) for b in els] for a in els],
            "unit": self.unit,
        }


class FinGroup(FinMonoid):
    def validate(self):
        super().validate()
        if not self.is_group():
            raise GcatError("not a group: some element has no inverse")
        return self


def make_group(elements, table, unit) -> FinGroup:
    return FinGroup(tuple(sorted(str(e) for e in elements)),
                    {(str(a), str(b)): str(v) for (a, b), v in table.items()},
                    str(unit)).validate()


def trivial_group() -> FinGroup:
    return make_group(["e"], {("e", "e"): "e"}, "e")


def cyclic_group(n: int) -> FinGroup:
    els = [f"c{i}" for i in range(n)]
    table = {(f"c{i}", f"c{j}"): f"c{(i + j) % n}" for i in range(n) for j in range(n)}
    return make_group(els, table, "c0")


def symmetric_group(n: int) -> FinGroup:
    """S_n with elements named by their one-line image strings."""
    perms = list(itertools.permutations(range(n)))

    def name(p):
        return "s" + "".join(str(i) for i in p)

    table = {}
    for p in perms:
        for q in perms:
            comp = tuple(p[q[i]] for i in range(n))  # p after q
            table[(name(p), name(q))] = name(comp)
    return make_group([name(p) for p in perms], table, name(tuple(range(n))))


def product_monoid(M: FinMonoid, N: FinMonoid) -> FinMonoid:
    els = [pair_obj(a, b) for a in M.elements for b in N.elements]
    table = {}
    for a, b in itertools.product(M.elements, N.elements):
        for c, d in itertools.product(M.elements, N.elements):
            table[(pair_obj(a, b), pair_obj(c, d))] = pair_obj(M.mul(a, c), N.mul(b, d))
    cls = FinGroup if isinstance(M, FinGroup) and isinstance(N, FinGroup) else FinMonoid
    return cls(tuple(sorted(els)), table, pair_obj(M.unit, N.unit)).validate()


def submonoid_check(M: FinMonoid, subset) -> bool:
    subset = set(subset)
    if M.unit not in subset:
        return False
    return all(M.mul(a, b) in subset for a in subset for b in subset)


def subgroup_from_elements(M: FinMonoid, elements) -> FinGroup:
    """The subset as a FinGroup sharing M's unit; raises NotASubgroup.  Each
    subgroup is built and validated once, memoized on M; a failure is not."""
    elements = tuple(sorted(set(str(e) for e in elements)))
    H = M._subgroups.get(elements)
    if H is None:
        if not submonoid_check(M, elements):
            raise NotASubgroup(f"{elements} is not closed / missing unit")
        table = {(a, b): M.mul(a, b) for a in elements for b in elements}
        try:
            H = M._subgroups[elements] = FinGroup(elements, table, M.unit).validate()
        except GcatError as exc:
            raise NotASubgroup(str(exc)) from exc
    return H


def units_group(M: FinMonoid) -> FinGroup:
    """Maximal subgroup of two-sided invertible elements, memoized on M."""
    U = M._subgroups.get(None)
    if U is None:
        U = M._subgroups[None] = subgroup_from_elements(
            M, [a for a in M.elements if M.inverse(a) is not None])
    return U


def subgroups(G: FinGroup):
    """All subgroups, sorted by order and then by their sorted elements.  Each
    is the join of the cyclic subgroups of its elements, so joining the
    subgroups found in pairs, from the cyclic ones on, until nothing new
    appears finds them all."""
    def generated(gens):
        # in a finite group the products of generators are closed under inverses
        closure, todo = {G.unit}, [G.unit]
        while todo:
            a = todo.pop()
            for b in gens:
                v = G.mul(a, b)
                if v not in closure:
                    closure.add(v)
                    todo.append(v)
        return frozenset(closure)

    found = {generated([g]) for g in G.elements}
    todo = list(found)
    while todo:
        A = todo.pop()
        for B in list(found):
            if not (A <= B or B <= A):
                J = generated(A | B)
                if J not in found:
                    found.add(J)
                    todo.append(J)
    return [subgroup_from_elements(G, els)
            for els in sorted((tuple(sorted(H)) for H in found), key=lambda t: (len(t), t))]


def homomorphisms(H: FinGroup, G: FinGroup):
    """All homomorphisms H -> G as dicts: the functors B(H) -> B(G)."""
    return [F.morphism_map for F in enumerate_functors(delooping(H), delooping(G))]


def check_homomorphism(H: FinMonoid, G: FinMonoid, phi: dict):
    g_elements = set(G.elements)
    for a in H.elements:
        if a not in phi or phi[a] not in g_elements:
            raise NotAHomomorphism(f"phi undefined/invalid at {a!r}")
    if phi[H.unit] != G.unit:
        raise NotAHomomorphism("phi does not preserve the unit")
    for a in H.elements:
        for b in H.elements:
            if phi[H.mul(a, b)] != G.mul(phi[a], phi[b]):
                raise NotAHomomorphism(f"phi breaks multiplication on ({a!r},{b!r})")
    return phi


@dataclass(frozen=True, eq=False)
class GraphSubgroup:
    """Γ_{H,φ} = {(h, φ(h))} inside the product monoid H×G."""

    H: FinGroup
    G: FinGroup
    phi: dict
    group: FinGroup

    def pair(self, h):
        return pair_obj(h, self.phi[h])


def graph_subgroup(H: FinGroup, phi: dict, G: FinGroup) -> GraphSubgroup:
    check_homomorphism(H, G, phi)
    ambient = product_monoid(H, G)
    els = [pair_obj(h, phi[h]) for h in H.elements]
    grp = subgroup_from_elements(ambient, els)
    if grp.elements != tuple(sorted(els)) or len(els) != len(H.elements):
        raise NotASubgroup("graph subgroup has wrong order")
    return GraphSubgroup(H, G, dict(phi), grp)


def subgroup_key(H: FinGroup) -> str:
    """Report key of a subgroup: its elements, as '{e1,e2,...}'."""
    return "{" + ",".join(H.elements) + "}"


def phi_key(phi: dict) -> str:
    """Report key of a homomorphism φ: 'h1:g1,h2:g2,...' in element order."""
    return ",".join(f"{h}:{g}" for h, g in sorted(phi.items()))


def pair_key(H: FinGroup, phi: dict) -> str:
    """Report key of an (H, φ) pair: '{h1,...}->h1:g1,...'."""
    return f"{subgroup_key(H)}->{phi_key(phi)}"


# ---------------------------------------------------------------------------
# chaotic categories and deloopings


def chaotic_category(X) -> FinCat:
    """E(X): exactly one morphism x>y per ordered pair; empty X gives the empty category."""
    X = [str(x) for x in X]
    return thin_category(X, itertools.product(X, repeat=2), lambda x, y: f"{x}>{y}")


def delooping(H: FinMonoid) -> FinCat:
    """B(H): one object, morphisms the elements, composition the multiplication."""
    mors = [(h, "*", "*") for h in H.elements]
    compose = {(g, f): H.mul(g, f) for g in H.elements for f in H.elements}
    return validate_category(["*"], mors, {"*": H.unit}, compose)


# ---------------------------------------------------------------------------
# actions on categories


@dataclass(eq=False)
class MonoidActionCat:
    """Strict left action of a finite monoid on a FinCat."""

    monoid: FinMonoid
    carrier: FinCat
    act: dict  # element -> Functor (endofunctor of carrier)

    def validate(self):
        for m in self.monoid.elements:
            F = self.act.get(m)
            if F is None:
                raise GcatError(f"action undefined at {m!r}")
            F.validate()
            if F.source is not self.carrier or F.target is not self.carrier:
                raise GcatError("action functor is not an endofunctor of the carrier")
        return self._check_laws()

    def _check_laws(self, known=None):
        """act(unit) = id and act(m)∘act(n) = act(m·n), where the unit or product differs
        from that of `known`, a monoid whose validated action by the same functors obeys both."""
        M, act = self.monoid, self.act
        unit = act[M.unit]
        if (known is None or M.unit != known.unit) and not unit.same_maps(identity_functor(self.carrier)):
            raise GcatError("unit does not act as the identity")
        for m, n in itertools.product(M.elements, repeat=2):
            mn = act[M.mul(m, n)]
            if (known is None or M.mul(m, n) != known.mul(m, n)) and not act[n].then(act[m]).same_maps(mn):
                raise GcatError(f"act({m!r}·{n!r}) ≠ act({m!r})∘act({n!r})")
        return self

    def ob(self, m, x):
        return self.act[m].object_map[x]

    def mor(self, m, f):
        return self.act[m].morphism_map[f]


def trivial_action(M: FinMonoid, C: FinCat) -> MonoidActionCat:
    ident = identity_functor(C)
    return MonoidActionCat(M, C, {m: ident for m in M.elements}).validate()


def chaotic_action(M: FinMonoid, element_action: dict) -> MonoidActionCat:
    """Action on E(X) induced by a monoid action on the set X.

    element_action: monoid element -> dict mapping X to X.
    """
    X = sorted(element_action[M.unit])
    E = chaotic_category(X)
    act = {m: thin_functor(E, E, element_action[m]) for m in M.elements}
    return MonoidActionCat(M, E, act).validate()


def translation_action(G: FinGroup) -> MonoidActionCat:
    """E(G) with the left translation G-action (free on objects and morphisms)."""
    return chaotic_action(G, {g: {h: G.mul(g, h) for h in G.elements} for g in G.elements})


def product_action(A: MonoidActionCat, B: MonoidActionCat, caps: SizeCaps = DEFAULT_CAPS) -> MonoidActionCat:
    """Diagonal action on the product carrier; A and B must be actions of
    one monoid, as they are at the one caller, `generating_maps`."""
    prod = product_category(A.carrier, B.carrier, caps)
    act = {
        m: product_functor(A.act[m], B.act[m], prod, prod)
        for m in A.monoid.elements
    }
    return MonoidActionCat(A.monoid, prod, act).validate()


def restrict_action(A: MonoidActionCat, H: FinMonoid) -> MonoidActionCat:
    """Restrict a validated action along a submonoid H, whose elements must be
    A.monoid's (KeyError otherwise); only the laws at H's unit and products
    that differ from A's are checked."""
    R = MonoidActionCat(H, A.carrier, {h: A.act[h] for h in H.elements})
    return R._check_laws(A.monoid)


def full_subcategory_action(A: MonoidActionCat, sub: FinCat) -> MonoidActionCat:
    """A restricted to `sub`, a full subcategory of its carrier that every
    element maps into itself; validation raises unless it is one."""
    return MonoidActionCat(A.monoid, sub, {
        m: Functor(sub, sub, {x: A.ob(m, x) for x in sub.objects},
                   {f: A.mor(m, f) for f in sub.morphism_ids})
        for m in A.monoid.elements}).validate()


def check_equivariant(F: Functor, A: MonoidActionCat, B: MonoidActionCat):
    """F: A.carrier -> B.carrier commuting with both actions (same monoid), entry by entry."""
    if A.monoid is not B.monoid and A.monoid.table != B.monoid.table:
        raise EquivarianceViolation("the two actions are of different monoids")
    for m in A.monoid.elements:
        a, b = A.act[m], B.act[m]
        for amap, fmap, bmap in ((a.object_map, F.object_map, b.object_map),
                                 (a.morphism_map, F.morphism_map, b.morphism_map)):
            if amap.keys() != fmap.keys() or any(fmap[v] != bmap[fmap[k]] for k, v in amap.items()):
                raise EquivarianceViolation(f"functor not equivariant at {m!r}", witness=m)
    return F


def fixed_category(A: MonoidActionCat, H: FinGroup) -> FinCat:
    """Full subcategory of objects and morphisms fixed by every act(h), h in H.

    H must be a subgroup of the units of the acting monoid.
    """
    M = A.monoid
    units = units_group(M).elements
    if not set(H.elements) <= set(units):
        raise SubgroupNotInUnits(f"{H.elements} not inside units {units}")
    subgroup_from_elements(M, H.elements)
    C = A.carrier
    objs = [x for x in C.objects if all(A.ob(h, x) == x for h in H.elements)]
    oset = set(objs)
    mors = [
        (m, s, t)
        for m, s, t in C.morphisms
        if s in oset and t in oset and all(A.mor(h, m) == m for h in H.elements)
    ]
    mids = {m for m, _, _ in mors}
    ident = {x: C.identity[x] for x in objs}
    comp = {(g, f): h for (g, f), h in C.compose.items() if g in mids and f in mids}
    return FinCat(tuple(objs), tuple(mors), ident, comp)


def fixed_functor(F: Functor, A: MonoidActionCat, B: MonoidActionCat, H: FinGroup) -> Functor:
    """Restriction F^H: A^H -> B^H of an equivariant functor."""
    CH = fixed_category(A, H)
    DH = fixed_category(B, H)
    return Functor(
        CH, DH,
        {x: F.object_map[x] for x in CH.objects},
        {m: F.morphism_map[m] for m in CH.morphism_ids},
    ).validate()


# ---------------------------------------------------------------------------
# free right actions, retractions, quotients


def check_free_right_action(H: FinGroup, elements, act):
    """act: (s, h) -> s·h, a right action; raises ActionNotFree with a
    witness pair.  The action laws are not checked here: the library's one
    use, in `restriction_comparison`, passes the multiplication of a
    validated group H′ on its subgroup H, which obeys them."""
    for s in elements:
        for h in H.elements:
            if h != H.unit and act(s, h) == s:
                raise ActionNotFree(s, h)


def equivariant_retraction(H: FinGroup, elements, act) -> dict:
    """Right H-equivariant r: S -> H for a free right action.

    Orbit representatives are lexicographically least; r(rep·h) = h.
    """
    check_free_right_action(H, elements, act)
    r = {}
    for s in sorted(elements):
        if s in r:
            continue
        orbit = sorted(act(s, h) for h in H.elements)
        rep = orbit[0]
        for h in H.elements:
            r[act(rep, h)] = h
    return r


@dataclass(eq=False)
class CellCategory:
    """(E(K) ×_φ G) := (E(K) × G)/Γ_{H,φ} with its left G-action.

    `coherence[(k1, k2)]` maps each object of the quotient to the image of the
    unique E(K)-morphism k1 -> k2 acting at it: the categorical part of the
    left (E(K) × G)-action, used by the saturation checks.
    """

    K: FinGroup
    G: FinGroup
    H: FinGroup
    phi: dict
    category: FinCat
    g_action: MonoidActionCat          # left G-action on the quotient
    kg_action: MonoidActionCat         # discrete left (K×G)-action
    coherence: dict


def cell_category(K: FinGroup, G: FinGroup, H: FinGroup, phi: dict,
                  caps: SizeCaps = DEFAULT_CAPS) -> CellCategory:
    """Build (E(K) × G)/Γ_{H,φ} for H a subgroup of K and φ: H -> G."""
    check_homomorphism(H, G, phi)
    subgroup_from_elements(K, H.elements)
    EK = chaotic_category(K.elements)
    Gd = discrete_category(G.elements)
    EKxG = product_category(EK, Gd, caps)

    def translation(a, b):
        """The endofunctor (m, g) ↦ (a(m), b(g)) of E(K) × G, which is thin."""
        return thin_functor(EKxG, EKxG, {pair_obj(m, g): pair_obj(a(m), b(g))
                                         for m in K.elements for g in G.elements})

    def translate(h):
        """Left-action functor of Γ-element for h (descends the right action by h⁻¹)."""
        hinv = H.inverse(h)
        return translation(lambda m: K.mul(m, hinv), lambda g: G.mul(g, phi[hinv]))

    gamma = graph_subgroup(H, phi, G)
    gact = MonoidActionCat(gamma.group, EKxG, {gamma.pair(h): translate(h) for h in H.elements}).validate()
    cell, q = quotient_by_free_action(gact)

    def left_kg(k, g):
        """The endofunctor of the quotient that left translation by (k, g) descends to."""
        up = translation(lambda m: K.mul(k, m), lambda gg: G.mul(g, gg))
        return Functor(cell, cell, {x: q.object_map[up.object_map[x]] for x in cell.objects},
                       {m: q.morphism_map[up.morphism_map[m]] for m in cell.morphism_ids})

    KxG = product_monoid(K, G)
    kg_act = {pair_obj(k, g): left_kg(k, g) for k in K.elements for g in G.elements}
    g_action = MonoidActionCat(G, cell, {g: kg_act[pair_obj(K.unit, g)] for g in G.elements}).validate()
    kg_action = MonoidActionCat(KxG, cell, kg_act).validate()

    coherence = {}
    for k1 in K.elements:
        for k2 in K.elements:
            comp = {}
            for x in cell.objects:
                # x is the least orbit member (m, g); act the morphism k1 -> k2 at it
                m, g = x[1:-1].split(",")
                amb = EKxG.hom(pair_obj(K.mul(k1, m), g), pair_obj(K.mul(k2, m), g))
                comp[x] = q.morphism_map[amb[0]]
            coherence[(k1, k2)] = comp
    return CellCategory(K, G, H, dict(phi), cell, g_action, kg_action, coherence)


def quotient_by_free_action(A: MonoidActionCat) -> tuple:
    """Quotient of a free group action; returns (quotient FinCat, quotient Functor).

    Objects and morphisms are orbits named by their lexicographically least
    member.  Requires a group action, as the one caller, `cell_category`,
    passes, free on objects, and so on morphisms: g·m = m gives
    g·src(m) = src(m).
    """
    G = A.monoid
    C = A.carrier
    for x in C.objects:
        for g in G.elements:
            if g != G.unit and A.ob(g, x) == x:
                raise ActionNotFree(x, g)

    def orbit_obj(x):
        return min(A.ob(g, x) for g in G.elements)

    def orbit_mor(m):
        return min(A.mor(g, m) for g in G.elements)

    objs = sorted({orbit_obj(x) for x in C.objects})
    mor_reps = sorted({orbit_mor(m) for m in C.morphism_ids})
    morphisms = [(m, orbit_obj(C.src[m]), orbit_obj(C.dst[m])) for m in mor_reps]
    identity = {x: orbit_mor(C.identity[x]) for x in objs}
    compose = {}
    for g2 in mor_reps:
        for f in mor_reps:
            # translate f so that it becomes composable with g2, if possible
            for g in G.elements:
                tf = A.mor(g, f)
                if C.dst[tf] == C.src[g2]:
                    compose[(g2, f)] = orbit_mor(C.compose[(g2, tf)])
                    break
    D = validate_category(objs, morphisms, identity, compose)
    q = Functor(C, D, {x: orbit_obj(x) for x in C.objects},
                {m: orbit_mor(m) for m in C.morphism_ids}).validate()
    return D, q
