"""Dwyer maps: sieve/cosieve predicates, the witness construction, the
explicit pushout construction, and closure under fixed points and functor
categories.

A DwyerWitness for a sieve i: A -> B is a retraction r: X -> A of a cosieve
X ⊇ i(A) with the counit components ε_x: f(r x) -> x, for f: A -> X the
corestriction of i.  It says that A is coreflective in X (Thomason, "Cat as a
closed model category", 1980): r∘f = id_A is the unit, every ε_x is a
universal arrow from f, and these arrows fix r (Mac Lane, Categories for the
Working Mathematician, IV.1 Thm 2).  Whether x has one does not depend on X,
so `find_dwyer_witness` builds the witness from the first universal arrow of
each object and the largest cosieve of objects that have one, rather than
searching; its None is a proof that none exists.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from typing import Optional

from .config import DEFAULT_CAPS, SizeCaps
from .errors import EquivarianceViolation, GcatError, NotASubcategoryInclusion
from .fincat import (
    FinCat,
    Functor,
    NatTrans,
    functor_category_data,
    identity_functor,
    inclusion_functor,
    is_isomorphism_functor,
    postcompose_on_fun,
    presented_pushout,
    validate_category,
)
from .actions import (
    FinGroup,
    MonoidActionCat,
    check_equivariant,
    fixed_category,
    restrict_action,
)


# ---------------------------------------------------------------------------
# sieves and cosieves


def check_subcategory_inclusion(i: Functor):
    i.validate()
    if not i.is_injective_on_objects():
        raise NotASubcategoryInclusion("not injective on objects")
    if not i.is_fully_faithful():
        raise NotASubcategoryInclusion("not fully faithful onto its image")
    return i


def is_sieve(i: Functor) -> bool:
    """Every morphism of the target landing in the image lies in the image."""
    check_subcategory_inclusion(i)
    D = i.target
    im_obj = set(i.object_map.values())
    im_mor = set(i.morphism_map.values())
    for m, s, t in D.morphisms:
        if t in im_obj and m not in im_mor:
            return False
    return True


def is_cosieve(j: Functor) -> bool:
    """Dual: every morphism of the target starting in the image lies in it."""
    check_subcategory_inclusion(j)
    D = j.target
    im_obj = set(j.object_map.values())
    im_mor = set(j.morphism_map.values())
    for m, s, t in D.morphisms:
        if s in im_obj and m not in im_mor:
            return False
    return True


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True, eq=False)
class DwyerWitness:
    """Certificate that i: A -> B is a (G-equivariant) Dwyer map, validated
    once, when it is built: r retracts the cosieve X = r.source onto A, and
    the counit's ε_x: f(r x) -> x are universal arrows from f."""

    i: Functor
    r: Functor                 # X -> A with r∘f = id_A, the unit
    counit: dict               # x -> ε_x: f(r x) -> x, for x in X
    group: Optional[FinGroup] = None
    act_A: Optional[MonoidActionCat] = None
    act_B: Optional[MonoidActionCat] = None
    _i_checked: InitVar[bool] = False  # i already known to be an equivariant sieve
    X: FinCat = field(init=False)      # the cosieve, a full subcategory of B
    f: Functor = field(init=False)     # A -> X, i with its target cut down to X
    _checked: bool = field(default=False, init=False, repr=False)   # validated in full

    def __post_init__(self, _i_checked):
        object.__setattr__(self, "X", self.r.source)
        object.__setattr__(self, "f", Functor(self.i.source, self.X, self.i.object_map,
                                              self.i.morphism_map))
        self.validate(_i_checked=_i_checked)

    def validate(self, _i_checked=False):
        """Check the witness in full, once: the mark set on success makes a
        later call return at once."""
        if not self._checked:
            self._check(_i_checked)
            object.__setattr__(self, "_checked", True)
        return self

    def _check(self, _i_checked):
        if not _i_checked and not is_sieve(self.i):
            raise GcatError("witness functor is not a sieve")
        A, X, f, r, counit = self.i.source, self.X, self.f, self.r, self.counit
        if not is_cosieve(inclusion_functor(X, self.i.target)):
            raise GcatError("witness cosieve is not a cosieve")
        if not set(f.object_map.values()) <= set(X.objects):
            raise GcatError("cosieve does not contain the image of i")
        r.validate()
        if not f.then(r).same_maps(identity_functor(A)):
            raise GcatError("r∘f is not the identity of A")
        NatTrans(r.then(f), identity_functor(X), counit).validate()
        # triangle identities, with the identity unit
        for a in A.objects:
            if counit[f.object_map[a]] != X.identity[f.object_map[a]]:
                raise GcatError(f"triangle identity εf = id fails at {a!r}")
        for x in X.objects:
            if r.morphism_map[counit[x]] != A.identity[r.object_map[x]]:
                raise GcatError(f"triangle identity rε = id fails at {x!r}")
        if self.group is None:
            return
        G, aA, aB = self.group, self.act_A, self.act_B
        if not _i_checked:
            check_equivariant(self.i, aA, aB)
        # f is i with its target cut down to X, so i's check covers it; r is
        # checked against act_B on X, once X is known to be stable
        rob, rmor = r.object_map, r.morphism_map
        xset = set(X.objects)
        for g in G.elements:
            if {aB.ob(g, x) for x in xset} != xset:
                raise EquivarianceViolation("cosieve not stable under the action", witness=g)
            if any(rob[aB.ob(g, x)] != aA.ob(g, rob[x]) for x in xset) or any(
                    rmor[aB.mor(g, m)] != aA.mor(g, rmor[m]) for m in X.morphism_ids):
                raise EquivarianceViolation(f"r not equivariant at {g!r}", witness=g)
        for g in G.elements:
            for x in X.objects:
                if aB.mor(g, counit[x]) != counit[aB.ob(g, x)]:
                    raise EquivarianceViolation("counit not equivariant", witness=(g, x))


def find_dwyer_witness(i: Functor, equivariance=None) -> Optional[DwyerWitness]:
    """The Dwyer witness of i with identity unit, built from universal arrows;
    None is a proof that i has none.

    equivariance: optional (group, act_A, act_B).  Walking B's objects in
    order, each x outside i(A) that is the first of its orbit gets the first
    a in `A.objects` order and the first e: i(a) -> x in hom order such that
    h ↦ e∘i(h) is a bijection A(a', a) -> B(i a', x) for every a', with a and
    e fixed by the stabilizer of x; the rest of the orbit gets the
    translates, and i(A) gets identities.  X is the set of objects all of
    whose successors have such an arrow.  Cosieves with a witness are closed
    under union, so X is the largest one, and a witness exists exactly when
    X contains i(A).  r(m) for m: s -> t is the unique h with
    ε_t∘i(h) = m∘ε_s.  The witness is validated, and a failure raises; the
    checks of i alone, that it is a sieve and equivariant, run once, here.
    """
    if not is_sieve(i):
        return None
    A, B = i.source, i.target
    group = act_A = act_B = None
    if equivariance is not None:
        group, act_A, act_B = equivariance
        check_equivariant(i, act_A, act_B)
    into = {a: [h for a2 in A.objects for h in A.hom(a2, a)] for a in A.objects}

    def universal_arrow(x, stabilizer):
        """(a, e, {e∘i(h): h}) for the first universal e: i(a) -> x fixed by
        `stabilizer`, or None."""
        for a in A.objects:
            if any(act_A.ob(g, a) != a for g in stabilizer) or any(
                    len(A.hom(a2, a)) != len(B.hom(i.object_map[a2], x)) for a2 in A.objects):
                continue
            for e in B.hom(i.object_map[a], x):
                if any(act_B.mor(g, e) != e for g in stabilizer):
                    continue
                lift = {B.compose[(e, i.morphism_map[h])]: h for h in into[a]}
                if len(lift) == len(into[a]):
                    return a, e, lift
        return None

    arrow = {i.object_map[a]: (a, B.identity[i.object_map[a]],
                               {i.morphism_map[h]: h for h in into[a]}) for a in A.objects}
    seen = set(arrow)
    for x in B.objects:
        if x in seen:
            continue
        if group is None:
            seen.add(x)
            found = universal_arrow(x, ())
            if found is not None:
                arrow[x] = found
            continue
        moves = {}
        for g in group.elements:
            moves.setdefault(act_B.ob(g, x), g)
        seen.update(moves)
        found = universal_arrow(x, [g for g in group.elements if act_B.ob(g, x) == x])
        if found is not None:
            a, e, lift = found
            for y, g in moves.items():
                arrow[y] = (act_A.ob(g, a), act_B.mor(g, e),
                            {act_B.mor(g, m): act_A.mor(g, h) for m, h in lift.items()})
    lacking = {s for m, s, t in B.morphisms if t not in arrow}
    if any(i.object_map[a] in lacking for a in A.objects):
        return None
    X = B.full_subcategory([x for x in B.objects if x not in lacking])
    r = Functor(X, A, {x: arrow[x][0] for x in X.objects},
                {m: arrow[t][2][B.compose[(m, arrow[s][1])]] for m, s, t in X.morphisms})
    return DwyerWitness(i, r, {x: arrow[x][1] for x in X.objects}, group, act_A, act_B,
                        _i_checked=True)


# ---------------------------------------------------------------------------
# the explicit pushout


def _v_obj(b):
    return f"V:{b}"


def _v_mor(m):
    return f"V:{m}"


def _cross_mor(alpha, y):
    return f"[{alpha}@{y}]"


@dataclass(eq=False)
class DwyerPushout:
    category: FinCat
    leg_from_c: Functor  # j : C -> D
    leg_from_b: Functor  # d : B -> D
    cross: dict          # cross morphism id -> (C morphism, V∩X object)


def dwyer_pushout(A: FinCat, B: FinCat, C: FinCat, i: Functor, c: Functor,
                  w: DwyerWitness, caps: SizeCaps = DEFAULT_CAPS) -> DwyerPushout:
    """Explicit pushout of B <-i- A -c-> C along a Dwyer map with witness w.

    A cross morphism x -> V:y, for y in X outside i(A), is a C-morphism
    x -> c(r y), as r∘f = id_A and ε·f = id.  A witness of a functor other
    than i is validated again for i.  c must be a functor already validated
    where it was built; it is not checked again here.  C-objects keep their
    ids; V-objects are prefixed 'V:'.
    """
    if w.i is not i:
        w = replace(w, i=i)
    if c.source is not A and c.source.objects != A.objects:
        raise GcatError("c must have source A")
    image = set(i.object_map.values())
    preimage_obj = {i.object_map[a]: a for a in A.objects}
    preimage_mor = {i.morphism_map[m]: m for m in A.morphism_ids}
    V = [b for b in B.objects if b not in image]
    vset = set(V)
    xset = set(w.X.objects)
    vx = [b for b in V if b in xset]

    def cr(y):
        return c.object_map[w.r.object_map[y]]

    objects = list(C.objects) + [_v_obj(b) for b in V]
    morphisms = []
    identity = {x: C.identity[x] for x in C.objects}
    for m, s, t in C.morphisms:
        morphisms.append((m, s, t))
    for m, s, t in B.morphisms:
        if s in vset and t in vset:
            morphisms.append((_v_mor(m), _v_obj(s), _v_obj(t)))
    for b in V:
        identity[_v_obj(b)] = _v_mor(B.identity[b])
    cross = {}
    for y in vx:
        for x in C.objects:
            for alpha in C.hom(x, cr(y)):
                morphisms.append((_cross_mor(alpha, y), x, _v_obj(y)))
                cross[_cross_mor(alpha, y)] = (alpha, y)

    compose = {}
    for (g, f2), h in C.compose.items():
        compose[(g, f2)] = h
    vmors = [(m, s, t) for m, s, t in B.morphisms if s in vset and t in vset]
    for (m1, s1, t1) in vmors:
        for (m2, s2, t2) in vmors:
            if t1 == s2:
                compose[(_v_mor(m2), _v_mor(m1))] = _v_mor(B.compose[(m2, m1)])
    # cross ∘ C
    for y in vx:
        for x in C.objects:
            for alpha in C.hom(x, cr(y)):
                for x0 in C.objects:
                    for beta in C.hom(x0, x):
                        compose[(_cross_mor(alpha, y), beta)] = \
                            _cross_mor(C.compose[(alpha, beta)], y)
    # V ∘ cross: β: y -> z in B with y, z in V∩X
    for (m, s, t) in vmors:
        if s in xset:
            crm = c.morphism_map[w.r.morphism_map[m]]
            for x in C.objects:
                for alpha in C.hom(x, cr(s)):
                    compose[(_v_mor(m), _cross_mor(alpha, s))] = \
                        _cross_mor(C.compose[(crm, alpha)], t)
    D = validate_category(objects, morphisms, identity, compose, caps)

    j = Functor(C, D, {x: x for x in C.objects}, {m: m for m in C.morphism_ids}).validate()
    d_ob = {}
    for b in B.objects:
        d_ob[b] = c.object_map[preimage_obj[b]] if b in image else _v_obj(b)
    d_mor = {}
    for m, s, t in B.morphisms:
        if s in vset and t in vset:
            d_mor[m] = _v_mor(m)
        elif m in preimage_mor:
            d_mor[m] = c.morphism_map[preimage_mor[m]]
        else:
            # s in image, t in V∩X; value is c(r(m)) tagged at t
            alpha = c.morphism_map[w.r.morphism_map[m]]
            d_mor[m] = _cross_mor(alpha, t)
    d = Functor(B, D, d_ob, d_mor).validate()
    for a in A.morphism_ids:
        if d.morphism_map[i.morphism_map[a]] != j.morphism_map[c.morphism_map[a]]:
            raise GcatError("dwyer pushout cocone does not commute")
    return DwyerPushout(D, j, d, cross)


def equivariant_dwyer_pushout(act_A: MonoidActionCat, act_B: MonoidActionCat,
                              act_C: MonoidActionCat, i: Functor, c: Functor,
                              w: DwyerWitness, caps: SizeCaps = DEFAULT_CAPS):
    """dwyer_pushout with the induced G-action; returns (action, pushout).

    All inputs must be equivariant, c validated as for dwyer_pushout, and
    the witness equivariant.
    """
    if w.group is None:
        raise EquivarianceViolation("witness carries no equivariance data")
    G = w.group
    check_equivariant(i, act_A, act_B)
    check_equivariant(c, act_A, act_C)
    po = dwyer_pushout(act_A.carrier, act_B.carrier, act_C.carrier, i, c, w, caps)
    D = po.category
    B, C = act_B.carrier, act_C.carrier
    image = set(i.object_map.values())
    vset = {b for b in B.objects if b not in image}

    def act_functor(g):
        om = {}
        mm = {}
        for x in C.objects:
            om[x] = act_C.ob(g, x)
        for b in vset:
            om[_v_obj(b)] = _v_obj(act_B.ob(g, b))
        for m in C.morphism_ids:
            mm[m] = act_C.mor(g, m)
        for m, s, t in B.morphisms:
            if s in vset and t in vset:
                mm[_v_mor(m)] = _v_mor(act_B.mor(g, m))
        for mid, (alpha, y) in po.cross.items():
            mm[mid] = _cross_mor(act_C.mor(g, alpha), act_B.ob(g, y))
        return Functor(D, D, om, mm)

    action = MonoidActionCat(G, D, {g: act_functor(g) for g in G.elements}).validate()
    check_equivariant(po.leg_from_c, act_C, action)
    check_equivariant(po.leg_from_b, act_B, action)
    return action, po


# ---------------------------------------------------------------------------
# closure transports


def restrict_witness_to_fixed(w: DwyerWitness, H: FinGroup) -> DwyerWitness:
    """The witness (r^H, ε^H) for i^H: A^H -> B^H."""
    if w.group is None:
        raise EquivarianceViolation("witness carries no equivariance data")
    AH = fixed_category(restrict_action(w.act_A, H), H)
    BH = fixed_category(restrict_action(w.act_B, H), H)
    xset = set(w.X.objects)
    XH = BH.full_subcategory([x for x in BH.objects if x in xset])
    iH = Functor(AH, BH, {a: w.i.object_map[a] for a in AH.objects},
                 {m: w.i.morphism_map[m] for m in AH.morphism_ids})
    rH = Functor(XH, AH, {x: w.r.object_map[x] for x in XH.objects},
                 {m: w.r.morphism_map[m] for m in XH.morphism_ids})
    return DwyerWitness(iH, rH, {x: w.counit[x] for x in XH.objects})


def fun_witness(T: FinCat, w: DwyerWitness, caps: SizeCaps = DEFAULT_CAPS) -> tuple:
    """Witness for Fun(T, i): Fun(T,A) -> Fun(T,B); returns (witness, data),
    data the FunctorCategoryData of Fun(T, -) on A, B and X by those keys."""
    A, B, X = w.i.source, w.i.target, w.X
    dA, dB, dX = (functor_category_data(T, C, caps) for C in (A, B, X))
    data = {"A": dA, "B": dB, "X": dX}
    i2 = postcompose_on_fun(dA, dB, w.i)
    r2 = postcompose_on_fun(dX, dA, w.r)
    inc2 = postcompose_on_fun(dX, dB, inclusion_functor(X, B))
    # the cosieve: functors through X, as a full subcategory of Fun(T,B)
    X2 = dB.cat.full_subcategory(inc2.object_map.values())
    rename_ob = {inc2.object_map[x]: x for x in dX.cat.objects}
    rename_mor = {inc2.morphism_map[m]: m for m in dX.cat.morphism_ids}
    r2X = Functor(X2, dA.cat, {x: r2.object_map[rename_ob[x]] for x in X2.objects},
                  {m: r2.morphism_map[rename_mor[m]] for m in X2.morphism_ids})
    eps = {}
    for x2 in X2.objects:
        F = dX.functor_of(rename_ob[x2])
        comp = {t: w.counit[F.object_map[t]] for t in T.objects}
        src_idx = dX.index_of[F.then(w.r).then(w.f).signature()]
        dst_idx = dX.index_of[F.signature()]
        mid = dX.trans_id(src_idx, dst_idx, comp)
        eps[x2] = inc2.morphism_map[mid]
    return DwyerWitness(i2, r2X, eps), data


# ---------------------------------------------------------------------------
# cross-check against the presentation oracle


def pushout_cross_check(A: FinCat, B: FinCat, C: FinCat, i: Functor, c: Functor,
                        w: DwyerWitness, word_cap: int = 16,
                        caps: SizeCaps = DEFAULT_CAPS):
    """Compare dwyer_pushout with presented_pushout via the canonical functor.

    Returns (agree: bool, DwyerPushout, PresentedPushout); raises Inconclusive
    when the oracle does not close.
    """
    po = dwyer_pushout(A, B, C, i, c, w, caps)
    res = presented_pushout(A, B, C, i, c, word_cap, caps)
    D1, D2 = res.category, po.category
    ob_map = {}
    for x in C.objects:
        ob_map[res.leg_from_c.object_map[x]] = po.leg_from_c.object_map[x]
    for b in B.objects:
        ob_map[res.leg_from_b.object_map[b]] = po.leg_from_b.object_map[b]

    def eval_gen(gen):
        tag, m = gen
        return po.leg_from_b.morphism_map[m] if tag == "B" else po.leg_from_c.morphism_map[m]

    mor_map = {}
    for mid in D1.morphism_ids:
        word = res.word_of[mid]
        if not word:
            mor_map[mid] = D2.identity[ob_map[D1.src[mid]]]
        else:
            val = eval_gen(word[0])
            for gen in word[1:]:
                val = D2.compose[(eval_gen(gen), val)]
            mor_map[mid] = val
    F = Functor(D1, D2, ob_map, mor_map)
    return is_isomorphism_functor(F), po, res
