"""Weak-equivalence certification and the G-global toolkit.

Certificates never claim more than they check: a `sufficient` certificate
embeds a validated equivalence witness, a `necessary` one records π₀ and
Smith-invariant agreement up to its dimension cap.

Homotopy fixed points Fun(EH, φ*C)^H are enumerated directly as twisted
equivariant functors (objects determined on orbit representatives), so the
ambient functor category is never materialized.  The arrows from the base
point generate the chaotic E(K), so a functor is tested for fixedness on
them alone, and a transformation between fixed functors on its base
component alone.  The composition table is filled over composable pairs
only, walked through each fixed functor's lists of the functors with a
non-empty hom-set out of it and into it.  `materialized_hofix`, which
builds Fun(EH, C) and takes its fixed subcategory, is kept to cross-check
this on small inputs.

The infinite monoid of injections never appears: everything that would
quantify over its universal subgroups is exposed here as an explicit finite
list of (H, φ) pairs and each report says so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .config import DEFAULT_CAPS, SizeCaps
from .errors import GcatError, SizeCapExceeded
from .fincat import (
    FinCat,
    Functor,
    NatTrans,
    EquivalenceWitness,
    constant_functor,
    discrete_category,
    enumerate_functors,
    find_equivalence,
    functor_category_data,
    identity_functor,
    is_ff_eso,
    is_isomorphism_functor,
    pair_obj,
    postcompose_on_fun,
    precompose_on_fun,
    product_category,
    product_functor,
    terminal_category,
    thin_functor,
    validate_category,
)
from .actions import (
    CellCategory,
    FinGroup,
    MonoidActionCat,
    cell_category,
    chaotic_category,
    check_equivariant,
    check_homomorphism,
    delooping,
    equivariant_retraction,
    fixed_category,
    fixed_functor,
    graph_subgroup,
    pair_key,
    phi_key,
    product_action,
    product_monoid,
    restrict_action,
    subgroup_from_elements,
    trivial_action,
)
from .sset import (
    boundary_complex,
    horn_complex,
    standard_simplex_complex,
    h_sd2_map,
    homology,
    nerve,
    nerve_functor,
    pi0_map,
    pushout_sset,
    ex,
    ex_map,
)
from .dwyer import (
    dwyer_pushout,
    equivariant_dwyer_pushout,
    find_dwyer_witness,
    fun_witness,
    restrict_witness_to_fixed,
)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class WeakEqCertificate:
    """Verdict on a map; `kind` is 'sufficient' (equivalence witness) or
    'necessary' (π₀ bijection + homology agreement up to `cap`)."""

    kind: str
    passed: bool
    cap: Optional[int] = None
    details: dict = field(default_factory=dict)
    witness: Optional[EquivalenceWitness] = None
    per_subgroup: Optional[dict] = None

    def to_doc(self):
        doc = {"kind": self.kind, "passed": bool(self.passed)}
        if self.cap is not None:
            doc["cap"] = self.cap
        if self.details:
            doc["details"] = _plain(self.details)
        if self.per_subgroup is not None:
            doc["per_subgroup"] = {k: v.to_doc() for k, v in sorted(self.per_subgroup.items())}
        return doc


def _plain(v):
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def _invariants_doc(h):
    return [{"betti": b, "torsion": list(t)} for b, t in h]


def homology_certificate(f, cap=3, caps: SizeCaps = DEFAULT_CAPS) -> WeakEqCertificate:
    """Necessary conditions: π₀ bijectivity and equal Smith invariants in
    degrees 0..cap-1.  Functors are nerved first."""
    if isinstance(f, Functor):
        NX = nerve(f.source, cap, caps)
        NY = nerve(f.target, cap, caps)
        f = nerve_functor(f, NX, NY, cap).validate()
    hx = homology(f.source, cap)
    hy = homology(f.target, cap)
    bij, _ = pi0_map(f)
    passed = bij and hx == hy
    return WeakEqCertificate(
        "necessary", passed, cap,
        {"pi0_bijective": bij, "source_homology": _invariants_doc(hx),
         "target_homology": _invariants_doc(hy)})


def equivalence_certificate(F: Functor,
                            caps: SizeCaps = DEFAULT_CAPS) -> Optional[WeakEqCertificate]:
    """Sufficient certificate from exhaustive equivalence search."""
    w = find_equivalence(F, caps)
    if w is None:
        return None
    details = {"isomorphism": is_isomorphism_functor(F)}
    return WeakEqCertificate("sufficient", True, None, details, witness=w)


# ---------------------------------------------------------------------------
# homotopy fixed points via twisted equivariant functors


@dataclass(eq=False)
class HoFixData:
    """Fun(E(K), C)^{Γ_{H,φ}} enumerated directly.

    Objects are functors E(K) -> C fixed under the twisted action, stored as
    (object assignment, coherence isos from the base point); morphisms are
    their base-point components, composed in C.
    """

    category: FinCat
    K: FinGroup
    C: FinCat
    base: str                 # least element of K
    functors: list            # index -> (ob dict, u dict (base,x) -> iso)
    index_of: dict            # canonical encoding -> index
    mor_component: dict       # morphism id -> base component in C

    def object_id(self, idx):
        return f"P{idx:03d}"

    @staticmethod
    def encoding(ob, u):
        """The canonical key of an object (ob, u) in `index_of`."""
        return (tuple(sorted(ob.items())), tuple(sorted(u.items())))

    def functor_from(self, source: FinCat, objects, component) -> Functor:
        """The validated functor source -> this category that sends an object
        x to the fixed functor objects(x) = (ob, u), and a morphism m to the
        transformation with base component component(m)."""
        idx = {x: self.index_of[self.encoding(*objects(x))] for x in source.objects}
        mm = {m: f"t{idx[s]:03d}>{idx[t]:03d}:{component(m)}" for m, s, t in source.morphisms}
        return Functor(source, self.category, {x: self.object_id(i) for x, i in idx.items()},
                       mm).validate()


def twisted_fun_fixed(K: FinGroup, g_action: dict, H: FinGroup, phi: dict,
                      C: FinCat, caps: SizeCaps = DEFAULT_CAPS) -> HoFixData:
    """Fixed points of Fun(E(K), C) under Γ_{H,φ} ⊂ K × G.

    g_action: G-element -> endofunctor of C (the action through which φ acts);
    H must be a subgroup of K, which is checked unless H is K, and φ: H -> G
    a homomorphism (as a dict).

    (h, φh) sends F to act(φh)∘F∘(− · h), so a fixed F has
    F(x·h) = act(φh)⁻¹ F(x) and is chosen on the first element of each right
    H-orbit; then F(b -> y) is chosen among the isos for the base b and each
    other y.  Those arrows generate E(K), so F is fixed once
    act(φh) F(b·h -> y·h) = F(b -> y) for every h and y.  A transformation η
    between fixed functors is determined by η_b, so it is fixed once
    act(φh) η_{b·h} = η_b for every h.  The cap counts the nodes of a
    depth-first search over the isos, 1 + n₁ + n₁n₂ + … per object choice.

    C's inverses are read from `FinCat.inverses`, built once per category;
    its iso hom-sets and the orbit cells (x·h, act(φh)⁻¹) are built once,
    before the search.  The composition table is filled by
    walking the composable pairs a -> b -> c only: for each fixed functor b,
    the ascending lists of the c with a non-empty hom-set b -> c and of the
    a with a non-empty a -> b, in (b, c, a) order.
    """
    if H is not K:
        subgroup_from_elements(K, H.elements)
    base = min(K.elements)
    compose, identity, inv = C.compose, C.identity, C.inverses
    iso_hom = {}
    for m in inv:
        iso_hom.setdefault((C.src[m], C.dst[m]), []).append(m)
    act = {h: g_action[phi[h]].morphism_map for h in H.elements}
    undo = {h: {g_action[phi[h]].object_map[o]: o for o in C.objects}    # act(φh)⁻¹
            for h in H.elements}
    free = [x for x in K.elements if x != base]
    keys = [(base, x) for x in (base, *free)]
    at = {x: k for k, (_, x) in enumerate(keys)}        # y -> its position in u's values
    shift = [(act[h], at[K.mul(base, h)], [(at[y], at[K.mul(y, h)]) for y in K.elements])
             for h in H.elements]
    cells, seen = [], set()   # per orbit representative x: (x·h, act(φh)⁻¹) for each h
    for x in K.elements:
        if x not in seen:
            cells.append([(K.mul(x, h), undo[h]) for h in H.elements])
            seen.update(xh for xh, _ in cells[-1])

    found, nodes = [], 0
    for choice in itertools.product(C.objects, repeat=len(cells)):
        ob = {xh: und[c] for row, c in zip(cells, choice) for xh, und in row}
        b0 = ob[base]
        homs = [iso_hom.get((b0, ob[x]), ()) for x in free]
        width = 1
        nodes += 1
        for hom in homs:
            width *= len(hom)
            nodes += width
        if nodes > caps.max_candidates:
            raise SizeCapExceeded("twisted functor enumeration", caps.max_candidates + 1,
                                  caps.max_candidates)
        for ms in itertools.product(*homs):
            us = (identity[b0], *ms)
            if all(act_h[compose[(us[yh], inv[us[bh]])]] == us[y]
                   for act_h, bh, ys in shift for y, yh in ys):
                u = dict(zip(keys, us))
                found.append((HoFixData.encoding(ob, u), ob, u))

    found.sort(key=lambda e: e[0])
    if len(found) > caps.max_objects:
        raise SizeCapExceeded("homotopy-fixed-point objects", len(found), caps.max_objects)
    functors = [(ob, u) for _, ob, u in found]
    index_of = {enc: idx for idx, (enc, _, _) in enumerate(found)}
    acts = [act_h for act_h, _, _ in shift]
    legs = [(ob[base], [u[keys[bh]] for _, bh, _ in shift])    # (F(b), F(b -> b·h) for each h)
            for ob, u in functors]
    reach = {oa: [b for b, (ob_b, _) in enumerate(legs) if C.hom(oa, ob_b)]
             for oa in {oa for oa, _ in legs}}   # ascending b with C(oa, b's base object) ≠ ∅
    hom_table, outs, ins = {}, [[] for _ in functors], [[] for _ in functors]
    morphisms, mor_component = [], {}
    for a, (oa, ua) in enumerate(legs):
        backs = [inv[m] for m in ua]
        for b in reach[oa]:
            ob_b, ub = legs[b]
            hom = [(f"t{a:03d}>{b:03d}:{eta0}", eta0) for eta0 in C.hom(oa, ob_b)
                   if all(act_h[compose[(compose[(v, eta0)], back)]] == eta0
                          for act_h, v, back in zip(acts, ub, backs))]
            if hom:
                hom_table[(a, b)] = hom
                outs[a].append(b)
                ins[b].append(a)
                for mid, eta0 in hom:
                    morphisms.append((mid, f"P{a:03d}", f"P{b:03d}"))
                    mor_component[mid] = eta0
                if len(morphisms) > caps.max_morphisms:
                    raise SizeCapExceeded("homotopy-fixed-point morphisms", len(morphisms),
                                          caps.max_morphisms)
    identity_ids = {f"P{a:03d}": f"t{a:03d}>{a:03d}:{identity[oa]}"
                    for a, (oa, _) in enumerate(legs)}
    table = {}
    for b, cs in enumerate(outs):
        for c in cs:
            for a in ins[b]:
                prefix = f"t{a:03d}>{c:03d}:"
                for beta, eta_beta in hom_table[(b, c)]:
                    for alpha, eta_alpha in hom_table[(a, b)]:
                        table[(beta, alpha)] = prefix + compose[(eta_beta, eta_alpha)]
    cat = validate_category(list(identity_ids), morphisms, identity_ids, table, caps)
    return HoFixData(cat, K, C, base, functors, index_of, mor_component)


def homotopy_fixed_points(act_C: MonoidActionCat, H: FinGroup, phi: dict,
                          caps: SizeCaps = DEFAULT_CAPS) -> HoFixData:
    """Fun(EH, φ*C)^H for a G-category C; H acts on EH by right translation
    and on C through φ."""
    check_homomorphism(H, act_C.monoid, phi)
    g_action = {g: act_C.act[g] for g in act_C.monoid.elements}
    return twisted_fun_fixed(H, g_action, H, phi, act_C.carrier, caps)


def hofix_functor(F: Functor, src: HoFixData, dst: HoFixData) -> Functor:
    """The induced functor on homotopy fixed points (postcomposition by F)."""
    fixed = {src.object_id(idx): obu for idx, obu in enumerate(src.functors)}
    return dst.functor_from(
        src.category,
        lambda x: ({k: F.object_map[v] for k, v in fixed[x][0].items()},
                   {k: F.morphism_map[v] for k, v in fixed[x][1].items()}),
        lambda m: F.morphism_map[src.mor_component[m]])


def _act_on_fun(data, K: FinGroup, h, post: Functor) -> Functor:
    """The endofunctor of Fun(E(K), C) by which (h, g) acts: precompose with
    the right translation x ↦ x·h of E(K), postcompose with `post`, the
    action of g on C."""
    translate = thin_functor(data.source, data.source, {x: K.mul(x, h) for x in K.elements})
    return precompose_on_fun(data, data, translate).then(postcompose_on_fun(data, data, post))


def materialized_hofix(act_C: MonoidActionCat, H: FinGroup, phi: dict,
                       caps: SizeCaps = DEFAULT_CAPS) -> FinCat:
    """Cross-check route: materialize Fun(EH, C) and take Γ-fixed points."""
    EH = chaotic_category(H.elements)
    data = functor_category_data(EH, act_C.carrier, caps)
    gamma = graph_subgroup(H, phi, act_C.monoid)
    act = {gamma.pair(h): _act_on_fun(data, H, h, act_C.act[phi[h]]) for h in H.elements}
    action = MonoidActionCat(gamma.group, data.cat, act).validate()
    return fixed_category(action, gamma.group)


def g_global_we(F: Functor, act_C: MonoidActionCat, act_D: MonoidActionCat,
                pairs, cap=3, caps: SizeCaps = DEFAULT_CAPS) -> WeakEqCertificate:
    """Homology certificates of f^{'h'φ} for each supplied (H, φ) pair.

    The idealized notion quantifies over universal subgroups of an infinite
    monoid of injections; this check covers exactly the supplied finite list,
    nothing more.
    """
    check_equivariant(F, act_C, act_D)
    table = {}
    for H, phi in pairs:
        src = homotopy_fixed_points(act_C, H, phi, caps)
        dst = homotopy_fixed_points(act_D, H, phi, caps)
        FH = hofix_functor(F, src, dst)
        table[pair_key(H, phi)] = homology_certificate(FH, cap, caps)
    passed = all(c.passed for c in table.values())
    return WeakEqCertificate("necessary", passed, cap,
                             {"scope": "supplied (H, phi) pairs only",
                              "pairs_checked": len(table)},
                             per_subgroup=table)


# ---------------------------------------------------------------------------
# the restriction comparison (finite avatar of the reduction to EH)


@dataclass
class RestrictionComparison:
    restriction: Functor
    certificate: WeakEqCertificate
    per_phi: dict


def restriction_comparison(C: FinCat, H: FinGroup, Hp: FinGroup,
                           g_act: Optional[MonoidActionCat] = None,
                           phis=None, caps: SizeCaps = DEFAULT_CAPS) -> RestrictionComparison:
    """Fun(E(H′), C) -> Fun(EH, C) with a sufficient equivariant certificate.

    The quasi-inverse precomposes with E(r) for the equivariant retraction
    r: H′ -> H of the free right H-action; the natural isomorphisms are the
    unique chaotic comparisons.  With `phis`, also certifies the induced map
    on Γ_{H,φ}-fixed points for each φ.
    """
    subgroup_from_elements(Hp, H.elements)
    EH = chaotic_category(H.elements)
    EHp = chaotic_category(Hp.elements)
    dBig = functor_category_data(EHp, C, caps)
    dSmall = functor_category_data(EH, C, caps)
    incl = thin_functor(EH, EHp, {h: h for h in H.elements})
    rho = precompose_on_fun(dBig, dSmall, incl)
    r_map = equivariant_retraction(H, Hp.elements, lambda s, h: Hp.mul(s, h))
    Er = thin_functor(EHp, EH, r_map)
    Q = precompose_on_fun(dSmall, dBig, Er)

    def unit_component(i, F):
        # F => F∘E(i∘r): apply F to the unique morphism x -> i(r(x))
        comp = {x: F.morphism_map[EHp.hom(x, r_map[x])[0]] for x in Hp.elements}
        tgt = Er.then(incl).then(F)
        return dBig.trans_id(i, dBig.index_of[tgt.signature()], comp)

    def counit_component(i, P):
        comp = {x: P.morphism_map[EH.hom(r_map[x], x)[0]] for x in H.elements}
        src = incl.then(Er).then(P)
        return dSmall.trans_id(dSmall.index_of[src.signature()], i, comp)

    unit = NatTrans(identity_functor(dBig.cat), rho.then(Q),
                    {f"F{i:03d}": unit_component(i, F) for i, F in enumerate(dBig.functors)})
    counit = NatTrans(Q.then(rho), identity_functor(dSmall.cat),
                      {f"F{i:03d}": counit_component(i, P) for i, P in enumerate(dSmall.functors)})
    witness = EquivalenceWitness(rho, Q, unit, counit).validate()

    # equivariance of the witness for the (H × G)-action
    G = g_act.monoid if g_act is not None else None
    HxG = product_monoid(H, G) if G is not None else H

    def fun_action(data, K):
        if G is None:
            acts = {h: _act_on_fun(data, K, h, identity_functor(C)) for h in H.elements}
            return MonoidActionCat(H, data.cat, acts).validate()
        acts = {pair_obj(h, g): _act_on_fun(data, K, h, g_act.act[g])
                for h in H.elements for g in G.elements}
        return MonoidActionCat(HxG, data.cat, acts).validate()

    act_big = fun_action(dBig, Hp)
    act_small = fun_action(dSmall, H)
    check_equivariant(rho, act_big, act_small)
    check_equivariant(Q, act_small, act_big)
    cert = WeakEqCertificate("sufficient", True, None,
                             {"isomorphism": is_isomorphism_functor(rho)}, witness=witness)

    per_phi = {}
    if phis:
        for phi in phis:
            gamma = graph_subgroup(H, phi, G)
            rho_fixed = fixed_functor(rho, act_big, act_small, gamma.group)
            per_phi[phi_key(phi)] = equivalence_certificate(rho_fixed, caps=caps)
    return RestrictionComparison(rho, cert, per_phi)


# ---------------------------------------------------------------------------
# saturation


@dataclass
class SaturationAvatar:
    """An (E(H′) × G)-category avatar: discrete (H′×G)-action plus, when it
    exists, the coherence data for the unit into Fun(E(H′), forget −)."""

    Hp: FinGroup
    G: FinGroup
    action: MonoidActionCat        # action of H′ × G on the carrier
    coherence: Optional[dict]      # (k1, k2) -> {object -> morphism}, or None
    label: str = ""


def poset_avatar(P: FinCat, Hp: FinGroup, G: FinGroup) -> SaturationAvatar:
    return SaturationAvatar(Hp, G, trivial_action(product_monoid(Hp, G), P),
                            {(k1, k2): {x: P.identity[x] for x in P.objects}
                             for k1 in Hp.elements for k2 in Hp.elements},
                            label="poset-trivial")


def cell_avatar(cell: CellCategory) -> SaturationAvatar:
    return SaturationAvatar(cell.K, cell.G, cell.kg_action, cell.coherence,
                            label="cell")


def _find_any_equivalence(C1: FinCat, C2: FinCat, caps: SizeCaps) -> bool:
    if C1.n_objects() == 0 or C2.n_objects() == 0:
        return C1.n_objects() == C2.n_objects()
    for F in enumerate_functors(C1, C2, caps):
        if is_ff_eso(F):
            return True
    return False


def saturation_check(avatar: SaturationAvatar, pairs, caps: SizeCaps = DEFAULT_CAPS) -> dict:
    """Check the unit into Fun(E(H′), forget −) on φ-fixed points per pair.

    pairs: list of (H subgroup of H′, φ: H -> G dict).  With coherence data the
    unit η is built explicitly and certified; without it, only the abstract
    comparison of the two fixed-point categories is possible and the verdict
    says so (mode 'abstract-comparison').
    """
    Hp, G = avatar.Hp, avatar.G
    C = avatar.action.carrier
    g_action = {g: avatar.action.act[pair_obj(Hp.unit, g)] for g in G.elements}
    per_pair = {}
    for H, phi in pairs:
        gamma = graph_subgroup(H, phi, G)
        c_fixed = fixed_category(avatar.action, gamma.group)
        fun_fixed = twisted_fun_fixed(Hp, g_action, H, phi, C, caps)
        key = pair_key(H, phi)
        if avatar.coherence is None:
            equivalent = _find_any_equivalence(c_fixed, fun_fixed.category, caps)
            per_pair[key] = {"mode": "abstract-comparison", "passed": equivalent,
                             "kind": "none" if not equivalent else "abstract"}
            continue
        base = fun_fixed.base
        eta = fun_fixed.functor_from(
            c_fixed,
            lambda x: ({k: avatar.action.ob(pair_obj(k, G.unit), x) for k in Hp.elements},
                       {(base, k): avatar.coherence[(base, k)][x] for k in Hp.elements}),
            avatar.action.act[pair_obj(base, G.unit)].morphism_map.__getitem__)
        cert = equivalence_certificate(eta, caps=caps)
        if cert is None:
            per_pair[key] = {"mode": "eta", "passed": False, "kind": "none"}
        else:
            kind = "isomorphism" if cert.details.get("isomorphism") else "equivalence"
            per_pair[key] = {"mode": "eta", "passed": True, "kind": kind}
    return {
        "pairs": per_pair,
        "all_passed": all(v["passed"] for v in per_pair.values()),
        "scope": ("finite avatar: E(H') stands in for the chaotic category on an "
                  "infinite monoid; pairs needing intertwiners outside H' can fail "
                  "for size reasons alone"),
    }


# ---------------------------------------------------------------------------
# generating-cofibration families


#: the model tags `generating_maps` knows
GENERATOR_MODELS = ("thomason", "global", "f_model", "g_global_thin", "g_global_thick_avatar",
                    "g_homotopy_fp", "g_homotopy_fp_thick")


@dataclass
class GeneratorSpec:
    model: str               # one of GENERATOR_MODELS
    n: int
    k: Optional[int] = None  # horn index; None means boundary inclusion
    acyclic: bool = False
    params: dict = field(default_factory=dict)

    def validate(self):
        if self.acyclic:
            if self.k is None or not (0 <= self.k <= self.n) or self.n < 1:
                raise GcatError("acyclic generators need 1 <= n and 0 <= k <= n")
        elif self.k is not None:
            raise GcatError("a horn index k needs acyclic generators")
        elif self.n < 0:
            raise GcatError("n must be >= 0")
        return self


@dataclass
class GeneratedMap:
    """A generating map and the actions on its ends: of `group` for the
    G-models, of the monoid M for f_model, whose `group` is None."""

    name: str
    functor: Functor
    group: Optional[FinGroup] = None
    act_src: Optional[MonoidActionCat] = None
    act_dst: Optional[MonoidActionCat] = None

    @property
    def equivariance(self):
        """(group, act_src, act_dst) for `find_dwyer_witness`, or None without a group."""
        return None if self.group is None else (self.group, self.act_src, self.act_dst)


def _core_inclusion(spec: GeneratorSpec, caps: SizeCaps):
    if spec.acyclic:
        K, tag = horn_complex(spec.n, spec.k), f"hSd2(L{spec.n}_{spec.k} -> D{spec.n})"
    else:
        K, tag = boundary_complex(spec.n), f"hSd2(bD{spec.n} -> D{spec.n})"
    return h_sd2_map(K, standard_simplex_complex(spec.n), caps), tag


def _times(X: FinCat, m: Functor, caps: SizeCaps) -> Functor:
    """The validated id_X × m : X × m.source -> X × m.target."""
    return product_functor(identity_functor(X), m, product_category(X, m.source, caps),
                           product_category(X, m.target, caps)).validate()


def generating_maps(spec: GeneratorSpec, caps: SizeCaps = DEFAULT_CAPS) -> GeneratedMap:
    """Emit one generating (acyclic) cofibration for the requested model."""
    spec.validate()
    m, tag = _core_inclusion(spec, caps)
    model, params = spec.model, spec.params

    def acted(act_X: MonoidActionCat, group=None) -> GeneratedMap:
        """id_X × m for X the carrier of act_X, which acts on X and trivially on m's ends."""
        M = act_X.monoid
        return GeneratedMap(f"{model}:{tag}", _times(act_X.carrier, m, caps), group,
                            product_action(act_X, trivial_action(M, m.source), caps),
                            product_action(act_X, trivial_action(M, m.target), caps))

    if model == "thomason":
        return GeneratedMap(f"thomason:{tag}", m.validate())
    if model == "global":
        H = params["H"]
        return GeneratedMap(f"global[BH={'/'.join(H.elements)}]:{tag}",
                            _times(delooping(H), m, caps))
    if model == "f_model":
        M, H = params["M"], params["H"]
        els = sorted({min(M.mul(x, h) for h in H.elements) for x in M.elements})
        MH = discrete_category(els)

        def coset_act(mm):
            return thin_functor(MH, MH, {x: min(M.mul(M.mul(mm, x), h) for h in H.elements)
                                         for x in els})

        return acted(MonoidActionCat(M, MH, {mm: coset_act(mm) for mm in M.elements}).validate())
    if model in ("g_global_thin", "g_global_thick_avatar", "g_homotopy_fp", "g_homotopy_fp_thick"):
        # the cell (E(K) × G)/Γ_{H,φ}: K is H, H′, H or G, and φ is given or the inclusion
        G, H = params["G"], params["H"]
        K = params[{"g_global_thick_avatar": "Hp", "g_homotopy_fp_thick": "G"}.get(model, "H")]
        phi = params["phi"] if model.startswith("g_global") else {h: h for h in H.elements}
        return acted(cell_category(K, G, H, phi, caps).g_action, G)
    raise GcatError(f"unknown model tag {model!r}")


# ---------------------------------------------------------------------------
# transfer-criterion hypothesis harness


def _nerve_homology_pair(C1: FinCat, C2: FinCat, cap, caps):
    h1 = homology(nerve(C1, cap, caps), cap)
    h2 = homology(nerve(C2, cap, caps), cap)
    return h1, h2


def check_transfer_conditions(gens_I, gens_J, U, cap=3, caps: SizeCaps = DEFAULT_CAPS) -> dict:
    """Desk-scale checks of the transfer hypotheses for a right adjoint
    avatar U.

    U is a tag: ("identity",), ("fun_e", H') for Fun(E(H′), −),
    ("fixed", H) for H-fixed points, or ("ex2_nerve",).  gens_I / gens_J are
    GeneratedMap lists (cofibrations / acyclic cofibrations).

    Condition 1 (U of each acyclic generator is a weak equivalence) is
    certified by homology.  Condition 2 (pushouts along generators go to
    homotopy pushouts) needs a Dwyer witness for each generator and compares
    U(pushout) with the pushout of the U-images: for `fixed`, D^H and the
    Dwyer pushout of the fixed points must be the same tables, so the
    comparison map is the identity, exact in every degree with no cap; for
    `fun_e` and `ex2_nerve`, their homology must agree below the cap.
    Comparisons that cannot fail are not run; `not_checked` names them with
    the reason: condition 3 (filtered colimits) always, so `condition3` is an
    empty list, and condition 2's comparison when U is the identity, which
    leaves the Dwyer-witness verdict.
    """
    not_checked = {"condition3": "a finite ascending chain has its colimit at its top, "
                                 "so the comparison map is an identity and cannot fail"}
    if U[0] == "identity":
        not_checked["condition2"] = ("U is the identity, so U(pushout) is the pushout of the "
                                     "U-images; only the Dwyer-witness verdict is reported")
    report = {"U": U[0], "condition1": [], "condition2": [], "condition3": [],
              "not_checked": not_checked, "scope": "supplied generators only"}
    ex_cap = min(cap, 2)

    def ex2_nerve(cat):
        """N(cat), Ex N(cat) and Ex² N(cat), at ex_cap."""
        N = nerve(cat, ex_cap, caps)
        e1 = ex(N, ex_cap, caps)
        return N, e1, ex(e1.sset, ex_cap, caps)

    def ex2_nerve_map(F: Functor):
        NX, e1s, e2s = ex2_nerve(F.source)
        NY, e1t, e2t = ex2_nerve(F.target)
        return ex_map(ex_map(nerve_functor(F, NX, NY, ex_cap), e1s, e1t), e2s, e2t)

    def apply_U_functor(gm: GeneratedMap):
        F = gm.functor
        if U[0] == "identity":
            return F
        if U[0] == "fun_e":
            EHp = chaotic_category(U[1].elements)
            dS = functor_category_data(EHp, F.source, caps)
            dT = functor_category_data(EHp, F.target, caps)
            return postcompose_on_fun(dS, dT, F).validate()
        if U[0] == "fixed":
            H = U[1]
            return fixed_functor(F, restrict_action(gm.act_src, H), restrict_action(gm.act_dst, H), H)
        if U[0] == "ex2_nerve":
            return ex2_nerve_map(F).validate()
        raise GcatError(f"unknown U tag {U[0]!r}")

    # (1) UFj is a weak equivalence, certified by homology
    for gm in gens_J:
        Uj = apply_U_functor(gm)
        cert = homology_certificate(Uj, cap if isinstance(Uj, Functor) else ex_cap, caps)
        report["condition1"].append({"generator": gm.name, "passed": cert.passed,
                                     "certificate": cert.to_doc()})

    # (2) pushouts along Fi go to homotopy pushouts; proxy = pushout of
    # U-images along the (underlying-injective) transported leg
    one = terminal_category()
    for gm in gens_I:
        F = gm.functor
        collapse = constant_functor(F.source, one, "*").validate()
        w = find_dwyer_witness(F, gm.equivariance)
        if w is None:
            reason = "no Dwyer witness" if gm.group is None else "no equivariant Dwyer witness"
            report["condition2"].append({"generator": gm.name, "passed": False, "reason": reason})
            continue
        if gm.group is None:
            act_D, po = None, dwyer_pushout(F.source, F.target, one, F, collapse, w, caps)
        else:
            pt = trivial_action(gm.group, one)
            act_D, po = equivariant_dwyer_pushout(gm.act_src, gm.act_dst, pt, F, collapse, w, caps)
        D = po.category
        if U[0] == "identity":
            report["condition2"].append({"generator": gm.name, "passed": True})
        elif U[0] == "fun_e":
            EHp = chaotic_category(U[1].elements)
            w2, data = fun_witness(EHp, w, caps)
            dC = functor_category_data(EHp, one, caps)
            collapse2 = postcompose_on_fun(data["A"], dC, collapse).validate()
            po2 = dwyer_pushout(data["A"].cat, data["B"].cat, dC.cat, w2.i, collapse2, w2, caps)
            dD = functor_category_data(EHp, D, caps)
            h1, h2 = _nerve_homology_pair(dD.cat, po2.category, cap, caps)
            report["condition2"].append({"generator": gm.name, "passed": h1 == h2,
                                         "U_pushout_homology": _invariants_doc(h1),
                                         "proxy_homology": _invariants_doc(h2)})
        elif U[0] == "fixed":
            H = U[1]
            wH = restrict_witness_to_fixed(w, H)
            DH = fixed_category(restrict_action(act_D, H), H)
            CH = fixed_category(restrict_action(pt, H), H)
            cH = constant_functor(wH.i.source, CH, "*").validate()
            P = dwyer_pushout(wH.i.source, wH.i.target, CH, wH.i, cH, wH, caps).category
            same = ((DH.objects, DH.morphisms, DH.identity, DH.compose)
                    == (P.objects, P.morphisms, P.identity, P.compose))
            report["condition2"].append({"generator": gm.name, "passed": same})
        elif U[0] == "ex2_nerve":
            P, _, _ = pushout_sset(ex2_nerve_map(F), ex2_nerve_map(collapse), caps)
            h1 = homology(ex2_nerve(D)[2].sset, ex_cap)
            h2 = homology(P, ex_cap)
            report["condition2"].append({"generator": gm.name, "passed": h1 == h2})

    report["all_passed"] = all(e["passed"] for key in ("condition1", "condition2", "condition3")
                               for e in report[key])
    return report
