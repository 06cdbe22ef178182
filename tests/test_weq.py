"""Certificates, homotopy fixed points, saturation, generators, transfer."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import gcat

from gcat import serialize as ser
from gcat.config import WIDE_CAPS, SizeCaps
from gcat.corpus import dwyer_span_corpus, named_group
from gcat.errors import GcatError, SizeCapExceeded
from gcat.fincat import (
    FinCat,
    Functor,
    NatTrans,
    arrow_category,
    chain_poset,
    discrete_category,
    find_isomorphism,
    functor_category_data,
    identity_functor,
    inclusion_functor,
    pair_obj,
    poset_from_relation,
    product_category,
    terminal_category,
)
from gcat.actions import (
    MonoidActionCat,
    cell_category,
    chaotic_action,
    chaotic_category,
    check_equivariant,
    cyclic_group,
    delooping,
    fixed_functor,
    homomorphisms,
    product_action,
    product_monoid,
    subgroup_from_elements,
    subgroup_key,
    subgroups,
    symmetric_group,
    translation_action,
    trivial_action,
    trivial_group,
)
from gcat.sset import (
    boundary_complex,
    complex_inclusion,
    standard_simplex_complex,
)
from gcat.dwyer import (
    dwyer_pushout,
    equivariant_dwyer_pushout,
    find_dwyer_witness,
    fun_witness,
    is_sieve,
)
from gcat.weq import (
    GENERATOR_MODELS,
    GeneratedMap,
    GeneratorSpec,
    cell_avatar,
    check_transfer_conditions,
    equivalence_certificate,
    g_global_we,
    generating_maps,
    homology_certificate,
    homotopy_fixed_points,
    materialized_hofix,
    poset_avatar,
    restriction_comparison,
    saturation_check,
    SaturationAvatar,
    WeakEqCertificate,
    twisted_fun_fixed,
)

from helpers import monoid_dwyer_check, zero_monoid


Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
PHI_ID = {g: g for g in Z2.elements}

#: `hofix_digest` as the enumeration that tested every arrow of E(K) and
#: every component of a transformation computed it
HOFIX_DIGEST = "9ea92a32b4721837c3de67161c901e2bfcdba274950cad75f882c6eab1406d50"


def collapse_to_point(C):
    one = terminal_category()
    return Functor(C, one, {x: "*" for x in C.objects},
                   {m: "id*" for m in C.morphism_ids}).validate()


def swap_action():
    return chaotic_action(Z2, {"c0": {"a": "a", "b": "b"}, "c1": {"a": "b", "b": "a"}})


# -- certificates -------------------------------------------------------------


def test_homology_certificate_identity_and_contractible():
    arrow = arrow_category()
    assert homology_certificate(identity_functor(arrow), 3).passed
    E2 = chaotic_category(["a", "b"])
    assert homology_certificate(collapse_to_point(E2), 3).passed


def test_homology_certificate_above_the_cap_of_its_map_is_refused():
    inc = complex_inclusion(boundary_complex(2), standard_simplex_complex(2), 2)
    assert homology_certificate(inc, 2).cap == 2
    with pytest.raises(GcatError):
        homology_certificate(inc, 3)


def test_homology_certificate_detects_sphere():
    inc = complex_inclusion(boundary_complex(2), standard_simplex_complex(2))
    cert = homology_certificate(inc, 3)
    assert not cert.passed
    assert cert.details["source_homology"][1] != cert.details["target_homology"][1]


def test_certificate_kinds_are_distinguished():
    arrow = arrow_category()
    F = collapse_to_point(arrow)
    assert equivalence_certificate(F) is None      # not an equivalence
    assert homology_certificate(F, 3).passed       # but a weak homotopy equivalence


def test_sufficient_implies_necessary():
    # whenever both are computed, a sufficient certificate forces the necessary one
    cases = [identity_functor(arrow_category()),
             collapse_to_point(chaotic_category(["a", "b"]))]
    for F in cases:
        suff = equivalence_certificate(F)
        if suff is not None:
            assert homology_certificate(F, 3).passed


def f_weak_equivalence(F, act_C, act_D, family, cap):
    """Per-subgroup homology certificates for F^H, H in the family: the
    fixed-point side of the paper's proper G-equivariant weak equivalences."""
    check_equivariant(F, act_C, act_D)
    table = {subgroup_key(H): homology_certificate(fixed_functor(F, act_C, act_D, H), cap)
             for H in family}
    return WeakEqCertificate("necessary", all(c.passed for c in table.values()), cap,
                             {"family_size": len(table)}, per_subgroup=table)


def test_f_weak_equivalence_swap_fails_on_fixed_points():
    sw = swap_action()
    one_act = trivial_action(Z2, terminal_category())
    F = collapse_to_point(sw.carrier)
    triv = subgroup_from_elements(Z2, ["c0"])
    cert = f_weak_equivalence(F, sw, one_act, [triv, Z2], 3)
    assert not cert.passed
    table = cert.per_subgroup
    assert table["{c0}"].passed                    # underlying passes
    assert not table["{c0,c1}"].passed             # fixed points: ∅ vs point


def test_f_weak_equivalence_trivial_family():
    arrow = arrow_category()
    act = trivial_action(Z2, arrow)
    cert = f_weak_equivalence(identity_functor(arrow), act, act,
                              [subgroup_from_elements(Z2, ["c0"])], 3)
    assert cert.passed


# -- homotopy fixed points ------------------------------------------------------


def test_hofix_trivial_group_returns_carrier():
    arrow = arrow_category()
    triv = trivial_group()
    hd = homotopy_fixed_points(trivial_action(triv, arrow), triv, {"e": "e"})
    assert find_isomorphism(hd.category, arrow) is not None


def test_hofix_poset_trivial_action_is_isomorphic():
    arrow = arrow_category()
    hd = homotopy_fixed_points(trivial_action(Z2, arrow), Z2, PHI_ID)
    assert find_isomorphism(hd.category, arrow) is not None


def test_hofix_translation_contractible_two_objects():
    tr = translation_action(Z2)
    hd = homotopy_fixed_points(tr, Z2, PHI_ID)
    assert hd.category.n_objects() == 2
    for x in hd.category.objects:
        for y in hd.category.objects:
            assert len(hd.category.hom(x, y)) == 1


def test_hofix_matches_materialized_route():
    for act in (translation_action(Z2), trivial_action(Z2, arrow_category()), swap_action()):
        a = homotopy_fixed_points(act, Z2, PHI_ID).category
        b = materialized_hofix(act, Z2, PHI_ID)
        assert (a.n_objects(), a.n_morphisms()) == (b.n_objects(), b.n_morphisms())
        if a.n_objects():
            assert find_isomorphism(a, b) is not None


def hofix_carriers(G):
    """G-actions on carriers with nontrivial automorphism groups: trivial on
    BZ2 and BZ3; for |G| <= 3 by translation on E(G) × BZ2; for G = Z2 also
    by inversion on BZ3."""
    BZ2, BZ3 = delooping(Z2), delooping(Z3)
    out = [trivial_action(G, BZ2), trivial_action(G, BZ3)]
    if len(G.elements) <= 3:
        out.append(product_action(translation_action(G), trivial_action(G, BZ2)))
    if G.elements == Z2.elements:
        flip = Functor(BZ3, BZ3, {"*": "*"}, {"c0": "c0", "c1": "c2", "c2": "c1"})
        out.append(MonoidActionCat(Z2, BZ3, {"c0": identity_functor(BZ3), "c1": flip}).validate())
    return out


def hofix_computations():
    """Every (H, φ) over both actions of a few Dwyer spans (the pushout's and
    B's) and over `hofix_carriers`, for four groups G, then twisted fixed
    points of Fun(E(K), C) for K larger than H."""
    carriers = {}
    for group, count in (("1", 4), ("Z2", 4), ("Z3", 3), ("S3", 1)):
        G = named_group(group)
        pairs = [(H, phi) for H in subgroups(G) for phi in homomorphisms(H, G)]
        acts = []
        for seed in (10, 20, 30):
            for span in dwyer_span_corpus(seed, count, group):
                actD, _ = equivariant_dwyer_pushout(span.act_A, span.act_B, span.act_C,
                                                    span.i, span.c, span.witness)
                acts += [actD, span.act_B]
        carriers[group] = acts[:2] + hofix_carriers(G)
        for act in acts + hofix_carriers(G):
            for H, phi in pairs:
                yield lambda act=act, H=H, phi=phi: homotopy_fixed_points(act, H, phi)
    for K, order in ((symmetric_group(3), 2), (Z4, 2), (symmetric_group(3), 3)):
        H = next(S for S in subgroups(K) if len(S.elements) == order)
        for group in ("Z2", "Z3"):
            for act in carriers[group]:
                g_action = {g: act.act[g] for g in act.monoid.elements}
                for phi in homomorphisms(H, act.monoid):
                    yield lambda K=K, H=H, phi=phi, g_action=g_action, C=act.carrier: \
                        twisted_fun_fixed(K, g_action, H, phi, C)


def hofix_digest():
    """sha256 over `hofix_computations` of each category's document, its
    compose order, `functors`, `index_of` and `mor_component`, or the text of
    the error raised."""
    h = hashlib.sha256()
    for compute in hofix_computations():
        try:
            d = compute()
        except GcatError as exc:
            h.update(json.dumps([type(exc).__name__, str(exc)]).encode())
            continue
        h.update(json.dumps([d.category.to_doc(), list(d.category.compose.items()),
                             [[list(ob.items()), list(u.items())] for ob, u in d.functors],
                             list(d.index_of.items()), list(d.mor_component.items())]).encode())
    return h.hexdigest()


def test_hofix_reports_match_the_pinned_digest():
    # the same categories, functors and errors, under three hash seeds
    path = os.pathsep.join([str(Path(gcat.__file__).resolve().parents[1]), str(Path(__file__).parent)])
    code = "import test_weq; print(test_weq.hofix_digest())"
    procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
             for seed in ("0", "1", "2")]
    digests = [proc.communicate(timeout=120)[0].strip() for proc in procs]
    assert digests == [HOFIX_DIGEST] * 3


def test_validated_categories_hand_over_the_tables_they_build(monkeypatch):
    """Every category built by `hofix_computations`, whose spans come from
    `dwyer_span_corpus` for four groups, carries the src, dst and hom tables
    that a plain FinCat builds for itself from its morphisms, whether
    `validate_category` handed them over or not."""
    built = []
    post_init = FinCat.__post_init__

    def recorded(self):
        built.append((self, self.src is not None))
        post_init(self)

    monkeypatch.setattr(FinCat, "__post_init__", recorded)
    for compute in hofix_computations():
        try:
            compute()
        except GcatError:
            pass
    monkeypatch.undo()
    assert 0 < sum(handed for _, handed in built) < len(built)
    for cat, _ in built:
        plain = FinCat(cat.objects, cat.morphisms, cat.identity, cat.compose)
        assert (cat.src, cat.dst, cat._hom) == (plain.src, plain.dst, plain._hom)


def test_twisted_node_cap_counts_a_depth_first_search():
    """The cap counts 1 + n₁ + n₁n₂ + … nodes per object assignment, n_k the
    number of isos from the base to the k-th other element of K: here 8
    assignments of E(S3) into two copies of BZ2, with n_k 0 or 2."""
    C = product_category(discrete_category(["p", "q"]), delooping(Z2))
    S3 = symmetric_group(3)
    H = subgroup_from_elements(S3, ["s012", "s102"])
    args = (S3, trivial_action(Z2, C).act, H, {"s012": "c0", "s102": "c1"}, C)
    with pytest.raises(SizeCapExceeded, match=r"^twisted functor enumeration: 144 exceeds cap 143$"):
        twisted_fun_fixed(*args, SizeCaps(max_candidates=143))
    assert len(twisted_fun_fixed(*args, SizeCaps(max_candidates=144)).functors) == 16


def test_hofix_preserves_products_and_terminal():
    one = terminal_category()
    hd_one = homotopy_fixed_points(trivial_action(Z2, one), Z2, PHI_ID)
    assert hd_one.category.n_objects() == 1 and hd_one.category.n_morphisms() == 1
    sw = swap_action()
    arrow_act = trivial_action(Z2, arrow_category())
    from gcat.actions import product_action
    prod = product_action(sw, arrow_act)
    lhs = homotopy_fixed_points(prod, Z2, PHI_ID).category
    a = homotopy_fixed_points(sw, Z2, PHI_ID).category
    b = homotopy_fixed_points(arrow_act, Z2, PHI_ID).category
    rhs = product_category(a, b)
    assert (lhs.n_objects(), lhs.n_morphisms()) == (rhs.n_objects(), rhs.n_morphisms())
    assert find_isomorphism(lhs, rhs) is not None


#: `isomorphism_digest` as the search that rescanned every compose entry at
#: each node and profiled each object by |objects| hom lookups computed it
ISOMORPHISM_DIGEST = "2163963d14826c78fbaff3f521929766331ea8fdbdc9b2653d5683604ca2178c"


def isomorphism_pairs():
    """The (C, D) pairs whose isomorphism the tests and the spans benchmark
    search for: the twisted and materialized homotopy fixed points of the
    pushout action of each benchmark corpus span and of `hofix_carriers`
    (whose categories have many automorphisms), for every (H, φ) that the
    materialized route builds within DEFAULT_CAPS and whose fixed points are
    non-empty; the hofix pairs of the tests above;
    the Dwyer pushouts of the arrow's sieve 0 that tests/test_dwyer.py
    compares."""
    for offset, (group, count) in enumerate((("1", 30), ("Z2", 24), ("Z3", 18), ("S3", 3))):
        G = named_group(group)
        acts = [equivariant_dwyer_pushout(span.act_A, span.act_B, span.act_C, span.i, span.c,
                                          span.witness)[0]
                for span in dwyer_span_corpus(10 + offset, count, group)]
        if group in ("Z2", "Z3"):
            acts += hofix_carriers(G)
        for act in acts:
            for H in subgroups(G):
                for phi in homomorphisms(H, G):
                    try:
                        mat = materialized_hofix(act, H, phi)
                    except SizeCapExceeded:
                        continue
                    twisted = homotopy_fixed_points(act, H, phi).category
                    if twisted.n_objects():
                        yield twisted, mat
    arrow, one = arrow_category(), terminal_category()
    for act in (trivial_action(trivial_group(), arrow), trivial_action(Z2, arrow)):
        yield homotopy_fixed_points(act, act.monoid, {g: g for g in act.monoid.elements}).category, arrow
    for act in (translation_action(Z2), trivial_action(Z2, arrow), swap_action()):
        yield homotopy_fixed_points(act, Z2, PHI_ID).category, materialized_hofix(act, Z2, PHI_ID)
    sw, arrow_act = swap_action(), trivial_action(Z2, arrow)
    yield (homotopy_fixed_points(product_action(sw, arrow_act), Z2, PHI_ID).category,
           product_category(homotopy_fixed_points(sw, Z2, PHI_ID).category,
                            homotopy_fixed_points(arrow_act, Z2, PHI_ID).category))
    at = {x: Functor(one, arrow, {"*": x}, {"id*": f"{x}<={x}"}).validate() for x in "01"}
    w = find_dwyer_witness(at["0"])
    yield dwyer_pushout(one, arrow, one, at["0"], identity_functor(one), w).category, arrow
    yield (dwyer_pushout(one, arrow, arrow, at["0"], at["1"], w).category,
           chain_poset(2).to_fincat())
    ident = identity_functor(arrow)
    yield dwyer_pushout(arrow, arrow, arrow, ident, ident, find_dwyer_witness(ident)).category, arrow


def isomorphism_digest():
    """sha256 over `isomorphism_pairs` of the maps `find_isomorphism` returns."""
    h = hashlib.sha256()
    for C, D in isomorphism_pairs():
        F = find_isomorphism(C, D)
        h.update(json.dumps(None if F is None else F.signature()).encode())
    return h.hexdigest()


def test_isomorphisms_match_the_pinned_digest():
    assert isomorphism_digest() == ISOMORPHISM_DIGEST


#: `functor_category_digest` as the enumerators that rescanned every morphism
#: of T at each candidate computed it
FUNCTOR_CATEGORY_DIGEST = "850b3456c9f3bb72346de71d142640b8e0663a014777a367de8ebbdfd367d7f0"


def functor_category_digest():
    """sha256 over what Fun(T, C) feeds: the homology benchmark's four
    Fun(E(Z2), D) (category, functors, transformations), `materialized_hofix`
    on `hofix_carriers` for every (H, φ) over the groups 1, Z2 and Z3, the
    tests' restriction comparisons, `fun_witness` of the arrow's sieve 0 over
    E(2) and [1], `homomorphisms` for every pair of subgroups of Z2, Z3, Z4
    and S3, and `saturation_check` reports of both modes; an error's text in
    place of its value."""
    rows = []

    def add(compute):
        try:
            rows.append(compute())
        except GcatError as exc:
            rows.append([type(exc).__name__, str(exc)])

    EH = chaotic_category(Z2.elements)
    for n in (0, 1):
        gm = generating_maps(GeneratorSpec("g_global_thin", n, params={"H": Z2, "G": Z2, "phi": PHI_ID}),
                             WIDE_CAPS)
        for D in (gm.functor.source, gm.functor.target):
            d = functor_category_data(EH, D, WIDE_CAPS)
            rows.append([d.cat.to_doc(), [F.signature() for F in d.functors],
                         sorted((mid, i, j, sorted(c.items())) for mid, (i, j, c) in d.trans.items())])
    for G in (trivial_group(), Z2, Z3):
        for act in hofix_carriers(G):
            for H in subgroups(G):
                for phi in homomorphisms(H, G):
                    add(lambda: materialized_hofix(act, H, phi).to_doc())
    arrow, triv, S3 = arrow_category(), subgroup_from_elements(Z2, ["c0"]), symmetric_group(3)
    cases = [(Z2, Z2, None), (triv, Z2, [{"c0": "e"}])]
    cases += [(H, Hp, None) for H in subgroups(S3) for Hp in subgroups(S3)
              if set(H.elements) <= set(Hp.elements) and len(Hp.elements) <= 3]
    for H, Hp, phis in cases:
        rc = restriction_comparison(arrow, H, Hp, g_act=trivial_action(trivial_group(), arrow), phis=phis)
        w = rc.certificate.witness
        rows.append([ser.functor_doc(rc.restriction), rc.certificate.to_doc(),
                     ser.maps_doc(w.quasi_inverse), sorted(w.unit.components.items()),
                     sorted(w.counit.components.items()),
                     {k: None if c is None else c.to_doc() for k, c in sorted(rc.per_phi.items())}])
    one = terminal_category()
    w = find_dwyer_witness(Functor(one, arrow, {"*": "0"}, {"id*": "0<=0"}).validate())
    for T in (chaotic_category(["x", "y"]), arrow):
        w2, data = fun_witness(T, w)
        rows.append([ser.witness_doc(w2), ser.functor_doc(w2.f), *(data[k].cat.to_doc() for k in "ABX")])
    for G in (Z2, Z3, Z4, S3):
        for H in subgroups(G):
            for K in subgroups(G):
                rows.append(homomorphisms(H, K))
    phi4 = {g: g for g in Z4.elements}
    for av, pairs in ((poset_avatar(arrow, Z2, Z2), sat_pairs()),
                      (cell_avatar(cell_category(Z2, Z2, Z2, PHI_ID)), sat_pairs()),
                      (cell_avatar(cell_category(Z4, Z4, Z4, phi4)),
                       [(Z4, phi4), (subgroup_from_elements(Z4, ["c0", "c2"]), {"c0": "c0", "c2": "c2"})]),
                      (swap_avatar(), [(Z2, {g: "e" for g in Z2.elements}), (triv, {"c0": "e"})])):
        add(lambda: saturation_check(av, pairs))
    return hashlib.sha256(ser.canonical_json(rows).encode()).hexdigest()


def test_functor_categories_match_the_pinned_digest():
    assert functor_category_digest() == FUNCTOR_CATEGORY_DIGEST


def test_g_global_we_swap_passes_on_homotopy_fixed_points():
    sw = swap_action()
    one_act = trivial_action(Z2, terminal_category())
    F = collapse_to_point(sw.carrier)
    cert = g_global_we(F, sw, one_act, [(Z2, PHI_ID)], 3)
    assert cert.passed
    src = homotopy_fixed_points(sw, Z2, PHI_ID)
    assert src.category.n_objects() == 2           # nonempty contractible


def test_g_global_we_trivial_pair_reduces_to_homology():
    sw = swap_action()
    one_act = trivial_action(Z2, terminal_category())
    F = collapse_to_point(sw.carrier)
    triv = subgroup_from_elements(Z2, ["c0"])
    cert = g_global_we(F, sw, one_act, [(triv, {"c0": "c0"})], 3)
    plain = homology_certificate(F, 3)
    assert cert.passed == plain.passed


def test_g_global_we_conjugation_invariance():
    sw = swap_action()
    one_act = trivial_action(Z2, terminal_category())
    F = collapse_to_point(sw.carrier)
    for g in Z2.elements:
        phi2 = {h: Z2.mul(Z2.mul(g, PHI_ID[h]), Z2.inverse(g)) for h in Z2.elements}
        a = g_global_we(F, sw, one_act, [(Z2, PHI_ID)], 3).passed
        b = g_global_we(F, sw, one_act, [(Z2, phi2)], 3).passed
        assert a == b


def test_chaotic_equivalence_transports_through_hofix():
    # equivariant equivalence of chaotic categories passes all supplied pairs
    big = chaotic_action(Z2, {"c0": {x: x for x in "abcd"},
                              "c1": {"a": "b", "b": "a", "c": "d", "d": "c"}})
    small = swap_action()
    F = Functor(big.carrier, small.carrier,
                {"a": "a", "b": "b", "c": "a", "d": "b"},
                {m: f"{ {'a':'a','b':'b','c':'a','d':'b'}[m.split('>')[0]] }>"
                    f"{ {'a':'a','b':'b','c':'a','d':'b'}[m.split('>')[1]] }"
                 for m in big.carrier.morphism_ids}).validate()
    triv = subgroup_from_elements(Z2, ["c0"])
    cert = g_global_we(F, big, small, [(Z2, PHI_ID), (triv, {"c0": "c0"})], 3)
    assert cert.passed


# -- restriction comparison ------------------------------------------------------


def test_restriction_identity_case():
    rc = restriction_comparison(arrow_category(), Z2, Z2,
                                g_act=trivial_action(trivial_group(), arrow_category()))
    assert rc.certificate.passed and rc.certificate.details["isomorphism"]


def test_restriction_one_in_z2():
    triv = subgroup_from_elements(Z2, ["c0"])
    rc = restriction_comparison(arrow_category(), triv, Z2,
                                g_act=trivial_action(trivial_group(), arrow_category()),
                                phis=[{"c0": "e"}])
    assert rc.certificate.passed and rc.certificate.kind == "sufficient"
    assert all(c is not None and c.passed for c in rc.per_phi.values())


def test_restriction_chain_in_s3_posets():
    S3 = symmetric_group(3)
    arrow = arrow_category()
    gact = trivial_action(trivial_group(), arrow)
    chains = 0
    for H in subgroups(S3):
        for Hp in subgroups(S3):
            if set(H.elements) <= set(Hp.elements) and len(Hp.elements) <= 3:
                rc = restriction_comparison(arrow, H, Hp, g_act=gact)
                assert rc.certificate.passed
                chains += 1
    assert chains >= 4


# -- saturation ---------------------------------------------------------------


def sat_pairs():
    triv = subgroup_from_elements(Z2, ["c0"])
    return [(Z2, PHI_ID), (triv, {"c0": "c0"})]


def test_poset_avatar_saturated_with_isomorphisms():
    av = poset_avatar(arrow_category(), Z2, Z2)
    rep = saturation_check(av, sat_pairs())
    assert rep["all_passed"]
    assert all(v["kind"] == "isomorphism" for v in rep["pairs"].values())


def test_cell_avatar_saturated_on_its_pairs():
    cell = cell_category(Z2, Z2, Z2, PHI_ID)
    rep = saturation_check(cell_avatar(cell), sat_pairs())
    assert rep["all_passed"]


def test_cell_avatar_z4():
    phi4 = {g: g for g in Z4.elements}
    cell = cell_category(Z4, Z4, Z4, phi4)
    sub2 = subgroup_from_elements(Z4, ["c0", "c2"])
    rep = saturation_check(cell_avatar(cell),
                           [(Z4, phi4), (sub2, {"c0": "c0", "c2": "c2"})])
    assert rep["all_passed"]


def discrete_avatar(Hp, G, action):
    """The avatar of an (H′ × G)-action on a discrete category, with the
    coherence data synthesized, or None where some hom-set is not a point or
    the components are not natural."""
    C = action.carrier
    coherence = {}
    for k1 in Hp.elements:
        for k2 in Hp.elements:
            F1, F2 = (action.act[pair_obj(k, G.unit)] for k in (k1, k2))
            homs = {x: C.hom(F1.object_map[x], F2.object_map[x]) for x in C.objects}
            if any(len(h) != 1 for h in homs.values()):
                return SaturationAvatar(Hp, G, action, None, label="discrete-no-coherence")
            comp = {x: h[0] for x, h in homs.items()}
            try:
                NatTrans(F1, F2, comp).validate()
            except GcatError:
                return SaturationAvatar(Hp, G, action, None, label="discrete-no-coherence")
            coherence[(k1, k2)] = comp
    return SaturationAvatar(Hp, G, action, coherence, label="discrete-synthesized")


def swap_avatar():
    """Z2 swapping two discrete objects, with no coherence data to synthesize."""
    disc = discrete_category(["a", "b"])
    swapF = Functor(disc, disc, {"a": "b", "b": "a"}, {"id:a": "id:b", "id:b": "id:a"})
    G1 = trivial_group()
    act = MonoidActionCat(product_monoid(Z2, G1), disc, {
        pair_obj("c0", "e"): identity_functor(disc),
        pair_obj("c1", "e"): swapF}).validate()
    return discrete_avatar(Z2, G1, act)


def test_saturation_failure_for_swap_without_coherence():
    av = swap_avatar()
    assert av.coherence is None
    rep = saturation_check(av, [(Z2, {g: "e" for g in Z2.elements})])
    assert not rep["all_passed"]
    entry = list(rep["pairs"].values())[0]
    assert entry["mode"] == "abstract-comparison"


# -- generators ----------------------------------------------------------------


def test_thomason_generator_n0():
    gm = generating_maps(GeneratorSpec("thomason", 0))
    assert gm.functor.source.n_objects() == 0
    assert gm.functor.target.n_objects() == 1


def test_global_generator_counts():
    gm = generating_maps(GeneratorSpec("global", 1, params={"H": Z2}))
    assert gm.functor.source.n_objects() == 2      # BH × (2-object discrete)
    assert gm.functor.target.n_objects() == 5      # BH × (5-object poset)
    assert is_sieve(gm.functor)
    assert find_dwyer_witness(gm.functor) is not None


def test_thin_generator_cell_size_and_witness():
    gm = generating_maps(GeneratorSpec("g_global_thin", 0,
                                       params={"H": Z2, "G": Z2, "phi": PHI_ID}))
    # source is empty at n = 0; the cell itself has |G| = 2 objects
    assert gm.functor.source.n_objects() == 0
    assert gm.functor.target.n_objects() == 2
    w = find_dwyer_witness(gm.functor, gm.equivariance)
    assert w is not None


def test_every_emitted_generator_is_equivariant_dwyer():
    specs = [
        GeneratorSpec("thomason", 1),
        GeneratorSpec("thomason", 1, k=1, acyclic=True),
        GeneratorSpec("global", 0, params={"H": Z2}),
        GeneratorSpec("g_global_thin", 1, params={"H": Z2, "G": Z2, "phi": PHI_ID}),
        GeneratorSpec("g_global_thick_avatar", 0,
                      params={"H": Z2, "Hp": Z2, "G": Z2, "phi": PHI_ID}),
        GeneratorSpec("g_homotopy_fp", 0, params={"H": Z2, "G": Z2}),
        GeneratorSpec("g_homotopy_fp_thick", 0, params={"H": Z2, "G": Z2}),
    ]
    for spec in specs:
        gm = generating_maps(spec, WIDE_CAPS)
        assert is_sieve(gm.functor), gm.name
        w = find_dwyer_witness(gm.functor, gm.equivariance)
        assert w is not None, gm.name


def test_f_model_generator_with_core_equivariance():
    M = zero_monoid()
    H = subgroup_from_elements(M, ["1"])
    gm = generating_maps(GeneratorSpec("f_model", 0, params={"M": M, "H": H}))
    w = monoid_dwyer_check(gm.functor, gm.act_src, gm.act_dst)
    assert w is not None and set(w.group.elements) == {"1", "g"}


def test_generator_sources_saturated_where_applicable():
    # thin generator target = cell × hSd²Δ⁰ = cell × 1: saturated on its pair
    cell = cell_category(Z2, Z2, Z2, PHI_ID)
    rep = saturation_check(cell_avatar(cell), [(Z2, PHI_ID)])
    assert rep["all_passed"]


#: sha256 of `generator_docs`, computed with the generator layer that built
#: id × m three times and kept f_model's monoid actions in fields of their own
GENERATOR_DIGEST = "41182d4c1d8a354d47c3b201f8e461ecbb58434f4c820c15c73706c205425c8c"


def generator_docs():
    """Per model and parameter set, Z2 and Z3 among them, and per boundary or
    horn at n <= 2: the name, functor, group and the actions on both ends."""
    M = zero_monoid()
    Z2e = subgroup_from_elements(Z2, ["c0"])
    params = [("thomason", {}), ("global", {"H": Z2}), ("global", {"H": Z3}),
              ("f_model", {"M": Z2, "H": Z2e}), ("f_model", {"M": Z3, "H": Z3}),
              ("f_model", {"M": M, "H": subgroup_from_elements(M, ["1"])}),
              ("g_global_thin", {"H": Z2, "G": Z2, "phi": PHI_ID}),
              ("g_global_thin", {"H": Z3, "G": Z3, "phi": {"c0": "c0", "c1": "c2", "c2": "c1"}}),
              ("g_global_thick_avatar", {"H": Z2e, "Hp": Z2, "G": Z3, "phi": {"c0": "c0"}}),
              ("g_global_thick_avatar", {"H": Z2, "Hp": Z2, "G": Z2, "phi": PHI_ID}),
              ("g_homotopy_fp", {"H": Z2, "G": Z2}), ("g_homotopy_fp", {"H": Z3, "G": Z3}),
              ("g_homotopy_fp_thick", {"H": Z3, "G": Z3}),
              ("g_homotopy_fp_thick", {"H": Z2e, "G": Z2})]
    assert {model for model, _ in params} == set(GENERATOR_MODELS)
    shapes = [(n, None) for n in range(3)] + [(n, k) for n in (1, 2) for k in range(n + 1)]
    for model, p in params:
        for n, k in shapes:
            gm = generating_maps(GeneratorSpec(model, n, k, k is not None, dict(p)), WIDE_CAPS)
            yield [gm.name, ser.functor_doc(gm.functor),
                   None if gm.group is None else gm.group.to_doc(),
                   None if gm.act_src is None else ser.action_doc(gm.act_src),
                   None if gm.act_dst is None else ser.action_doc(gm.act_dst)]


def test_generators_match_the_pinned_digest():
    docs = list(generator_docs())
    assert hashlib.sha256(ser.canonical_json(docs).encode()).hexdigest() == GENERATOR_DIGEST


# -- transfer harness ------------------------------------------------------------


#: sha256 of `transfer_reports`, computed with condition 2's two witness
#: searches, one per branch
TRANSFER_DIGEST = "e8b213a0b45cd49f3c5a7c634391489a40cf6e144661f7c50c37502ba7771dc1"


def transfer_reports():
    """The reports for U = identity, Z2-fixed points and Fun(E(Z2), -) on the
    thin generators at G = H = Z2, n <= 1, and for Ex² N at G = H = 1, n = 0,
    built as `transfer-check` builds them."""
    def gens(H, n_max):
        p = {"H": H, "G": H, "phi": {h: h for h in H.elements}}
        I = [generating_maps(GeneratorSpec("g_global_thin", n, params=dict(p)), WIDE_CAPS)
             for n in range(n_max + 1)]
        J = [generating_maps(GeneratorSpec("g_global_thin", n, k, True, dict(p)), WIDE_CAPS)
             for n in range(1, n_max + 1) for k in range(n + 1)]
        return I, J

    I, J = gens(Z2, 1)
    for U in [("identity",), ("fixed", Z2), ("fun_e", Z2)]:
        yield check_transfer_conditions(I, J, U, 3, WIDE_CAPS)
    yield check_transfer_conditions(*gens(trivial_group(), 0), ("ex2_nerve",), 3, WIDE_CAPS)


def test_transfer_reports_match_the_pinned_digest():
    docs = list(transfer_reports())
    assert hashlib.sha256(ser.canonical_json(docs).encode()).hexdigest() == TRANSFER_DIGEST


def test_transfer_identity_trivial():
    I = [generating_maps(GeneratorSpec("thomason", n)) for n in (0, 1)]
    J = [generating_maps(GeneratorSpec("thomason", 1, k=k, acyclic=True)) for k in (0, 1)]
    rep = check_transfer_conditions(I, J, ("identity",), 3)
    assert rep["all_passed"]


def test_transfer_report_names_unchecked_conditions():
    # condition 3, and condition 2's homology comparison when U is the
    # identity, cannot fail: the report lists them under not_checked.  The
    # Dwyer-witness verdict of condition 2 still fails on a sieve with no witness
    V = poset_from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")]).to_fincat()
    ab = V.full_subcategory(["a", "b"])
    I = [generating_maps(GeneratorSpec("thomason", 0)),
         GeneratedMap("ab->V", inclusion_functor(ab, V))]
    J = [generating_maps(GeneratorSpec("thomason", 1, k=0, acyclic=True))]
    rep = check_transfer_conditions(I, J, ("identity",), 3)
    assert rep["condition3"] == []
    assert sorted(rep["not_checked"]) == ["condition2", "condition3"]
    assert [(e["generator"], e["passed"]) for e in rep["condition2"]] == \
        [(I[0].name, True), ("ab->V", False)]
    assert not rep["all_passed"]
    rep = check_transfer_conditions(I[:1], J, ("ex2_nerve",), 1, WIDE_CAPS)
    assert rep["condition3"] == [] and sorted(rep["not_checked"]) == ["condition3"]
    assert rep["all_passed"]


def test_transfer_fixed_points_on_free_cells():
    phi = PHI_ID
    I = [generating_maps(GeneratorSpec("g_global_thin", 0,
                                       params={"H": Z2, "G": Z2, "phi": phi}))]
    J = [generating_maps(GeneratorSpec("g_global_thin", 1, k=0, acyclic=True,
                                       params={"H": Z2, "G": Z2, "phi": phi}))]
    rep = check_transfer_conditions(I, J, ("fixed", Z2), 3)
    assert rep["all_passed"]


def test_transfer_fixed_points_compare_the_tables(monkeypatch):
    """Condition 2 for U = fixed holds when D^H and the Dwyer pushout of the
    fixed points are the same tables.  Under the trivial subgroup both are
    the whole pushout; a fixed-point pushout one object short fails every
    entry, and condition 1 does not move."""
    p = {"H": Z2, "G": Z2, "phi": PHI_ID}
    I = [generating_maps(GeneratorSpec("g_global_thin", n, params=dict(p))) for n in (0, 1)]
    J = [generating_maps(GeneratorSpec("g_global_thin", 1, k=0, acyclic=True, params=dict(p)))]
    U = ("fixed", subgroup_from_elements(Z2, ["c0"]))
    rep = check_transfer_conditions(I, J, U, 3)
    assert rep["condition2"] == [{"generator": gm.name, "passed": True} for gm in I]
    pushout = gcat.weq.dwyer_pushout

    def one_object_short(*args):
        P = pushout(*args).category
        return SimpleNamespace(category=P.full_subcategory(P.objects[1:]))

    monkeypatch.setattr(gcat.weq, "dwyer_pushout", one_object_short)
    short = check_transfer_conditions(I, J, U, 3)
    assert short["condition2"] == [{"generator": gm.name, "passed": False} for gm in I]
    assert short["condition1"] == rep["condition1"] and not short["all_passed"]


def test_transfer_ex2_nerve_tiny():
    # Ex² is doubly exponential: beyond trivial inputs only cap 1 is feasible,
    # and the certificates carry that cap
    I = [generating_maps(GeneratorSpec("thomason", 0))]
    J = [generating_maps(GeneratorSpec("thomason", 1, k=1, acyclic=True))]
    rep = check_transfer_conditions(I, J, ("ex2_nerve",), 1, WIDE_CAPS)
    assert rep["all_passed"]
