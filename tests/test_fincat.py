"""Tables, functors, products, functor categories, equivalences, and the
presentation oracle."""

import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gcat.config import WIDE_CAPS, SizeCaps
from gcat.errors import (
    AssociativityViolation,
    DanglingReference,
    GcatError,
    IdentityViolation,
    Inconclusive,
    SizeCapExceeded,
)
from gcat.fincat import (
    Functor,
    NatTrans,
    _object_profiles,
    arrow_category,
    chain_poset,
    discrete_category,
    enumerate_functors,
    enumerate_nat_trans,
    find_equivalence,
    find_isomorphism,
    functor_category_data,
    identity_functor,
    inclusion_functor,
    is_ff_eso,
    is_isomorphism_functor,
    poset_from_relation,
    presented_pushout,
    product_category,
    terminal_category,
    thin_category,
    thin_functor,
    validate_category,
)
from gcat.actions import chaotic_category, cyclic_group, delooping, make_group
from gcat.corpus import dwyer_span_corpus, seeded_poset
from gcat.serialize import canonical_json


def test_validate_terminal():
    one = terminal_category()
    assert one.n_objects() == 1 and one.n_morphisms() == 1


def test_validate_arrow():
    arrow = arrow_category()
    assert arrow.n_objects() == 2 and arrow.n_morphisms() == 3
    assert arrow.hom("0", "1") == ("0<=1",)
    assert arrow.hom("1", "0") == ()


def test_validate_catches_associativity():
    # three composable arrows with a deliberately wrong composite table
    objs = ["w", "x", "y", "z"]
    mors = [("iw", "w", "w"), ("ix", "x", "x"), ("iy", "y", "y"), ("iz", "z", "z"),
            ("f", "w", "x"), ("g", "x", "y"), ("h", "y", "z"),
            ("gf", "w", "y"), ("hg", "x", "z"), ("a", "w", "z"), ("b", "w", "z")]
    ident = {"w": "iw", "x": "ix", "y": "iy", "z": "iz"}
    comp = {}
    for m, s, t in mors:
        comp[(m, ident[s])] = m
        comp[(ident[t], m)] = m
    comp[("g", "f")] = "gf"
    comp[("h", "g")] = "hg"
    comp[("h", "gf")] = "a"
    comp[("hg", "f")] = "b"   # breaks (h∘g)∘f = h∘(g∘f)
    with pytest.raises(AssociativityViolation) as exc:
        validate_category(objs, mors, ident, comp)
    assert "f" in str(exc.value) and "g" in str(exc.value)


def three_arrows():
    """w -f-> x -g-> y -h-> z with every composite table entry filled in."""
    objs = ["w", "x", "y", "z"]
    mors = [("iw", "w", "w"), ("ix", "x", "x"), ("iy", "y", "y"), ("iz", "z", "z"),
            ("f", "w", "x"), ("g", "x", "y"), ("h", "y", "z"), ("gf", "w", "y"), ("hg", "x", "z"),
            ("hgf", "w", "z")]
    ident = {"w": "iw", "x": "ix", "y": "iy", "z": "iz"}
    comp = {}
    for m, s, t in mors:
        comp[(m, ident[s])] = m
        comp[(ident[t], m)] = m
    comp.update({("g", "f"): "gf", ("h", "g"): "hg", ("h", "gf"): "hgf", ("hg", "f"): "hgf"})
    return objs, mors, ident, comp


@pytest.mark.parametrize("missing, first", [
    ((("h", "gf"), ("h", "g")), "('h','g')"),     # one g: the first f in morphism order
    ((("hg", "f"), ("h", "gf")), "('h','gf')"),   # the first g in morphism order
])
def test_validate_reports_the_first_missing_composite(missing, first):
    objs, mors, ident, comp = three_arrows()
    validate_category(objs, mors, ident, comp)
    for pair in missing:
        del comp[pair]
    with pytest.raises(DanglingReference) as exc:
        validate_category(objs, mors, ident, comp)
    assert str(exc.value) == f"compose missing on composable pair {first}"


def test_validate_checks_associativity_where_no_factor_is_an_identity():
    """Associativity is checked on the triples with no identity factor, and
    the identity laws, checked first, imply it on the rest.  A table broken
    only at (h, g, f) raises the message of the check over all triples; a
    table whose gf∘iw is k breaks associativity at (g, f, iw) too, but the
    right identity law at gf raises first."""
    objs = ["w", "x", "y", "z"]
    ident = {"w": "iw", "x": "ix", "y": "iy", "z": "iz"}
    mors = [(i, x, x) for x, i in ident.items()] + [
        ("f", "w", "x"), ("g", "x", "y"), ("h", "y", "z"), ("gf", "w", "y"), ("hg", "x", "z"),
        ("a", "w", "z"), ("b", "w", "z"), ("k", "w", "y")]
    comp = {(m, ident[s]): m for m, s, _ in mors}
    comp.update({(ident[t], m): m for m, _, t in mors})
    comp.update({("g", "f"): "gf", ("h", "g"): "hg", ("h", "gf"): "a", ("h", "k"): "a",
                 ("hg", "f"): "a"})
    validate_category(objs, mors, ident, comp)
    with pytest.raises(AssociativityViolation, match=r"^\(h∘g\)∘f ≠ h∘\(g∘f\) for \('h','g','f'\)$"):
        validate_category(objs, mors, ident, {**comp, ("hg", "f"): "b"})
    with pytest.raises(IdentityViolation, match=r"^right identity law fails for 'gf'$"):
        validate_category(objs, mors, ident, {**comp, ("gf", "iw"): "k"})


def test_functor_checks_composition_where_no_factor_is_an_identity():
    """Composition is checked on the source's entries with no identity
    factor, and the identities, checked first, imply it on the rest.  A map
    that breaks only b∘a raises the message of the check over all entries;
    one that sends the identity of BZ2 to c1 breaks c1∘e too, but raises
    at the identity first."""
    T, C = composite_line(False), composite_line(True)
    mm = {m: m for m in T.morphism_ids}
    Functor(T, C, {x: x for x in T.objects}, mm).validate()
    with pytest.raises(AssociativityViolation, match=r"^functor breaks composition on \('b','a'\)$"):
        Functor(T, C, {x: x for x in T.objects}, {**mm, "c1": "c2"}).validate()
    BZ2 = delooping(cyclic_group(2))
    with pytest.raises(IdentityViolation, match=r"^functor breaks identity at '\*'$"):
        Functor(BZ2, BZ2, {"*": "*"}, {"c0": "c1", "c1": "c1"}).validate()


def test_validate_catches_identity_violation():
    objs = ["x"]
    mors = [("ix", "x", "x"), ("e", "x", "x")]
    comp = {("ix", "ix"): "ix", ("ix", "e"): "ix", ("e", "ix"): "e", ("e", "e"): "e"}
    with pytest.raises(IdentityViolation):
        validate_category(objs, mors, {"x": "ix"}, comp)


def test_validate_catches_dangling():
    with pytest.raises(DanglingReference):
        validate_category(["x"], [("f", "x", "y")], {"x": "f"}, {})


def test_product_unit_law():
    one = terminal_category()
    arrow = arrow_category()
    prod = product_category(one, arrow)
    assert find_isomorphism(prod, arrow) is not None


def test_product_square_morphism_count():
    # oracle: |Mor([1]×[1])| = 3 · 3 counted directly
    arrow = arrow_category()
    expected = len(arrow.morphisms) * len(arrow.morphisms)
    assert expected == 9
    assert product_category(arrow, arrow).n_morphisms() == 9


def test_product_of_chaotic_is_chaotic():
    E1 = chaotic_category(["a", "b"])
    E2 = chaotic_category(["c", "d"])
    prod = product_category(E1, E2)
    E4 = chaotic_category(["w", "x", "y", "z"])
    assert prod.n_objects() == 4 and prod.n_morphisms() == 16
    assert find_isomorphism(prod, E4) is not None


def test_fun_from_point():
    arrow = arrow_category()
    data = functor_category_data(terminal_category(), arrow)
    assert find_isomorphism(data.cat, arrow) is not None


def test_fun_to_point_is_point():
    E2 = chaotic_category(["0", "1"])
    data = functor_category_data(E2, terminal_category())
    assert data.cat.n_objects() == 1 and data.cat.n_morphisms() == 1


def test_fun_bz2_bz2_hom_structure():
    # oracle: endomorphisms of Z/2 are id and trivial; intertwiners by brute force
    Z2 = cyclic_group(2)
    B = delooping(Z2)
    homs = []
    for image in itertools.product(Z2.elements, repeat=2):
        phi = dict(zip(Z2.elements, image))
        if phi["c0"] == "c0" and all(
            phi[Z2.mul(a, b)] == Z2.mul(phi[a], phi[b])
            for a in Z2.elements for b in Z2.elements
        ):
            homs.append(phi)
    assert len(homs) == 2
    data = functor_category_data(B, B)
    assert data.cat.n_objects() == 2
    for x in data.cat.objects:
        for y in data.cat.objects:
            expected = 2 if x == y else 0
            assert len(data.cat.hom(x, y)) == expected


def test_exponential_law_exact():
    # Fun(S×T, C) ≅ Fun(S, Fun(T, C)) via explicit currying
    S = arrow_category()
    T = chain_poset(1).to_fincat()
    C = chaotic_category(["a", "b"])
    from gcat.fincat import pair_obj, pair_mor
    prod = product_category(S, T)
    left = functor_category_data(prod, C)
    inner = functor_category_data(T, C)
    right = functor_category_data(S, inner.cat)

    def curry(F):
        om, mm = {}, {}
        for s in S.objects:
            Fs = Functor(T, C,
                         {t: F.object_map[pair_obj(s, t)] for t in T.objects},
                         {m: F.morphism_map[pair_mor(S.identity[s], m)] for m in T.morphism_ids})
            om[s] = inner.object_id(Fs)
        for ms in S.morphism_ids:
            comp = {t: F.morphism_map[pair_mor(ms, T.identity[t])] for t in T.objects}
            src_idx = int(om[S.src[ms]][1:])
            dst_idx = int(om[S.dst[ms]][1:])
            mm[ms] = inner.trans_id(src_idx, dst_idx, comp)
        return Functor(S, inner.cat, om, mm).validate()

    curried_ids = {right.object_id(curry(F)) for F in left.functors}
    assert len(curried_ids) == len(left.functors) == len(right.functors)


def test_presented_pushout_identity_span():
    one = terminal_category()
    res = presented_pushout(one, one, one, identity_functor(one), identity_functor(one))
    assert res.category.n_objects() == 1 and res.category.n_morphisms() == 1


def test_presented_pushout_glue_is_two():
    one = terminal_category()
    arrow = arrow_category()
    i = Functor(one, arrow, {"*": "0"}, {"id*": "0<=0"})
    c = Functor(one, arrow, {"*": "1"}, {"id*": "1<=1"})
    res = presented_pushout(one, arrow, arrow, i, c)
    assert res.category.n_objects() == 3 and res.category.n_morphisms() == 6
    assert find_isomorphism(res.category, chain_poset(2).to_fincat()) is not None
    B, C = ("B", "0<=1"), ("C", "0<=1")
    assert res.category.morphisms == (
        ("id:0", "0", "0"), ("id:1", "1", "1"), ("id:B:1", "B:1", "B:1"),
        ("w:B:0<=1", "1", "B:1"), ("w:C:0<=1", "0", "1"), ("w:C:0<=1.B:0<=1", "0", "B:1"))
    assert res.word_of == {"id:0": (), "id:1": (), "id:B:1": (), "w:B:0<=1": (B,),
                           "w:C:0<=1": (C,), "w:C:0<=1.B:0<=1": (C, B)}
    # an arrow has no composite of two non-identities, so no relation to scan
    assert res.relation_scans == 0


def test_presented_pushout_scans_each_relation_instance_once():
    """[2] glued end to start onto [2] is [4]. The closure has 2 relations,
    (1<=2)(0<=1) = 0<=2 in each copy, and 19 states: 5 identities and 14
    definitions. The B relation applies at id:B:0 and the C relation at the
    3 states ending at the glued object, so 4 instances are walked; rescanning
    every relation at every state after each definition walked 18."""
    one = terminal_category()
    chain = chain_poset(2).to_fincat()
    i = Functor(one, chain, {"*": "2"}, {"id*": "2<=2"})
    c = Functor(one, chain, {"*": "0"}, {"id*": "0<=0"})
    res = presented_pushout(one, chain, chain, i, c)
    assert find_isomorphism(res.category, chain_poset(4).to_fincat()) is not None
    assert res.relation_scans == 4
    assert res.relation_scans <= 2 * 19


def test_presented_pushout_loop_inconclusive():
    one = terminal_category()
    arrow = arrow_category()
    two_pts = discrete_category(["a", "b"])
    i = Functor(two_pts, arrow, {"a": "0", "b": "1"}, {"id:a": "0<=0", "id:b": "1<=1"})
    c = Functor(two_pts, one, {"a": "*", "b": "*"}, {"id:a": "id*", "id:b": "id*"})
    with pytest.raises(Inconclusive) as exc:
        presented_pushout(two_pts, arrow, one, i, c, word_cap=4)
    assert exc.value.word == (("B", "0<=1"),) * 5


def test_presented_pushout_state_cap():
    """[10] glued end to start onto [10] closes at the default caps; at
    max_morphisms 20 the live states are counted when the table reaches 128
    states, and 86 of them exceed 4 * 20."""
    one = terminal_category()
    chain = chain_poset(10).to_fincat()
    i = Functor(one, chain, {"*": "10"}, {"id*": "10<=10"})
    c = Functor(one, chain, {"*": "0"}, {"id*": "0<=0"})
    assert presented_pushout(one, chain, chain, i, c).category.n_morphisms() == 231
    with pytest.raises(SizeCapExceeded, match=r"^pushout oracle states: 86 exceeds cap 80$"):
        presented_pushout(one, chain, chain, i, c, caps=SizeCaps(max_morphisms=20))


def test_presented_pushout_guards():
    one = terminal_category()
    arrow = arrow_category()
    two_pts = discrete_category(["a", "b"])
    i = Functor(two_pts, arrow, {"a": "0", "b": "0"}, {"id:a": "0<=0", "id:b": "0<=0"})
    c = Functor(two_pts, arrow, {"a": "0", "b": "1"}, {"id:a": "0<=0", "id:b": "1<=1"})
    with pytest.raises(GcatError, match=r"^presented_pushout requires i injective on objects$"):
        presented_pushout(two_pts, arrow, arrow, i, c)
    j = Functor(one, arrow, {"*": "0"}, {"id*": "0<=0"})
    with pytest.raises(GcatError, match=r"^word_cap must be >= 1$"):
        presented_pushout(one, arrow, arrow, j, j, word_cap=0)


def test_presented_pushout_names_are_pinned():
    """The oracle's quotient, state names and non-closing words over seeded
    Dwyer spans (groups 1, Z2, Z3; word caps 1, 2, 3, 16; 108 calls, 14 of
    them Inconclusive) hash as they did at commit 3cc4a1b, before the closure
    resumed its scans instead of rescanning every state."""
    h = hashlib.sha256()
    inconclusive = scans = 0
    for seed, group in ((1, "1"), (2, "Z2"), (3, "Z3")):
        for span in dwyer_span_corpus(seed, 9, group):
            for cap in (1, 2, 3, 16):
                try:
                    res = presented_pushout(span.A, span.B, span.C, span.i, span.c, cap)
                except Inconclusive as exc:
                    inconclusive += 1
                    doc = {"inconclusive": exc.word}
                else:
                    scans += res.relation_scans
                    doc = {"category": res.category.to_doc(),
                           "b": [res.leg_from_b.object_map, res.leg_from_b.morphism_map],
                           "c": [res.leg_from_c.object_map, res.leg_from_c.morphism_map],
                           "word_of": res.word_of}
                h.update(canonical_json(doc).encode())
    assert inconclusive == 14
    assert scans == 840   # over the 94 calls that close
    assert h.hexdigest() == "6d4b236a6754ded442e7bf994549cb1dcf6cfbfd647142c41092eb74990fc791"


def test_find_equivalence_identity():
    arrow = arrow_category()
    w = find_equivalence(identity_functor(arrow))
    assert w is not None
    assert w.quasi_inverse.same_maps(identity_functor(arrow))


def test_find_equivalence_chaotic_to_point():
    E2 = chaotic_category(["a", "b"])
    one = terminal_category()
    F = Functor(E2, one, {"a": "*", "b": "*"}, {m: "id*" for m in E2.morphism_ids})
    assert find_equivalence(F) is not None


def test_find_equivalence_arrow_to_point_is_none():
    arrow = arrow_category()
    one = terminal_category()
    F = Functor(arrow, one, {"0": "*", "1": "*"}, {m: "id*" for m in arrow.morphism_ids})
    assert find_equivalence(F) is None
    # fully faithful, but no object of the point is isomorphic to 1
    G = Functor(one, arrow, {"*": "0"}, {"id*": "0<=0"}).validate()
    assert G.is_fully_faithful() and not is_ff_eso(G)
    assert find_equivalence(G) is None


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_posets_validate_and_equivalence_predicate(data):
    n = data.draw(st.integers(1, 4))
    els = [f"p{i}" for i in range(n)]
    pairs = [
        (els[i], els[j])
        for i in range(n) for j in range(i + 1, n)
        if data.draw(st.booleans())
    ]
    P = poset_from_relation(els, pairs).to_fincat()
    # witness exists iff the exhaustive predicate holds, for a random functor
    C = data.draw(st.sampled_from([P, terminal_category()]))
    fs = enumerate_functors(P, C)
    F = data.draw(st.sampled_from(fs))
    assert (find_equivalence(F) is not None) == is_ff_eso(F)


# -- thin categories and the functors between them ----------------------------


def test_thin_category_refuses_a_relation_that_is_not_a_preorder():
    """The thin tables still go through `validate_category`: a pair without
    its identity, or a composite with no morphism, is refused there."""
    name = "{}<={}".format
    with pytest.raises(DanglingReference):
        thin_category(["0", "1"], [("0", "0"), ("0", "1")], name)
    with pytest.raises(DanglingReference):
        thin_category(["0", "1", "2"], [(x, x) for x in "012"] + [("0", "1"), ("1", "2")], name)


def test_thin_functor_refuses_a_map_with_no_single_image():
    arrow, one = arrow_category(), terminal_category()
    with pytest.raises(DanglingReference, match="has 0 images '1' -> '0'"):
        thin_functor(arrow, arrow, {"0": "1", "1": "0"})        # the swap of [1]
    with pytest.raises(DanglingReference, match="has 2 images"):
        thin_functor(one, delooping(cyclic_group(2)), {"*": "*"})
    with pytest.raises(DanglingReference, match="has 0 images '0' -> None"):
        thin_functor(arrow, arrow, {"0": "0"})                  # 1 is not mapped
    assert thin_functor(arrow, one, {"0": "*", "1": "*"}).morphism_map == \
        {"0<=0": "id*", "0<=1": "id*", "1<=1": "id*"}


@settings(deadline=None)
@given(st.data())
def test_thin_functor_exists_exactly_on_monotone_maps(data):
    """Between two posets, `thin_functor` builds a functor exactly when the
    object map is monotone, and what it builds passes `Functor.validate`."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    P, Q = seeded_poset(rng, 4), seeded_poset(rng, 4)
    om = {x: data.draw(st.sampled_from(Q.elements)) for x in P.elements}
    S, T = P.to_fincat(), Q.to_fincat()
    if all(Q.le(om[x], om[y]) for x, y in P.leq):
        F = thin_functor(S, T, om)
        assert F.validate() is F
    else:
        with pytest.raises(DanglingReference):
            thin_functor(S, T, om)


# -- the functor and transformation enumerators against brute force ------------


def composite_line(parallel):
    """0 -a-> 1 -b-> 2 with b∘a = c1, and with `parallel` a second arrow c2: 0 -> 2."""
    objs, ident = ["0", "1", "2"], {"0": "i0", "1": "i1", "2": "i2"}
    mors = [(ident[x], x, x) for x in objs] + [("a", "0", "1"), ("b", "1", "2")]
    mors += [(c, "0", "2") for c in (("c1", "c2") if parallel else ("c1",))]
    comp = {(m, ident[s]): m for m, s, _ in mors}
    comp.update({(ident[t], m): m for m, _, t in mors})
    comp[("b", "a")] = "c1"
    return validate_category(objs, mors, ident, comp)


def enumerator_categories():
    BZ2 = delooping(cyclic_group(2))
    return [terminal_category(), arrow_category(), chain_poset(2).to_fincat(),
            poset_from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")]).to_fincat(),
            BZ2, delooping(cyclic_group(3)), chaotic_category(["x", "y"]),
            product_category(arrow_category(), BZ2), composite_line(False), composite_line(True)]


def functors_by_brute_force(T, C):
    """Every (object map, morphism map) with each morphism sent into the hom-set
    between its endpoints' images that `Functor.validate` accepts, sorted."""
    out = []
    for images in itertools.product(C.objects, repeat=len(T.objects)):
        om = dict(zip(T.objects, images))
        homs = [C.hom(om[s], om[t]) for _, s, t in T.morphisms]
        for mors in itertools.product(*homs):
            F = Functor(T, C, om, dict(zip(T.morphism_ids, mors)))
            try:
                out.append(F.validate().signature())
            except GcatError:
                pass
    return sorted(out)


def test_functors_of_the_composite_line_into_parallel_arrows():
    # b∘a = c1 must go to F(b)∘F(a): 12 functors, though 17 maps respect endpoints and identities
    T, C = composite_line(False), composite_line(True)
    fs = enumerate_functors(T, C)
    assert [F.signature() for F in fs] == functors_by_brute_force(T, C)
    assert len(fs) == 12 and all(F.validate() for F in fs)
    data = functor_category_data(T, C)
    assert data.cat.n_objects() == 12


def test_functor_category_data_validates_no_enumerated_functor(monkeypatch):
    """The functor search checks every law of each functor it returns, once,
    so `functor_category_data` does not validate them again; they pass
    validation all the same."""
    validate = Functor.validate
    calls = []
    monkeypatch.setattr(Functor, "validate", lambda F: calls.append(F) or validate(F))
    cats = enumerator_categories()
    for T, C in [(cats[-2], cats[-1]), (cats[3], cats[-1]), (cats[6], cats[7]), (cats[4], cats[5])]:
        data = functor_category_data(T, C)
        assert calls == [] and data.functors
        assert all(validate(F) is F for F in data.functors)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_functor_enumeration_matches_brute_force(data):
    T = data.draw(st.sampled_from(enumerator_categories()[:-1] + [None]))
    T = random_poset(data, "p") if T is None else T
    C = data.draw(st.sampled_from(enumerator_categories()))
    assert [F.signature() for F in enumerate_functors(T, C)] == functors_by_brute_force(T, C)


def test_functor_search_counts_its_nodes():
    """One node per position reached, for [1] into the discrete category on a
    and b: the root, both images of 0, the image of 1 that leaves a non-empty
    hom-set for the arrow (the object position checks it), and the arrow's one
    image in each: 1 + 2 + 2 + 2 = 7."""
    args = (arrow_category(), discrete_category(["a", "b"]))
    with pytest.raises(SizeCapExceeded, match=r"^functor enumeration: 7 exceeds cap 6$"):
        enumerate_functors(*args, SizeCaps(max_candidates=6))
    assert len(enumerate_functors(*args, SizeCaps(max_candidates=7))) == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nat_trans_enumeration_matches_brute_force(data):
    T = data.draw(st.sampled_from(enumerator_categories()[:-1]))
    C = data.draw(st.sampled_from(enumerator_categories()))
    fs = enumerate_functors(T, C)
    F, G = data.draw(st.sampled_from(fs)), data.draw(st.sampled_from(fs))
    brute = []
    for comps in itertools.product(*(C.hom(F.object_map[x], G.object_map[x]) for x in T.objects)):
        alpha = NatTrans(F, G, dict(zip(T.objects, comps)))
        try:
            brute.append(sorted(alpha.validate().components.items()))
        except GcatError:
            pass
    assert [sorted(c.items()) for c in enumerate_nat_trans(F, G)] == sorted(brute)


# -- full faithfulness against the pairwise definition -------------------------


def fully_faithful_by_pairs(F):
    """The definition, pair by pair of source objects: S(x, y) -> T(Fx, Fy) is
    a bijection.  O(|objects|^2) hom-set lookups; the oracle of
    `Functor.is_fully_faithful`."""
    for x in F.source.objects:
        for y in F.source.objects:
            image = [F.morphism_map[m] for m in F.source.hom(x, y)]
            targeth = F.target.hom(F.object_map[x], F.object_map[y])
            if len(set(image)) != len(image) or set(image) != set(targeth):
                return False
    return True


def random_poset(data, prefix):
    n = data.draw(st.integers(1, 4))
    els = [f"{prefix}{i}" for i in range(n)]
    return poset_from_relation(
        els, [(els[i], els[j]) for i in range(n) for j in range(i + 1, n) if data.draw(st.booleans())]
    ).to_fincat()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fully_faithful_matches_the_pairwise_definition(data):
    BZ2, BZ4 = delooping(cyclic_group(2)), delooping(cyclic_group(4))
    pair = data.draw(st.sampled_from(["poset", "BZ2->BZ4", "BZ4->BZ4", "BZ4->BZ2"]))
    if pair == "poset":
        S, T = random_poset(data, "p"), random_poset(data, "q")
    else:
        S, T = {"BZ2->BZ4": (BZ2, BZ4), "BZ4->BZ4": (BZ4, BZ4), "BZ4->BZ2": (BZ4, BZ2)}[pair]
    F = data.draw(st.sampled_from(enumerate_functors(S, T)))
    assert F.is_fully_faithful() == fully_faithful_by_pairs(F)


def fully_faithful_functors():
    """i: A -> B and the cosieve inclusion X -> B of a few witnessed spans,
    which are thin, and two with hom-sets of several morphisms."""
    out = []
    for group in (None, "Z2", "S3"):
        for span in dwyer_span_corpus(7, 4 if group != "S3" else 2, group):
            out += [span.i, inclusion_functor(span.witness.X, span.i.target)]
    P = product_category(chaotic_category(["a", "b", "c"]), delooping(cyclic_group(2)))
    return out + [identity_functor(delooping(cyclic_group(3))),
                  inclusion_functor(P.full_subcategory(["(a,*)", "(c,*)"]), P)]


def mutants(F):
    """Functors that agree with the fully faithful F but for one defect:
    a duplicated image in one hom-set, a morphism sent to a target morphism
    with other endpoints, and a non-full map, through the identities only."""
    S, T, om = F.source, F.target, F.object_map
    for m, s, t in S.morphisms:
        for n in S.hom(s, t):
            if n != m:
                yield "duplicate", Functor(S, T, om, {**F.morphism_map, m: F.morphism_map[n]})
                break
        for fm, a, b in T.morphisms:
            if (a, b) != (om[s], om[t]):
                yield "endpoints", Functor(S, T, om, {**F.morphism_map, m: fm})
                break
    ids = {x: S.identity[x] for x in S.objects}
    if len(ids) < S.n_morphisms():
        W = validate_category(S.objects, [(i, x, x) for x, i in ids.items()], ids,
                              {(i, i): i for i in ids.values()})
        yield "not full", Functor(W, T, om, {i: F.morphism_map[i] for i in ids.values()})


def test_fully_faithful_on_corpus_inclusions_and_their_mutants():
    kinds = set()
    for F in fully_faithful_functors():
        assert F.is_fully_faithful() and fully_faithful_by_pairs(F)
        for kind, G in mutants(F):
            kinds.add(kind)
            assert not G.is_fully_faithful() and not fully_faithful_by_pairs(G), kind
    assert kinds == {"duplicate", "endpoints", "not full"}
    # full, not faithful: the images fill T(*, *), but two morphisms share one
    F = Functor(delooping(cyclic_group(4)), delooping(cyclic_group(2)), {"*": "*"},
                {"c0": "c0", "c1": "c1", "c2": "c0", "c3": "c1"}).validate()
    assert not F.is_fully_faithful() and not fully_faithful_by_pairs(F)
    # the non-full case in its smallest form: S(0, 1) is empty, T(0, 1) is not
    arrow = arrow_category()
    two = discrete_category(["0", "1"])
    F = Functor(two, arrow, {"0": "0", "1": "1"}, {"id:0": "0<=0", "id:1": "1<=1"}).validate()
    assert not F.is_fully_faithful() and not fully_faithful_by_pairs(F)


# -- the isomorphism search ----------------------------------------------------


def test_object_profiles_match_their_definition():
    """(|C(x, x)|, sorted |C(x, y)| over all y, sorted |C(y, x)| over all y),
    zeros included, as a scan of every pair of objects computes it."""
    cats = [span.B for group in (None, "Z2") for span in dwyer_span_corpus(5, 3, group)]
    cats += [arrow_category(), discrete_category(["a", "b", "c"]), delooping(cyclic_group(3)),
             product_category(chaotic_category(["a", "b"]), arrow_category())]
    for C in cats:
        assert _object_profiles(C) == {
            x: (len(C.hom(x, x)), tuple(sorted(len(C.hom(x, y)) for y in C.objects)),
                tuple(sorted(len(C.hom(y, x)) for y in C.objects)))
            for x in C.objects}


def test_isomorphism_search_needs_no_recursion():
    """E(32) has 1,024 hom-sets and fits WIDE_CAPS.  The search keeps its
    branch points on explicit stacks, so it is not bounded by Python's
    recursion limit, which one frame per hom-set passed.  It takes 1,057
    nodes: the root, 32 object assignments and one permutation per hom-set."""
    def chaotic(prefix):
        X = [f"{prefix}{k:02d}" for k in range(32)]
        return thin_category(X, itertools.product(X, repeat=2), lambda x, y: f"{x}>{y}", WIDE_CAPS)

    C, D = chaotic("a"), chaotic("b")
    with pytest.raises(SizeCapExceeded, match=r"^isomorphism search: 1057 exceeds cap 1056$"):
        find_isomorphism(C, D, dataclasses.replace(WIDE_CAPS, max_candidates=1056))
    F = find_isomorphism(C, D, WIDE_CAPS)
    assert F.object_map == {f"a{k:02d}": f"b{k:02d}" for k in range(32)}
    assert is_isomorphism_functor(F)


def test_isomorphism_search_counts_its_nodes_past_dead_ends():
    """E({a,b}) × BZ4 onto a copy whose group elements sort as e, w = c2,
    x = c1, y = c3: the first permutations of the first hom-set are no
    homomorphism.  The search takes 15 nodes, as it did when each node
    rescanned every compose entry."""
    Z4 = cyclic_group(4)
    name = {"c0": "e", "c1": "x", "c2": "w", "c3": "y"}
    Z4r = make_group(name.values(), {(name[a], name[b]): name[v] for (a, b), v in Z4.table.items()},
                     "e")
    E2 = chaotic_category(["a", "b"])
    C, D = product_category(E2, delooping(Z4)), product_category(E2, delooping(Z4r))
    with pytest.raises(SizeCapExceeded, match=r"^isomorphism search: 15 exceeds cap 14$"):
        find_isomorphism(C, D, SizeCaps(max_candidates=14))
    F = find_isomorphism(C, D, SizeCaps(max_candidates=15))
    assert (F.morphism_map["(a>a,c1)"], F.morphism_map["(a>a,c2)"]) == ("(a>a,x)", "(a>a,w)")
