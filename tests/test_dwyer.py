"""Sieves, witnesses, explicit pushouts, closure transports."""

import dataclasses
import hashlib
from types import SimpleNamespace

import pytest

from gcat import corpus, dwyer, serialize as ser
from gcat.config import WIDE_CAPS
from gcat.errors import DanglingReference, EquivarianceViolation, GcatError
from gcat.fincat import (
    Functor,
    arrow_category,
    chain_poset,
    discrete_category,
    find_isomorphism,
    identity_functor,
    pair_mor,
    pair_obj,
    poset_from_relation,
    product_category,
    product_functor,
    terminal_category,
    validate_category,
)
from gcat.actions import (
    MonoidActionCat,
    chaotic_action,
    chaotic_category,
    delooping,
    cyclic_group,
    fixed_category,
    restrict_action,
    subgroup_from_elements,
    subgroups,
    trivial_action,
)
from gcat.sset import (
    boundary_complex,
    h_sd2_map,
    homology,
    horn_complex,
    nerve,
    nerve_functor,
    pushout_sset,
    standard_simplex_complex,
)
from gcat.dwyer import (
    DwyerWitness,
    dwyer_pushout,
    equivariant_dwyer_pushout,
    find_dwyer_witness,
    fun_witness,
    is_cosieve,
    is_sieve,
    pushout_cross_check,
    restrict_witness_to_fixed,
)
from gcat.corpus import dwyer_span_corpus
from gcat.weq import GeneratorSpec, generating_maps

from helpers import monoid_dwyer_check, zero_monoid


def embed_at(obj):
    one = terminal_category()
    arrow = arrow_category()
    return Functor(one, arrow, {"*": obj}, {"id*": f"{obj}<={obj}"}).validate()


def test_sieve_cosieve_on_arrow():
    i0, i1 = embed_at("0"), embed_at("1")
    assert is_sieve(i0) and not is_cosieve(i0)
    assert not is_sieve(i1) and is_cosieve(i1)


def test_hsd2_inclusions_are_sieves():
    m = h_sd2_map(boundary_complex(1), standard_simplex_complex(1))
    assert is_sieve(m)


def test_witness_for_embedding_at_source():
    w = find_dwyer_witness(embed_at("0"))
    assert w is not None
    assert w.X.objects == ("0", "1")
    assert w.counit == {"0": "0<=0", "1": "0<=1"}
    # the adjunction bijection Hom([1])(0, y) ≅ Hom(1)(*, r y) holds per object
    for y in ("0", "1"):
        assert len(w.X.hom("0", y)) == 1


def test_no_witness_when_not_sieve():
    assert find_dwyer_witness(embed_at("1")) is None


def test_hsd2_witnesses_up_to_dim_2():
    for n in range(0, 3):
        m = h_sd2_map(boundary_complex(n), standard_simplex_complex(n))
        w = find_dwyer_witness(m)
        assert w is not None
        w.validate()
    for n in range(1, 3):
        for k in range(n + 1):
            m = h_sd2_map(horn_complex(n, k), standard_simplex_complex(n))
            w = find_dwyer_witness(m)
            assert w is not None
            w.validate()


def disjoint_union_with_point():
    """E({a,b}) ⊔ 1, with the swap as a retraction r of X = E({a,b}) and
    the counit that makes (r, ε) an adjunction with unit a <-> b."""
    E2 = chaotic_category(["a", "b"])
    objs = ["a", "b", "z"]
    mors = list(E2.morphisms) + [("idz", "z", "z")]
    ident = {"a": "a>a", "b": "b>b", "z": "idz"}
    comp = dict(E2.compose)
    comp[("idz", "idz")] = "idz"
    D = validate_category(objs, mors, ident, comp)
    iE = Functor(E2, D, {"a": "a", "b": "b"}, {m: m for m in E2.morphism_ids})
    X = D.full_subcategory(["a", "b"])
    swap = Functor(X, E2, {"a": "b", "b": "a"},
                   {"a>a": "b>b", "a>b": "b>a", "b>a": "a>b", "b>b": "a>a"})
    return SimpleNamespace(i=iE, r=swap, counit={"a": "b>a", "b": "a>b"})


def test_witness_refuses_a_non_identity_unit():
    """A retraction with r∘f ≅ id_A but not equal to it is refused when the
    witness is built; the retraction that is the identity on A gives the
    witness and its pushout."""
    data = disjoint_union_with_point()
    with pytest.raises(GcatError, match="r∘f is not the identity of A"):
        DwyerWitness(data.i, data.r, data.counit)
    E2 = data.i.source
    r = Functor(data.r.source, E2, {x: x for x in E2.objects}, {m: m for m in E2.morphism_ids})
    w = DwyerWitness(data.i, r, {"a": "a>a", "b": "b>b"})
    one = terminal_category()
    c = Functor(E2, one, {"a": "*", "b": "*"}, {m: "id*" for m in E2.morphism_ids})
    po = dwyer_pushout(E2, w.i.target, one, w.i, c, w)
    assert po.category.n_objects() == 2


def test_pushout_collapse_is_arrow():
    one = terminal_category()
    w = find_dwyer_witness(embed_at("0"))
    po = dwyer_pushout(one, arrow_category(), one, embed_at("0"),
                       identity_functor(one), w)
    assert find_isomorphism(po.category, arrow_category()) is not None


def test_pushout_glue_is_chain_two():
    one = terminal_category()
    w = find_dwyer_witness(embed_at("0"))
    po = dwyer_pushout(one, arrow_category(), arrow_category(), embed_at("0"),
                       embed_at("1"), w)
    assert find_isomorphism(po.category, chain_poset(2).to_fincat()) is not None


def test_pushout_along_identity_sieve():
    arrow = arrow_category()
    w = find_dwyer_witness(identity_functor(arrow))
    po = dwyer_pushout(arrow, arrow, arrow, identity_functor(arrow),
                       identity_functor(arrow), w)
    assert find_isomorphism(po.category, arrow) is not None


def test_cross_check_on_curated_and_seeded():
    one = terminal_category()
    w = find_dwyer_witness(embed_at("0"))
    agree, _, _ = pushout_cross_check(one, arrow_category(), arrow_category(),
                                      embed_at("0"), embed_at("1"), w)
    assert agree
    for span in dwyer_span_corpus(11, 6):
        ok, _, _ = pushout_cross_check(span.A, span.B, span.C, span.i, span.c, span.witness)
        assert ok, span.label


def two_swapped_arrows():
    """Z/2 swapping two disjoint copies of (1 ↪ [1])."""
    Z2 = cyclic_group(2)
    objs = ["0a", "0b", "1a", "1b"]
    mors = [("ia", "0a", "0a"), ("ja", "1a", "1a"), ("fa", "0a", "1a"),
            ("ib", "0b", "0b"), ("jb", "1b", "1b"), ("fb", "0b", "1b")]
    ident = {"0a": "ia", "1a": "ja", "0b": "ib", "1b": "jb"}
    comp = {}
    for m, s, t in mors:
        comp[(m, ident[s])] = m
        comp[(ident[t], m)] = m
    B = validate_category(objs, mors, ident, comp)
    swapB = Functor(B, B, {"0a": "0b", "1a": "1b", "0b": "0a", "1b": "1a"},
                    {"ia": "ib", "ja": "jb", "fa": "fb", "ib": "ia", "jb": "ja", "fb": "fa"})
    actB = MonoidActionCat(Z2, B, {"c0": identity_functor(B), "c1": swapB}).validate()
    A = discrete_category(["0a", "0b"])
    i = Functor(A, B, {"0a": "0a", "0b": "0b"}, {"id:0a": "ia", "id:0b": "ib"}).validate()
    swapA = Functor(A, A, {"0a": "0b", "0b": "0a"}, {"id:0a": "id:0b", "id:0b": "id:0a"})
    actA = MonoidActionCat(Z2, A, {"c0": identity_functor(A), "c1": swapA}).validate()
    return Z2, A, B, i, actA, actB


def test_equivariant_witness_and_pushout():
    Z2, A, B, i, actA, actB = two_swapped_arrows()
    w = find_dwyer_witness(i, (Z2, actA, actB))
    assert w is not None
    action, po = equivariant_dwyer_pushout(actA, actB, actA, i, identity_functor(A), w)
    assert po.category.n_objects() == 4
    # the action swaps the two copies; fixed points are empty
    assert fixed_category(action, Z2).n_objects() == 0
    # fixed-point commutation degenerates to the empty pushout
    wH = restrict_witness_to_fixed(w, Z2)
    assert wH.i.source.n_objects() == 0 and wH.i.target.n_objects() == 0


def test_trivial_restriction_returns_same_shape():
    Z2, A, B, i, actA, actB = two_swapped_arrows()
    w = find_dwyer_witness(i, (Z2, actA, actB))
    triv = subgroup_from_elements(Z2, ["c0"])
    w1 = restrict_witness_to_fixed(w, triv)
    assert w1.i.source.objects == A.objects
    assert w1.X.objects == w.X.objects


def product_witness(S, w, act_S=None):
    """Witness for S × i: S × A -> S × B, equivariant for the diagonal
    actions when w is equivariant and S carries the action act_S."""
    SA = product_category(S, w.i.source)
    SB = product_category(S, w.i.target)
    SX = SB.full_subcategory([pair_obj(s, x) for s in S.objects for x in w.X.objects])
    i2 = product_functor(identity_functor(S), w.i, SA, SB)
    r2 = Functor(SX, SA,
                 {pair_obj(s, x): pair_obj(s, w.r.object_map[x])
                  for s in S.objects for x in w.X.objects},
                 {pair_mor(m, n): pair_mor(m, w.r.morphism_map[n])
                  for m in S.morphism_ids for n in w.X.morphism_ids})
    counit = {pair_obj(s, x): pair_mor(S.identity[s], w.counit[x])
              for s in S.objects for x in w.X.objects}
    if w.group is None or act_S is None:
        return DwyerWitness(i2, r2, counit)
    acts = [MonoidActionCat(w.group, P, {g: product_functor(act_S.act[g], act.act[g], P, P)
                                         for g in w.group.elements}).validate()
            for P, act in ((SA, w.act_A), (SB, w.act_B))]
    return DwyerWitness(i2, r2, counit, w.group, *acts)


def test_product_witness_with_point_and_chaotic():
    one = terminal_category()
    w = find_dwyer_witness(embed_at("0"))
    wp = product_witness(one, w)
    assert wp.i.source.n_objects() == 1 and wp.i.target.n_objects() == 2
    E2 = chaotic_category(["a", "b"])
    wE = product_witness(E2, w)
    wE.validate()
    assert wE.i.target.n_objects() == 4


def test_product_witness_carries_the_product_actions():
    """With an action on S, S × i is equivariant for the diagonal actions,
    and its witness is the one the construction finds for them."""
    Z2, A, B, i, actA, actB = two_swapped_arrows()
    w = find_dwyer_witness(i, (Z2, actA, actB))
    act_S = chaotic_action(Z2, {"c0": {"p": "p", "q": "q"}, "c1": {"p": "q", "q": "p"}})
    wp = product_witness(act_S.carrier, w, act_S)
    assert wp.group is Z2
    assert wp.act_A.carrier is wp.i.source and wp.act_B.carrier is wp.i.target
    assert wp.act_B.ob("c1", pair_obj("p", "1a")) == pair_obj("q", "1b")
    found = find_dwyer_witness(wp.i, (Z2, wp.act_A, wp.act_B))
    assert ser.witness_doc(found) == ser.witness_doc(wp)


def test_fun_witness_revalidates():
    E2 = chaotic_category(["x", "y"])
    w = find_dwyer_witness(embed_at("0"))
    w2, data = fun_witness(E2, w)
    w2.validate()
    # Fun(E2, 1) ≅ 1 and Fun(E2, [1]) ≅ [1] for poset targets
    assert w2.i.source.n_objects() == 1
    assert w2.i.target.n_objects() == 2


def test_monoid_dwyer_check_uses_core():
    M = zero_monoid()
    one = terminal_category()
    arrow = arrow_category()
    i = embed_at("0")
    actA = trivial_action(M, one)
    actB = trivial_action(M, arrow)
    w = monoid_dwyer_check(i, actA, actB)
    assert w is not None
    assert set(w.group.elements) == {"1", "g"}


def test_trivial_action_always_admits_equivariant_witness():
    Z2 = cyclic_group(2)
    i = embed_at("0")
    w = find_dwyer_witness(i, (Z2, trivial_action(Z2, i.source),
                               trivial_action(Z2, i.target)))
    assert w is not None


def test_witness_revalidates_from_raw_data():
    for span in dwyer_span_corpus(3, 4, "Z2"):
        w = span.witness
        rebuilt = DwyerWitness(w.i, w.r, w.counit, w.group, w.act_A, w.act_B)
        rebuilt.validate()


def test_each_witness_is_validated_once(monkeypatch):
    """The pipeline of the spans benchmark validates every witness it builds
    once, when it is built, and no witness can change after that."""
    validated = []
    validate = DwyerWitness.validate

    def counted(self, **kwargs):
        validated.append(self)
        return validate(self, **kwargs)

    monkeypatch.setattr(DwyerWitness, "validate", counted)
    for span in dwyer_span_corpus(3, 3, "Z2"):
        w = find_dwyer_witness(span.i, (span.group, span.act_A, span.act_B))
        equivariant_dwyer_pushout(span.act_A, span.act_B, span.act_C, span.i, span.c, w)
        pushout_cross_check(span.A, span.B, span.C, span.i, span.c, w)
        for H in subgroups(span.group):
            wH = restrict_witness_to_fixed(w, H)
            CH = fixed_category(restrict_action(span.act_C, H), H)
            cH = Functor(wH.i.source, CH, {x: span.c.object_map[x] for x in wH.i.source.objects},
                         {m: span.c.morphism_map[m] for m in wH.i.source.morphism_ids})
            dwyer_pushout(wH.i.source, wH.i.target, CH, wH.i, cH, wH)
    # three spans, each witness built twice (corpus and search), two subgroups
    assert len(validated) == 3 * (2 + 2)
    assert len({id(w) for w in validated}) == len(validated)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.r = w.r


def test_each_span_leg_c_is_validated_once(monkeypatch):
    """c is validated where it is built: by the corpus for each of its four
    styles (the cone and chaotic legs by `thin_functor`, whose build is its
    whole check), and here for each restriction cH to fixed points.  The
    equivariant pushout, the per-subgroup pushouts and the cross-check
    against the presented pushout do not validate it again."""
    validated = []
    validate, thin = Functor.validate, corpus.thin_functor

    def counted(self):
        validated.append(self)
        return validate(self)

    def counted_thin(*args):
        validated.append(thin(*args))
        return validated[-1]

    monkeypatch.setattr(Functor, "validate", counted)
    monkeypatch.setattr(corpus, "thin_functor", counted_thin)
    spans = dwyer_span_corpus(3, 3, "Z2") + dwyer_span_corpus(6, 2, "Z2")
    assert {span.label for span in spans} == {"collapse", "identity", "cone", "chaotic"}
    for span in spans:
        legs = [span.c]
        equivariant_dwyer_pushout(span.act_A, span.act_B, span.act_C, span.i, span.c, span.witness)
        pushout_cross_check(span.A, span.B, span.C, span.i, span.c, span.witness)
        for H in subgroups(span.group):
            wH = restrict_witness_to_fixed(span.witness, H)
            CH = fixed_category(restrict_action(span.act_C, H), H)
            cH = Functor(wH.i.source, CH, {x: span.c.object_map[x] for x in wH.i.source.objects},
                         {m: span.c.morphism_map[m] for m in wH.i.source.morphism_ids}).validate()
            dwyer_pushout(wH.i.source, wH.i.target, CH, wH.i, cH, wH)
            legs.append(cH)
        assert [sum(F is c for F in validated) for c in legs] == [1] * len(legs), span.label


def test_find_dwyer_witness_checks_its_inclusion_once(monkeypatch):
    """The search checks that i is a subcategory inclusion once, where it
    tests i for a sieve; the witness it builds does not check i again, but an
    explicit `validate` and a witness built by hand check everything."""
    checked = []
    check = dwyer.check_subcategory_inclusion

    def counted(j):
        checked.append(j)
        return check(j)

    monkeypatch.setattr(dwyer, "check_subcategory_inclusion", counted)
    spans = dwyer_span_corpus(3, 3, "Z2") + dwyer_span_corpus(4, 3, None)
    for span in spans:
        del checked[:]
        equivariance = (span.group, span.act_A, span.act_B) if span.group else None
        w = find_dwyer_witness(span.i, equivariance)
        assert sum(j is span.i for j in checked) == 1
        del checked[:]
        w.validate()
        assert sum(j is span.i for j in checked) == 1
        del checked[:]
        DwyerWitness(w.i, w.r, w.counit, w.group, w.act_A, w.act_B)
        assert sum(j is span.i for j in checked) == 1
    del checked[:]
    assert find_dwyer_witness(embed_at("1")) is None
    assert len(checked) == 1


def test_nerve_comparison_small():
    # N(B) ⊔_{N(A)} N(C) -> N(D) is a homology equivalence (glue case)
    one = terminal_category()
    arrow = arrow_category()
    i = embed_at("0")
    c = embed_at("1")
    w = find_dwyer_witness(i)
    po = dwyer_pushout(one, arrow, arrow, i, c, w)
    NA, NB, NC, ND = (nerve(x, 3) for x in (one, arrow, arrow, po.category))
    ni = nerve_functor(i, NA, NB, 3)
    nc = nerve_functor(c, NA, NC, 3)
    P, from_b, from_c = pushout_sset(ni, nc)
    assert homology(P, 3) == homology(ND, 3)


def swapped_cone():
    """Z/2 swapping a and b in E({a,b}) and fixing the cone point x."""
    Z2 = cyclic_group(2)
    E2 = chaotic_category(["a", "b"])
    objs = ["a", "b", "x"]
    mors = list(E2.morphisms) + [("ax", "a", "x"), ("bx", "b", "x"), ("idx", "x", "x")]
    ident = {"a": "a>a", "b": "b>b", "x": "idx"}
    to_x = {"a": "ax", "b": "bx"}
    comp = dict(E2.compose)
    for m, s, t in E2.morphisms:
        comp[(to_x[t], m)] = to_x[s]
    for m in ("ax", "bx", "idx"):
        comp[("idx", m)] = m
    B = validate_category(objs, mors, ident, comp)
    i = Functor(E2, B, {"a": "a", "b": "b"}, {m: m for m in E2.morphism_ids}).validate()
    swap = {"a": "b", "b": "a", "x": "x", "ax": "bx", "bx": "ax", "idx": "idx",
            "a>a": "b>b", "a>b": "b>a", "b>a": "a>b", "b>b": "a>a"}
    swapB = Functor(B, B, {x: swap[x] for x in objs}, {m: swap[m] for m in B.morphism_ids})
    swapA = Functor(E2, E2, {x: swap[x] for x in E2.objects},
                    {m: swap[m] for m in E2.morphism_ids})
    actB = MonoidActionCat(Z2, B, {"c0": identity_functor(B), "c1": swapB}).validate()
    actA = MonoidActionCat(Z2, E2, {"c0": identity_functor(E2), "c1": swapA}).validate()
    return Z2, i, actA, actB


def test_stabilizer_must_fix_the_universal_arrow():
    """Both a -> x and b -> x are universal, and the swap fixing x moves
    each: no equivariant witness, but a plain one with r(x) = a."""
    Z2, i, actA, actB = swapped_cone()
    assert find_dwyer_witness(i, (Z2, actA, actB)) is None
    w = find_dwyer_witness(i)
    assert w.X.objects == ("a", "b", "x")
    assert w.r.object_map["x"] == "a" and w.counit["x"] == "ax"
    assert w.r.morphism_map["bx"] == "b>a"


def test_witness_beyond_any_cosieve_count():
    """[1] beside 21 isolated points: 2^21 cosieves contain the image, and
    the witness needs none of them to be listed."""
    B = poset_from_relation([f"a{k}" for k in range(23)], [("a0", "a1")]).to_fincat()
    A = B.full_subcategory(["a0"])
    i = Functor(A, B, {"a0": "a0"}, {m: m for m in A.morphism_ids}).validate()
    w = find_dwyer_witness(i)
    assert w.X.objects == ("a0", "a1")
    assert w.r.object_map == {"a0": "a0", "a1": "a0"}
    w.validate()


def test_witness_of_empty_source():
    """Nothing is universal into any object from an empty A, so X is empty."""
    empty = discrete_category([])
    for B in (arrow_category(), discrete_category(["p", "q"])):
        w = find_dwyer_witness(Functor(empty, B, {}, {}).validate())
        assert w.X.objects == ()
        assert w.r.object_map == {} and w.counit == {}


def copies_over(A, apex):
    """Z/2 swapping two copies x, y of the representable A(-, apex) glued on
    top of A, on which it acts trivially; A ↪ B is an equivariant Dwyer map
    whose cosieve is all of B, with r(x) = r(y) = apex."""
    Z2 = cyclic_group(2)
    mors = list(A.morphisms) + [("idx", "x", "x"), ("idy", "y", "y")]
    comp = {**A.compose, ("idx", "idx"): "idx", ("idy", "idy"): "idy"}
    swap = {"x": "y", "y": "x", "idx": "idy", "idy": "idx"}
    for c, other in ("xy", "yx"):
        for m, s, t in A.morphisms:
            if t == apex:
                mors.append((f"{c}:{m}", s, c))
                comp[(f"id{c}", f"{c}:{m}")] = f"{c}:{m}"
                swap[f"{c}:{m}"] = f"{other}:{m}"
        for (g, f), h in A.compose.items():
            if A.dst[g] == apex:
                comp[(f"{c}:{g}", f)] = f"{c}:{h}"
    B = validate_category(list(A.objects) + ["x", "y"], mors,
                          {**A.identity, "x": "idx", "y": "idy"}, comp)
    swapB = Functor(B, B, {b: swap.get(b, b) for b in B.objects},
                    {m: swap.get(m, m) for m in B.morphism_ids})
    actB = MonoidActionCat(Z2, B, {"c0": identity_functor(B), "c1": swapB}).validate()
    i = Functor(A, B, {a: a for a in A.objects}, {m: m for m in A.morphism_ids}).validate()
    return find_dwyer_witness(i, (Z2, trivial_action(Z2, A), actB))


def with_counit_at(w, x, e):
    """w with the universal arrow e: f(a) -> x as ε_x and r rebuilt from the
    counit: r'(x) = a and r'(m) is the h with ε'_t ∘ f(h) = m ∘ ε'_s."""
    A, X, f = w.i.source, w.X, w.f
    eps = {**w.counit, x: e}
    preimage = {f.object_map[a]: a for a in A.objects}
    r_ob = {y: preimage[X.src[eps[y]]] for y in X.objects}
    r_mor = {m: next(h for h in A.hom(r_ob[s], r_ob[t])
                     if X.compose[(eps[t], f.morphism_map[h])] == X.compose[(m, eps[s])])
             for m, s, t in X.morphisms}
    r = Functor(X, A, r_ob, r_mor)
    return dict(r=r, counit=eps)


@pytest.mark.parametrize("A, apex, e, moved", [
    (chaotic_category(["a", "b"]), "a", "x:b>a", "object"),
    (delooping(cyclic_group(2)), "*", "x:c1", "morphism")])
def test_witness_rejects_a_non_equivariant_r(A, apex, e, moved):
    """Another universal arrow as ε_x gives an r that is still a right
    adjoint but no longer commutes with the swap of x and y: it moves r(x)
    (b for a), or keeps r on objects and moves its value on the arrows into
    x (c1 for c0).  The plain witness validates; the equivariant one raises
    at r, naming the group element (the counit check would name (g, x))."""
    w = copies_over(A, apex)
    mutant = with_counit_at(w, "x", e)
    assert (mutant["r"].object_map != w.r.object_map) == (moved == "object")
    assert mutant["r"].morphism_map != w.r.morphism_map
    dataclasses.replace(w, group=None, act_A=None, act_B=None, **mutant)
    with pytest.raises(EquivarianceViolation) as failure:
        dataclasses.replace(w, **mutant)
    assert failure.value.witness == "c1"


def test_witness_rejects_an_unstable_cosieve():
    """The cosieve must be stable under the action the witness carries.  A
    valid action that makes i equivariant keeps it stable, as X is every
    object an arrow from i(A) reaches; so the action here, which fixes A
    and sends x to a and y to x, is not one."""
    w = copies_over(chaotic_category(["a", "b"]), "a")
    swap = w.act_B.act["c1"]
    moved = Functor(swap.source, swap.target, {**swap.object_map, "x": "a", "y": "x"},
                    swap.morphism_map)
    act_B = MonoidActionCat(w.group, w.act_B.carrier, {"c0": w.act_B.act["c0"], "c1": moved})
    with pytest.raises(EquivarianceViolation, match="cosieve not stable") as failure:
        dataclasses.replace(w, act_B=act_B)
    assert failure.value.witness == "c1"


def idempotent_under_x():
    """a with an idempotent e and one arrow p: a -> x, with p∘e = p.  With
    r(x) = a and r(p) = e, ε_x = p is natural and ε_a = id_a, but r(ε_x) = e:
    the second triangle identity fails."""
    objs = ["a", "x"]
    mors = [("ida", "a", "a"), ("e", "a", "a"), ("p", "a", "x"), ("idx", "x", "x")]
    comp = {("ida", "ida"): "ida", ("e", "ida"): "e", ("ida", "e"): "e", ("e", "e"): "e",
            ("p", "ida"): "p", ("p", "e"): "p", ("idx", "p"): "p", ("idx", "idx"): "idx"}
    B = validate_category(objs, mors, {"a": "ida", "x": "idx"}, comp)
    A = B.full_subcategory(["a"])
    i = Functor(A, B, {"a": "a"}, {"ida": "ida", "e": "e"}).validate()
    r = Functor(B, A, {"a": "a", "x": "a"}, {"ida": "ida", "e": "e", "p": "e", "idx": "ida"})
    return DwyerWitness(i, r, {"a": "ida", "x": "p"})


def at0_with(objects, counit=None, r_morphisms=None):
    """The witness of the point at 0 in [1], with the cosieve on `objects`,
    r collapsing it (on `r_morphisms`, all of its morphisms by default) and
    ε the arrows from 0 (or `counit`)."""
    X = arrow_category().full_subcategory(objects)
    r = Functor(X, terminal_category(), {x: "*" for x in objects},
                {m: "id*" for m in (X.morphism_ids if r_morphisms is None else r_morphisms)})
    return DwyerWitness(embed_at("0"), r, counit or {x: f"0<={x}" for x in objects})


def with_counit(w, **components):
    return dataclasses.replace(w, group=None, act_A=None, act_B=None,
                               counit={**w.counit, **components})


def swapped_source(w):
    """w with A swapped by c1, which i, fixed by act_B, does not commute with."""
    swap = chaotic_action(w.group, {"c0": {"a": "a", "b": "b"}, "c1": {"a": "b", "b": "a"}})
    return dataclasses.replace(w, act_A=swap)


BZ2 = delooping(cyclic_group(2))


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: dataclasses.replace(find_dwyer_witness(embed_at("0")), i=embed_at("1")),
                 GcatError, "witness functor is not a sieve", id="sieve"),
    pytest.param(lambda: at0_with(["0"]),
                 GcatError, "witness cosieve is not a cosieve", id="cosieve"),
    pytest.param(lambda: at0_with(["1"], {"1": "1<=1"}),
                 GcatError, "cosieve does not contain the image of i", id="image"),
    pytest.param(lambda: at0_with(["0", "1"], r_morphisms=["0<=0", "1<=1"]),
                 DanglingReference, "morphism map undefined/invalid at '0<=1'", id="r-functor"),
    pytest.param(lambda: at0_with(["0", "1"], {"0": "0<=0"}),
                 DanglingReference, "component missing/invalid at '1'", id="counit-missing"),
    pytest.param(lambda: at0_with(["0", "1"], {"0": "0<=0", "1": "1<=1"}),
                 DanglingReference, "component at '1' has wrong endpoints", id="counit-endpoints"),
    pytest.param(lambda: with_counit(copies_over(BZ2, "*"), x="x:c1"),
                 GcatError, "naturality fails at 'x:c0'", id="counit-natural"),
    pytest.param(lambda: with_counit(find_dwyer_witness(identity_functor(BZ2)), **{"*": "c1"}),
                 GcatError, "triangle identity εf = id fails at '\\*'", id="triangle-f"),
    pytest.param(idempotent_under_x,
                 GcatError, "triangle identity rε = id fails at 'x'", id="triangle-r"),
    pytest.param(lambda: swapped_source(copies_over(chaotic_category(["a", "b"]), "a")),
                 EquivarianceViolation, "functor not equivariant at 'c1'", id="i-equivariant"),
])
def test_each_witness_check_refuses_its_mutant(build, error, message):
    """Each check of `DwyerWitness.validate` refuses a witness that breaks
    only what it checks.  The check of r∘f = id_A has its own test above, as
    have a stable cosieve and an equivariant r.  No mutant reaches the
    counit's equivariance: with the identity unit, ε_x is the one arrow
    f(r x) -> x that r sends to an identity, so an equivariant r fixes it."""
    with pytest.raises(error, match=f"^{message}$"):
        build()


#: sha256 of the witness documents (None for a refutation) of `witness_inputs`
WITNESS_DIGEST = "55629b6e284787fbb99989576936b41fa26df08058def7a878afe9a3f879cdb1"


def witness_inputs():
    """Spans of four groups, the generating maps of six models, and small
    cases with and without witnesses."""
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    out = [span.witness for group, count in ((None, 10), ("Z2", 10), ("Z3", 10), ("S3", 3))
           for seed in range(1, 6) for span in dwyer_span_corpus(seed, count, group)]
    M = zero_monoid()
    models = [("thomason", {}, 2), ("global", {"H": Z2}, 2), ("global", {"H": Z3}, 2),
              ("g_global_thin", {"H": Z2, "G": Z2, "phi": {h: h for h in Z2.elements}}, 1),
              ("g_homotopy_fp", {"H": Z2, "G": Z2}, 1),
              ("f_model", {"M": M, "H": subgroup_from_elements(M, ["1"])}, 1)]
    for model, params, n_max in models:
        shapes = [(n, None) for n in range(n_max + 1)]
        shapes += [(n, k) for n in range(1, n_max + 1) for k in range(n + 1)]
        for n, k in shapes:
            gm = generating_maps(GeneratorSpec(model, n, k, k is not None, dict(params)),
                                 WIDE_CAPS)
            if model == "f_model":
                out.append(monoid_dwyer_check(gm.functor, gm.act_src, gm.act_dst))
            else:
                out.append(find_dwyer_witness(gm.functor, gm.equivariance))
    V = poset_from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")]).to_fincat()
    ab = V.full_subcategory(["a", "b"])
    Z2c, i, actA, actB = swapped_cone()
    G, _, _, i2, actA2, actB2 = two_swapped_arrows()
    out += [find_dwyer_witness(embed_at("1")),
            find_dwyer_witness(Functor(ab, V, {x: x for x in ab.objects},
                                       {m: m for m in ab.morphism_ids}).validate()),
            find_dwyer_witness(i, (Z2c, actA, actB)), find_dwyer_witness(i),
            find_dwyer_witness(i2, (G, actA2, actB2)),
            find_dwyer_witness(disjoint_union_with_point().i)]
    return out


def test_witnesses_match_the_pinned_digest():
    """The same witness or None, object for object, as the enumeration of
    cosieves and backtracking over r and ε that the construction replaced."""
    docs = [None if w is None else ser.witness_doc(w) for w in witness_inputs()]
    assert sum(d is None for d in docs) == 3
    assert hashlib.sha256(ser.canonical_json(docs).encode()).hexdigest() == WITNESS_DIGEST


#: sha256 of the documents of the witnesses in `built_witnesses`
BUILDER_DIGEST = "90cbce26cc880db63669ee376d4973767dad4c6e32ab17ccf9cd90c781a21fab"


def built_witnesses():
    """The witnesses that `restrict_witness_to_fixed` builds for every
    subgroup on the Z2, Z3 and S3 span corpora, that `fun_witness` builds
    for Fun(E(Z2), -), and that `product_witness` builds with the point and
    with E(2), with and without an action on them."""
    out = [restrict_witness_to_fixed(span.witness, H)
           for group, count in (("Z2", 10), ("Z3", 10), ("S3", 3)) for seed in range(1, 6)
           for span in dwyer_span_corpus(seed, count, group) for H in subgroups(span.group)]
    Z2 = cyclic_group(2)
    plain = [find_dwyer_witness(embed_at("0")),
             find_dwyer_witness(h_sd2_map(boundary_complex(1), standard_simplex_complex(1)))]
    plain += [span.witness for span in dwyer_span_corpus(1, 5)]
    out += [fun_witness(chaotic_category(Z2.elements), w)[0] for w in plain]
    _, _, _, i, actA, actB = two_swapped_arrows()
    equivariant = [find_dwyer_witness(i, (Z2, actA, actB))]
    equivariant += [span.witness for span in dwyer_span_corpus(1, 3, "Z2")]
    swap = chaotic_action(Z2, {"c0": {"p": "p", "q": "q"}, "c1": {"p": "q", "q": "p"}})
    point = trivial_action(Z2, terminal_category())
    out += [product_witness(act.carrier, w) for act in (point, swap)
            for w in plain[:2] + equivariant]
    out += [product_witness(act.carrier, w, act) for act in (point, swap) for w in equivariant]
    return out


def test_built_witnesses_match_the_pinned_digest():
    """Fixed points, functor categories and products of witnesses build the
    same witnesses, object for object, as when the witness stored its
    corestriction f, its unit and its cosieve's object list."""
    docs = [ser.witness_doc(w) for w in built_witnesses()]
    assert sum(d["equivariant"] for d in docs) == 8
    assert hashlib.sha256(ser.canonical_json(docs).encode()).hexdigest() == BUILDER_DIGEST
