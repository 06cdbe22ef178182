"""Dimension-capped finite simplicial sets in nondegenerate normal form.

A simplex is stored as a normal form (core id, alpha) where the core is a
nondegenerate simplex and alpha is the monotone surjection expressing the
degeneracy (identity alpha = the core itself).  The faces of each
nondegenerate simplex are stored.  Simplicial operators pull normal forms
back along monotone maps through them (`pull`).  `faces_of`, the one face
lookup, gives what the pull gives once `validate` has found the stored faces
well formed, in at most one step per face: a nondegenerate simplex's stored
faces, and a degenerate one's from its alpha and its core's stored faces
(the d_i s_j identities).  `validate` checks every simplicial identity
exhaustively, on tables: an alpha is well formed when it is one of the
memoized monotone surjections, and the identities of a simplex are one
comparison of two projections of its faces' faces.  A nerve builds each face
from its chain (`nerve`).

Also here: ordered simplicial complexes with barycentric subdivision and the
poset-level hSd², nerves of categories (equivariant when an action is
present), Kan's Ex with its unit, integer homology via Smith normal form,
and capped Kan-fibration verdicts.  The strict chains of Sd, of hSd² and of
the Sd Δⁿ behind Ex all come from one enumerator, `_strict_chains`.

`FinSSet.face_index(d)` numbers the d-simplices, degenerate ones included,
0, 1, ... in sorted normal-form order.  An n-simplex of Ex(X) is an Sd-map
Sd Δⁿ -> X, stored as a tuple of these ints in the chain order of
`_SdData(n).chains` (a d-chain holds a d-simplex), so int Sd-maps sort as
their normal forms do.  The Sd-maps, Ex, Ex(f), the action check of
`ex_action` and both Kan checkers run on these tables, and all of them
enumerate horns with `_horns`.

Ex is built level by level by décalage (`_sd_maps`): Sd Δⁿ is the cone on
Sd ∂Δⁿ with apex the barycentre [n], so an n-simplex of Ex(X) is a vertex v
of X and a sphere, n+1 compatible (n-1)-simplices, of Ex(X/v), the slice of
X over v (`_slices`); the spheres are horns with no face left out.  The lazy
Kan check fills each horn of Ex(X) over the same slices (`_filler`).
Ex builds its degenerate simplices from the level below.  Ex and the lazy
Ex Kan check refuse a cap above their input's.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import getitem, itemgetter
from typing import NamedTuple

from .config import DEFAULT_CAPS, SizeCaps
from .errors import GcatError, NotAPosetNerve, SizeCapExceeded
from .fincat import (
    FinCat,
    Functor,
    Poset,
    _search,
    _uf_find,
    thin_functor,
)
from .smith import Rows, smith_invariants
from . import actions as _actions


# ---------------------------------------------------------------------------
# monotone maps on finite ordinals, as tuples


@functools.cache
def delta(i, n):
    """Coface δ_i: [n-1] -> [n] (skips i), as a tuple of length n; memoized."""
    return tuple(t if t < i else t + 1 for t in range(n))


@functools.cache
def sigma(i, n):
    """Codegeneracy σ_i: [n+1] -> [n] (repeats i), as a tuple of length n+2; memoized."""
    return tuple(t if t <= i else t - 1 for t in range(n + 2))


def is_identity_alpha(alpha):
    return alpha == tuple(range(len(alpha)))


def compose_tuples(outer, inner):
    """outer ∘ inner as maps; inner: [k] -> [n], outer: [n] -> [m]."""
    return tuple(map(outer.__getitem__, inner))


@functools.cache
def surjections(n, m):
    """All monotone surjections [n] ->> [m], lexicographically ordered, as a
    tuple; memoized.  Each is chosen by the m of n steps where it increases."""
    return tuple(tuple(sum(1 for i in incr if i <= t) for t in range(n + 1))
                 for incr in itertools.combinations(range(1, n + 1), m)) if 0 <= m <= n else ()


@functools.cache
def _alphas(n):
    """Every monotone surjection out of [n], onto any [m], as a frozenset;
    memoized.  A tuple is one exactly when it has length n+1, is monotone and
    is onto [its last entry], so on a hit membership is the whole
    well-formedness check, and the callers test those three only on a miss.
    Empty above n = 10, where the table would hold 2^n tuples: there the
    callers' tests decide every alpha."""
    if n > 10:
        return frozenset()
    return frozenset(itertools.chain.from_iterable(surjections(n, m) for m in range(n + 1)))


@functools.cache
def _degenerate_faces(alpha):
    """How to read the faces of a degenerate (c, alpha), alpha: [n] ->> [m];
    memoized.  Face i is a pair (g, s).  With s None, alpha(i) occurs at i-1
    or i+1 too, and d_i (c, alpha) = (c, g), g being alpha with position i
    removed.  Otherwise s = alpha(i) occurs at i only, and with the core's
    stored face d_s = (c', beta), d_i (c, alpha) = (c', beta∘g), where g is
    alpha with position i removed and each value above s lowered by one."""
    out = []
    for i, s in enumerate(alpha):
        g = alpha[:i] + alpha[i + 1:]
        if s in g:   # at i-1 or i+1, alpha being monotone
            out.append((g, None))
        else:
            out.append((tuple(v - (v > s) for v in g), s))
    return tuple(out)


@functools.cache
def _identity_pairs(n):
    """The simplicial identities d_i d_j = d_{j-1} d_i (i < j) of an n-simplex
    as positions in its faces' faces laid end to end (n per face): getters
    of both sides over every pair at once, and the pairs (j, i) in checking
    order for naming the first that fails.  Memoized."""
    pairs = [(j, i) for j in range(n + 1) for i in range(j)]
    return (itemgetter(*[j * n + i for j, i in pairs]),
            itemgetter(*[i * n + j - 1 for j, i in pairs]), tuple(pairs))


# ---------------------------------------------------------------------------
# finite simplicial sets


class _SimplexTable(NamedTuple):
    """A FinSSet's n-simplices, degenerate ones included, as 0, 1, ... in sorted normal-form order."""

    faces: dict    # int -> int face tuple, in `all_simplices` order
    groups: dict   # int face tuple -> the ints with those faces, in `all_simplices` order
    nfs: tuple     # int -> normal form
    number: dict   # normal form -> int


@dataclass(frozen=True, eq=False)
class FinSSet:
    """Nondegenerate simplices per dimension with faces in normal form."""

    cap: int
    cells: dict   # dim -> tuple of nondegenerate simplex ids (sorted)
    faces: dict   # (dim, id) -> tuple of normal forms (length dim+1)
    _face_memo: dict = field(default_factory=dict, init=False, repr=False)  # dim -> _SimplexTable

    def n_nondeg(self, n):
        return len(self.cells.get(n, ()))

    def dims(self):
        return sorted(n for n, ids in self.cells.items() if ids and 0 <= n <= self.cap)

    def nf_of(self, n, sid):
        return (sid, tuple(range(n + 1)))

    def pull(self, nf, f):
        """f*(simplex): pull a normal form back along a monotone map f.

        f is a tuple [k] -> [dim(nf)], not necessarily surjective.  While
        g = alpha∘f misses a vertex s of the core, g factors through δ_s, so
        the core is replaced by its stored face d_s = (c', beta) and g by
        beta∘δ_s⁻¹∘g; a g onto the core's vertices is the normal form's alpha.
        """
        core, alpha = nf
        g = compose_tuples(alpha, f)
        dim = alpha[-1]
        while True:
            missed = set(range(dim + 1)).difference(g)
            if not missed:
                return (core, g)
            s = max(missed)
            core, beta = self.faces[(dim, core)][s]
            g = tuple(beta[v - (v > s)] for v in g)
            dim = beta[-1]

    def faces_of(self, nf):
        """The faces d_0, ..., d_n of an n-simplex: what pulling along each
        δ_i gives once the stored faces are well formed (`validate`), in at
        most one step each.  A nondegenerate one's are its stored faces.  A
        degenerate (c, alpha)'s d_i drops position i of alpha; when alpha(i)
        occurs only there, the core's stored face d_{alpha(i)} takes c's
        place (`_degenerate_faces`), as in one turn of `pull`'s loop."""
        core, alpha = nf
        m = alpha[-1]
        if m == len(alpha) - 1:
            return self.faces[(m, core)]
        stored = self.faces[(m, core)] if m else ()
        out = []
        for g, s in _degenerate_faces(alpha):
            if s is None:
                out.append((core, g))
            else:
                c, beta = stored[s]
                out.append((c, tuple(map(beta.__getitem__, g))))
        return tuple(out)

    def all_simplices(self, n):
        """All n-simplices (including degenerate) as normal forms."""
        out = []
        for m in range(n + 1):
            for cid in self.cells.get(m, ()):
                for alpha in surjections(n, m):
                    out.append((cid, alpha))
        return out

    def face_index(self, n):
        """The `_SimplexTable` of the n-simplices, memoized; face tuples hold
        ints of the (n-1)-table (a 0-simplex has the empty one).  `faces` and
        `groups` follow `all_simplices` order, every search's candidate order."""
        table = self._face_memo.get(n)
        if table is None:
            simplices = self.all_simplices(n)
            nfs = tuple(sorted(simplices))
            number = {v: i for i, v in enumerate(nfs)}
            below = self.face_index(n - 1).number if n else None
            faces = {number[v]: tuple(below[f] for f in self.faces_of(v)) if n else ()
                     for v in simplices}
            groups = {}
            for i, fs in faces.items():
                groups.setdefault(fs, []).append(i)
            table = self._face_memo[n] = _SimplexTable(faces, groups, nfs, number)
        return table

    def total_count(self, n):
        from math import comb
        return sum(comb(n, m) * self.n_nondeg(m) for m in range(n + 1))

    def validate(self, caps: SizeCaps = DEFAULT_CAPS):
        """Check that nothing is stored above the cap or below 0, the ids, that
        faces are stored for the stored simplices only, the shape of every
        stored face and every simplicial identity d_i d_j = d_{j-1} d_i
        (i < j) of every stored simplex.

        An alpha is well formed when it is in `_alphas`; the length,
        monotonicity and surjectivity tests run only on a miss, to name the
        fault (or, above the table's dimensions, to decide).  Once the faces
        are well formed, the identities compare the faces of stored face
        normal forms, each distinct one read once by `faces_of`.  A simplex's
        faces' faces laid end to end hold both sides of every identity, so
        one comparison of two projections (`_identity_pairs`) checks them
        all; only on a mismatch are the pairs scanned, in the order (j, i),
        to name the first that fails.
        """
        if any(n > self.cap for n in self.cells) or any(n > self.cap for n, _ in self.faces):
            raise GcatError(f"simplices stored above cap {self.cap}")
        if any(n < 0 for n in self.cells):
            raise GcatError(f"cells stored at negative dimension {min(self.cells)}")
        cores = {}   # dim -> set of nondegenerate ids
        distinct = {}   # dim -> the normal forms of the stored faces of its simplices
        for n in self.dims():
            ids = self.cells[n]
            cores[n] = set(ids)
            if list(ids) != sorted(cores[n]):
                raise GcatError(f"simplex ids at dim {n} not sorted/unique")
            if len(ids) > caps.max_simplices:
                raise SizeCapExceeded("simplices", len(ids), caps.max_simplices)
            if n == 0:
                continue
            well_formed = distinct[n] = set()   # the face normal forms checked so far
            alphas = _alphas(n - 1)
            for sid in ids:
                fs = self.faces.get((n, sid))
                if fs is None or len(fs) != n + 1:
                    raise GcatError(f"faces missing for ({n},{sid})")
                for nf in fs:
                    if nf in well_formed:
                        continue
                    core, alpha = nf
                    if alpha not in alphas:
                        if len(alpha) != n or not all(alpha[i] <= alpha[i + 1] for i in range(n - 1)):
                            raise GcatError(f"bad face normal form on ({n},{sid})")
                        if set(alpha) != set(range(min(alpha[-1], len(alpha)) + 1)):
                            raise GcatError(f"face alpha not surjective on ({n},{sid})")
                    cdim = alpha[-1]
                    if core not in cores.get(cdim, ()):
                        raise GcatError(f"face core {core!r} unknown at dim {cdim}")
                    well_formed.add(nf)
        # every stored simplex above dimension 0 has its faces, so any more are extra
        if len(self.faces) != sum(len(self.cells[n]) for n in self.dims() if n):
            n, sid = next((n, sid) for n, sid in self.faces
                          if n < 1 or sid not in cores.get(n, ()))
            raise GcatError(f"faces stored for unknown simplex ({n},{sid})")
        # simplicial identities d_i d_j = d_{j-1} d_i for i < j
        for n in self.dims():
            if n < 2:
                continue
            read = {f: self.faces_of(f) for f in distinct[n]}   # a face -> its faces
            lhs, rhs, pairs = _identity_pairs(n)
            for sid in self.cells[n]:
                second = []   # d_i d_j at j * n + i
                for f in self.faces[(n, sid)]:
                    second += read[f]
                if lhs(second) != rhs(second):
                    j, i = next((j, i) for j, i in pairs
                                if second[j * n + i] != second[i * n + j - 1])
                    raise GcatError(f"simplicial identity fails at ({n},{sid},d{i},d{j})")
        return self

    def to_doc(self):
        return {
            "cap": self.cap,
            "cells": {str(n): list(self.cells[n]) for n in self.dims()},
            "faces": [
                [n, sid, [[c, list(a)] for c, a in self.faces[(n, sid)]]]
                for n in self.dims() if n >= 1 for sid in self.cells[n]
            ],
        }


def point_sset(cap=3):
    return FinSSet(cap, {0: ("*",)}, {})


# ---------------------------------------------------------------------------
# simplicial maps


@dataclass(eq=False)
class SSetMap:
    source: FinSSet
    target: FinSSet
    values: dict  # (dim, nondeg id) -> normal form in target, same dimension

    def apply(self, nf):
        core, alpha = nf
        tc, ta = self.values[(alpha[-1], core)]
        return (tc, compose_tuples(ta, alpha))

    def validate(self):
        """Check that the map is defined on every nondegenerate simplex,
        keeps dimensions, lands on known cores and commutes with every face;
        each distinct value has its faces read once, by `faces_of`, and
        compared with the images of the source faces in one comparison."""
        cores = {n: set(ids) for n, ids in self.target.cells.items()}
        read = {}   # value in the target -> its faces
        for n in self.source.dims():
            alphas = _alphas(n)
            for sid in self.source.cells[n]:
                v = self.values.get((n, sid))
                if v is None:
                    raise GcatError(f"map undefined on ({n},{sid})")
                core, alpha = v
                if alpha not in alphas:
                    if len(alpha) != n + 1:
                        raise GcatError(f"map changes dimension on ({n},{sid})")
                    if (any(a > b for a, b in zip(alpha, alpha[1:]))
                            or set(alpha) != set(range(min(alpha[-1], len(alpha)) + 1))):
                        raise GcatError(f"map value alpha not a monotone surjection on ({n},{sid})")
                if core not in cores.get(alpha[-1], ()):
                    raise GcatError(f"map value core unknown on ({n},{sid})")
                if n >= 1:
                    rhs = read.get(v)
                    if rhs is None:
                        rhs = read[v] = self.target.faces_of(v)
                    lhs = tuple(map(self.apply, self.source.faces[(n, sid)]))
                    if lhs != rhs:
                        i = next(i for i in range(n + 1) if lhs[i] != rhs[i])
                        raise GcatError(f"map breaks face d{i} on ({n},{sid})")
        return self

    def then(self, other: "SSetMap") -> "SSetMap":
        vals = {k: other.apply(v) for k, v in self.values.items()}
        return SSetMap(self.source, other.target, vals)

    def same_values(self, other: "SSetMap"):
        return self.values == other.values

    def is_injective(self):
        for n in self.source.dims():
            vals = [self.values[(n, s)] for s in self.source.cells[n]]
            if len(set(vals)) != len(vals):
                return False
            if any(not is_identity_alpha(a) for _, a in vals):
                return False
        return True


def identity_sset_map(X: FinSSet) -> SSetMap:
    return SSetMap(X, X, {(n, s): X.nf_of(n, s) for n in X.dims() for s in X.cells[n]})


def constant_sset_map(X: FinSSet, P: FinSSet) -> SSetMap:
    """Collapse to the least vertex of P (P must have one)."""
    v = P.cells[0][0]
    vals = {}
    for n in X.dims():
        for s in X.cells[n]:
            vals[(n, s)] = (v, (0,) * (n + 1))
    return SSetMap(X, P, vals)


# ---------------------------------------------------------------------------
# ordered complexes, subdivision, hSd²


@dataclass(frozen=True, eq=False)
class OrderedComplex:
    """Vertices totally ordered (sorted tuple); faces a downward-closed family
    of nonempty vertex subsets, stored as sorted tuples."""

    vertices: tuple
    faces: frozenset

    def __post_init__(self):
        vs = set(self.vertices)
        for f in self.faces:
            if not f or list(f) != sorted(set(f)) or not set(f) <= vs:
                raise GcatError(f"bad face {f!r}")
            if len(f) > 1:
                for sub in itertools.combinations(f, len(f) - 1):
                    if tuple(sub) not in self.faces:
                        raise GcatError(f"complex not downward closed at {f!r}")
        unnamed = vs.difference(*self.faces)
        if unnamed:
            raise GcatError(f"vertex {min(unnamed)!r} is in no face")


def make_complex(faces) -> OrderedComplex:
    """Downward closure of the given generating faces."""
    closed = set()
    for f in faces:
        f = tuple(sorted(set(str(v) for v in f)))
        for k in range(1, len(f) + 1):
            for sub in itertools.combinations(f, k):
                closed.add(tuple(sub))
    vertices = tuple(sorted({v for f in closed for v in f}))
    return OrderedComplex(vertices, frozenset(closed))


def standard_simplex_complex(n):
    """Δⁿ on vertices '0'..'n' (single digits only used for n <= 9)."""
    return make_complex([tuple(str(i) for i in range(n + 1))])


def boundary_complex(n):
    """∂Δⁿ: all proper faces; ∂Δ⁰ is empty."""
    if n == 0:
        return OrderedComplex((), frozenset())
    top = [str(i) for i in range(n + 1)]
    return make_complex(itertools.combinations(top, n))


def horn_complex(n, k):
    """Λⁿ_k: all faces except the top and the k-th facet; requires n >= 1."""
    if not (0 <= k <= n and n >= 1):
        raise GcatError(f"bad horn indices ({n},{k})")
    top = [str(i) for i in range(n + 1)]
    gens = [f for f in itertools.combinations(top, n) if str(k) in f]
    return make_complex(gens)


def complex_to_sset(K: OrderedComplex, cap=3) -> FinSSet:
    """A complex as a simplicial set; nondegenerate m-simplices = m-faces."""
    cells = {}
    faces = {}
    for f in sorted(K.faces, key=lambda f: (len(f), f)):
        n = len(f) - 1
        if n > cap:
            continue
        fid = ",".join(f)
        cells.setdefault(n, []).append(fid)
        if n >= 1:
            faces[(n, fid)] = tuple(
                (",".join(f[:i] + f[i + 1:]), tuple(range(n))) for i in range(n + 1)
            )
    return FinSSet(cap, {n: tuple(sorted(v)) for n, v in cells.items()}, faces).validate()


def complex_inclusion(K: OrderedComplex, L: OrderedComplex, cap=3) -> SSetMap:
    XK, XL = complex_to_sset(K, cap), complex_to_sset(L, cap)
    vals = {}
    for n in XK.dims():
        for s in XK.cells[n]:
            vals[(n, s)] = (s, tuple(range(n + 1)))
    return SSetMap(XK, XL, vals).validate()


def _strict_chains(elements, lt):
    """Every strict chain x0 < x1 < ... of `elements` under the strict order
    `lt`, as tuples, shortest first: the one chain enumerator behind Sd, hSd²
    and Sd Δⁿ."""
    above = {x: [y for y in elements if lt(x, y)] for x in elements}
    chains, frontier = [], [(x,) for x in elements]
    while frontier:
        chains += frontier
        frontier = [c + (y,) for c in frontier for y in above[c[-1]]]
    return chains


def _inclusion_poset(items, sep):
    """The tuples `items` ordered by inclusion of their entries, each named
    by joining its entries with `sep`."""
    named = [(sep.join(x), set(x)) for x in items]
    return Poset(tuple(sorted(name for name, _ in named)),
                 frozenset((a, b) for a, sa in named for b, sb in named if sa <= sb))


def face_poset(K: OrderedComplex) -> Poset:
    """Barycentric subdivision as the poset of nonempty faces ordered by
    inclusion; elements rendered as joined ids."""
    return _inclusion_poset(K.faces, ",")


def sd_complex(K: OrderedComplex) -> OrderedComplex:
    """Order complex of the face poset: vertices = faces of K, ordered by
    (dimension, lexicographic); the dimension prefix makes the name order
    agree with that order, so chains are oriented by inclusion."""
    name = {f: f"{len(f) - 1}|{','.join(f)}" for f in K.faces}
    chains = _strict_chains(list(K.faces), lambda a, b: set(a) < set(b))
    return OrderedComplex(tuple(sorted(name.values())),
                          frozenset(tuple(sorted(name[f] for f in c)) for c in chains))


def chain_poset_of(P: Poset) -> Poset:
    """Poset of nonempty chains of P, ordered by inclusion."""
    return _inclusion_poset(_strict_chains(P.elements, lambda a, b: a != b and P.le(a, b)), "<")


def h_sd2(K: OrderedComplex, caps: SizeCaps = DEFAULT_CAPS) -> FinCat:
    """hSd²K: the chain poset of the face poset of K, as a finite category."""
    return chain_poset_of(face_poset(K)).to_fincat(caps)


def h_sd2_map(K: OrderedComplex, L: OrderedComplex, caps: SizeCaps = DEFAULT_CAPS) -> Functor:
    """The functor hSd²K -> hSd²L induced by an inclusion K ⊆ L."""
    if not K.faces <= L.faces:
        raise GcatError("K is not a subcomplex of L")
    CK = h_sd2(K, caps)
    return thin_functor(CK, h_sd2(L, caps), {x: x for x in CK.objects})


# ---------------------------------------------------------------------------
# nerves


def chain_id(chain):
    """The id of a chain of morphism ids: the ids joined by "|", each with a
    backslash put before each of its own backslashes and bars, so distinct
    chains get distinct ids; an id with neither is kept as it is."""
    return "|".join(m.replace("\\", "\\\\").replace("|", "\\|") for m in chain)


def nerve(C: FinCat, cap=3, caps: SizeCaps = DEFAULT_CAPS) -> FinSSet:
    """N(C): n-simplices are length-n composable chains; nondegenerate ones
    contain no identities.

    The faces of a chain are built from it.  d_0 and d_n drop an end arrow and
    an inner d_i composes arrows i-1 and i; each is a shorter chain, stored
    once as the normal form its own level made.  An inner d_i is degenerate
    exactly when the composite is an identity: its core drops both arrows (an
    empty core is the source object) and its alpha repeats i-1.
    """
    identities = {m for m in C.morphism_ids if C.is_identity(m)}
    nonid = [m for m in C.morphism_ids if m not in identities]
    by_src = {}
    for m in nonid:
        by_src.setdefault(C.src[m], []).append(m)
    src, dst, compose = C.src, C.dst, C.compose
    cells, faces = {0: tuple(sorted(C.objects))}, {}
    stored = {}   # chain of a level below -> its normal form (id, identity alpha)
    name = {m: chain_id((m,)) for m in nonid}
    level = [((m,), name[m]) for m in sorted(nonid)]   # (chain, its chain_id)
    for n in range(1, cap + 1):
        if not level:
            break
        if len(level) > caps.max_simplices:
            raise SizeCapExceeded("nerve simplices", len(level), caps.max_simplices)
        top, ids = tuple(range(n + 1)), []
        repeat = [sigma(i - 1, n - 2) for i in range(1, n)]   # the alpha of a degenerate d_i
        for ch, sid in level:
            ids.append(sid)
            if n == 1:
                fs = ((dst[ch[0]], (0,)), (src[ch[0]], (0,)))
            else:
                fs = [stored[ch[1:]]]
                for i in range(1, n):
                    c = compose[(ch[i], ch[i - 1])]
                    if c in identities:
                        rest = ch[:i - 1] + ch[i + 1:]
                        fs.append((stored[rest][0] if rest else src[ch[0]], repeat[i - 1]))
                    else:
                        fs.append(stored[ch[:i - 1] + (c,) + ch[i + 1:]])
                fs.append(stored[ch[:-1]])
                fs = tuple(fs)
            faces[(n, sid)] = fs
            if n < cap:
                stored[ch] = (sid, top)
        cells[n] = tuple(sorted(ids))
        if n < cap:
            level = [(ch + (m,), f"{sid}|{name[m]}") for ch, sid in level
                     for m in by_src.get(dst[ch[-1]], ())]
    X = FinSSet(cap, cells, faces)
    X.validate(caps)
    return X


def _normalize_chain(C: FinCat, chain, identities):
    """The normal form of a chain of C; identities: the identities of C, a set
    built once per map.  An all-identity chain's core is its source object."""
    core = tuple(m for m in chain if m not in identities)
    alpha = [0]
    v = 0
    for m in chain:
        if m not in identities:
            v += 1
        alpha.append(v)
    if core:
        cid = chain_id(core)
    else:
        cid = C.src[chain[0]]
    return (cid, tuple(alpha))


def nerve_functor(F: Functor, NX: FinSSet, NY: FinSSet, cap=3) -> SSetMap:
    """N(F) on already-built nerves.  The image of an n-simplex's chain is
    read off its faces, not its id: the image of d_n's chain, then the last
    arrow of d_0's."""
    D, mm = F.target, F.morphism_map
    identities = {m for m in D.morphism_ids if D.is_identity(m)}
    vals = {}
    for sid in NX.cells.get(0, ()):
        vals[(0, sid)] = (F.object_map[sid], (0,))
    images = {chain_id((m,)): (mm[m],) for m in F.source.morphism_ids}   # of level n's chains
    for n in range(1, cap + 1):
        if n > 1:
            below, images = images, {}
            for sid in NX.cells.get(n, ()):
                fs = NX.faces[(n, sid)]
                images[sid] = below[fs[-1][0]] + below[fs[0][0]][-1:]
        for sid in NX.cells.get(n, ()):
            vals[(n, sid)] = _normalize_chain(D, images[sid], identities)
    return SSetMap(NX, NY, vals)


def h_poset_nerve(X: FinSSet) -> FinCat:
    """h on the nerve of a poset: rebuild the poset; refuse anything else."""
    if not X.cells.get(0):
        return FinCat((), (), {}, {})
    verts = X.cells[0]
    leq = {(v, v) for v in verts}
    for e in X.cells.get(1, ()):
        fs = X.faces[(1, e)]
        x = fs[1][0]
        y = fs[0][0]
        leq.add((x, y))
    try:
        P = Poset(tuple(verts), frozenset(leq))
    except GcatError as exc:
        raise NotAPosetNerve(str(exc)) from exc
    # exactness: the nerve of P must reproduce X on the nose
    C = P.to_fincat()
    NP = nerve(C, X.cap)
    for n in set(X.dims()) | set(NP.dims()):
        if X.n_nondeg(n) != NP.n_nondeg(n):
            raise NotAPosetNerve(f"simplex count differs from a poset nerve at dim {n}")
    return C


# ---------------------------------------------------------------------------
# pushouts


def pushout_sset(f: SSetMap, g: SSetMap, caps: SizeCaps = DEFAULT_CAPS):
    """Pushout of B <-f- A -g-> C along a levelwise-injective f.

    Returns (P, from_B, from_C).  Nondegenerate simplices of P are those of C
    plus those of B not hit by f; ids from B are prefixed 'B:'.
    """
    A, B, C = f.source, f.target, g.target
    if not f.is_injective():
        raise GcatError("pushout_sset requires an injective first leg")
    cap = min(B.cap, C.cap)
    image = {}
    for n in A.dims():
        for s in A.cells[n]:
            image[(n, f.values[(n, s)][0])] = (n, s)

    cells = {}
    rename = {}
    for n in range(cap + 1):
        ids = list(C.cells.get(n, ()))
        for sid in B.cells.get(n, ()):
            if (n, sid) in image:
                am = image[(n, sid)]
                rename[(n, sid)] = g.values[am]
            else:
                ids.append(f"B:{sid}")
                rename[(n, sid)] = (f"B:{sid}", tuple(range(n + 1)))
        if ids:
            cells[n] = tuple(sorted(ids))

    def push_b(nf):
        core, alpha = nf
        ncore = alpha[-1]
        rcore, ralpha = rename[(ncore, core)]
        return (rcore, compose_tuples(ralpha, alpha))

    faces = {}
    for n in range(1, cap + 1):
        for sid in C.cells.get(n, ()):
            faces[(n, sid)] = C.faces[(n, sid)]
        for sid in B.cells.get(n, ()):
            if (n, sid) in image:
                continue
            faces[(n, f"B:{sid}")] = tuple(push_b(nf) for nf in B.faces[(n, sid)])
    P = FinSSet(cap, cells, faces)
    P.validate(caps)
    from_c = SSetMap(C, P, {(n, s): P.nf_of(n, s) for n in C.dims() for s in C.cells[n]}).validate()
    from_b = SSetMap(B, P, {(n, s): rename[(n, s)] for n in B.dims() for s in B.cells[n]}).validate()
    return P, from_b, from_c


# ---------------------------------------------------------------------------
# actions on simplicial sets


@dataclass(eq=False)
class MonoidActionSSet:
    monoid: object
    carrier: FinSSet
    act: dict  # element -> SSetMap (endomap of carrier)

    def validate(self):
        ident = identity_sset_map(self.carrier)
        for m in self.monoid.elements:
            f = self.act.get(m)
            if f is None:
                raise GcatError(f"simplicial action undefined at {m!r}")
            f.validate()
        if not self.act[self.monoid.unit].same_values(ident):
            raise GcatError("unit does not act as the identity")
        for m in self.monoid.elements:
            for n in self.monoid.elements:
                if not self.act[n].then(self.act[m]).same_values(self.act[self.monoid.mul(m, n)]):
                    raise GcatError(f"simplicial act({m!r}·{n!r}) ≠ act({m!r})∘act({n!r})")
        return self


def equivariant_nerve(A: "_actions.MonoidActionCat", cap=3, caps: SizeCaps = DEFAULT_CAPS) -> MonoidActionSSet:
    """N(C) with each monoid element acting by the nerve of its endofunctor."""
    NX = nerve(A.carrier, cap, caps)
    act = {m: nerve_functor(A.act[m], NX, NX, cap) for m in A.monoid.elements}
    return MonoidActionSSet(A.monoid, NX, act).validate()


def fixed_sset(A: MonoidActionSSet, H) -> FinSSet:
    """X^H: the simplicial subset of simplices fixed by every h in H.  It is
    face-closed, as each h acts by a validated simplicial map: h fixes the
    faces of a simplex it fixes."""
    X, cells, faces = A.carrier, {}, {}
    for n in X.dims():
        ids = []
        for s in X.cells[n]:
            nf = X.nf_of(n, s)
            if all(A.act[h].apply(nf) == nf for h in H.elements):
                ids.append(s)
        if ids:
            cells[n] = tuple(ids)
        faces.update(((n, s), X.faces[(n, s)]) for s in ids if n)
    return FinSSet(X.cap, cells, faces)


def fixed_sset_map(f: SSetMap, A: MonoidActionSSet, B: MonoidActionSSet, H) -> SSetMap:
    XH = fixed_sset(A, H)
    YH = fixed_sset(B, H)
    vals = {(n, s): f.values[(n, s)] for n in XH.dims() for s in XH.cells[n]}
    return SSetMap(XH, YH, vals).validate()


# ---------------------------------------------------------------------------
# homology


def boundary_matrix(X: FinSSet, n, drop=frozenset()):
    """Normalized boundary ∂_n, n >= 1, over the nondegenerate bases, as (n_rows,
    n_cols, `Rows`): one pass over the faces writes the rows that
    `smith_invariants` copies and eliminates.

    The rows of the (n-1)-simplices at the positions `drop` of X.cells[n - 1]
    are left out and the others are numbered in order.  Faces of one simplex
    that cancel delete their entry where they meet.
    """
    kept = (s for i, s in enumerate(X.cells.get(n - 1, ())) if i not in drop)
    rows = {s: {} for s in kept}
    signs = [(-1) ** i for i in range(n + 1)]
    for j, sid in enumerate(X.cells.get(n, ())):
        for (core, alpha), sign in zip(X.faces[(n, sid)], signs):
            if alpha[-1] == n - 1 and core in rows:   # a nondegenerate face, kept
                row = rows[core]
                v = row.get(j, 0) + sign
                if v:
                    row[j] = v
                else:
                    del row[j]
    return len(rows), X.n_nondeg(n), Rows(dict(enumerate(rows.values())))


def homology(X: FinSSet, cap=None):
    """Integer homology of the normalized chain complex.

    Returns [(betti, sorted torsion invariants > 1)] for degrees 0..cap-1;
    X must be materialized up to `cap` for the top degree to be correct.

    Degrees run bottom-up, and each boundary is reduced without the rows of
    the simplices that the unit phase of `smith_invariants` took as pivot
    columns of the boundary below (the "compress" of Bauer, Kerber and
    Reininghaus, 2014).  Those pivots are +-1, so they form a unimodular
    minor U of ∂_n, a cycle's coordinates on them are the integral function
    -U⁻¹N·z_rest of its other coordinates, and leaving them out of ∂_{n+1}
    keeps its rank and its torsion.  Gcd-stage pivots are not used: their
    column operations break this argument.  Each boundary is built once, as
    the rows that `smith_invariants` copies.
    """
    if cap is None:
        cap = X.cap
    elif cap > X.cap:
        raise GcatError(f"homology at cap {cap} needs X's simplices to dimension {cap}; X has cap {X.cap}")
    ranks = {}
    invs = {}
    pivots = set()
    for n in range(1, cap + 1):
        drop, pivots = pivots, set()
        # no reference to the boundary's rows is kept here, so they are
        # freed once smith_invariants has copied them
        inv = smith_invariants(X.n_nondeg(n - 1) - len(drop), X.n_nondeg(n),
                               boundary_matrix(X, n, drop)[2], pivots)
        ranks[n] = len(inv)
        invs[n] = inv
    out = []
    for k in range(cap):
        betti = X.n_nondeg(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        torsion = [d for d in invs.get(k + 1, []) if d > 1]
        out.append((betti, tuple(torsion)))
    return out


def pi0(X: FinSSet):
    """Connected components: partition of vertices by 1-simplices."""
    parent = {v: v for v in X.cells.get(0, ())}
    for e in X.cells.get(1, ()):
        fs = X.faces[(1, e)]
        ra, rb = _uf_find(parent, fs[1][0]), _uf_find(parent, fs[0][0])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp = {}
    for v in X.cells.get(0, ()):
        comp.setdefault(_uf_find(parent, v), set()).add(v)
    return {min(vs): vs for vs in comp.values()}


def pi0_map(f: SSetMap):
    """Induced map on components; returns (bijective?, mapping)."""
    cs = pi0(f.source)
    ct = pi0(f.target)
    t_rep = {}
    for rep, vs in ct.items():
        for v in vs:
            t_rep[v] = rep
    mapping = {}
    for rep in cs:
        img_vertex = f.values[(0, rep)][0]
        mapping[rep] = t_rep[img_vertex]
    image = set(mapping.values())
    bij = len(cs) == len(ct) == len(image)
    return bij, mapping


# ---------------------------------------------------------------------------
# Kan's Ex functor


class _SdData:
    """Combinatorics of Sd Δⁿ: nondegenerate simplices are strict chains in
    the face poset of Δⁿ.

    `chains` fixes the chain order (by dimension, then lexicographic) in which
    every Sd-map Sd Δⁿ -> X is stored, as a tuple of ints of X's tables.
    For n >= 1, `join` reads an Sd-map off v + zz_0 + ... + zz_n, each zz_j an
    Sd-map of Sd Δⁿ⁻¹ followed by its image (`_sd_maps`)."""

    _cache = {}

    def __new__(cls, n):
        if n in cls._cache:
            return cls._cache[n]
        self = super().__new__(cls)
        faces = []
        for k in range(1, n + 2):
            faces.extend(itertools.combinations(range(n + 1), k))
        chains = _strict_chains(faces, lambda a, b: set(a) < set(b))
        chains.sort(key=lambda c: (len(c), c))
        self.chains = tuple(chains)
        self.position = {c: i for i, c in enumerate(chains)}
        if n:   # the décalage `join`, for `_sd_maps`
            below = _SdData(n - 1)
            size, top = len(below.chains), tuple(range(n + 1))

            def read(c):   # where c's value sits in (v,) + zz_0 + ... + zz_n
                if c == (top,):
                    return 0
                cone = c[-1] == top
                rest = c[:-1] if cone else c
                j = min(set(range(n + 1)).difference(rest[-1]))   # the first facet that holds rest
                p = below.position[tuple(tuple(t - (t > j) for t in F) for F in rest)]
                return 1 + 2 * size * j + (0 if cone else size) + p

            self.join = itemgetter(*map(read, chains))
        self._restrictions = {}
        picks = map(self.face_positions, range(n + 1)) if n else ()   # face getters; 1-slices stay tuples
        self.face_picks = tuple(itemgetter(*p) if len(p) > 1 else itemgetter(slice(*p, p[0] + 1)) for p in picks)
        cls._cache[n] = self
        return self

    def restriction(self, f):
        """The table of Sd(f) for a monotone f: [m] -> [n]: for each chain of
        Sd Δᵐ, the position of its strictified image here and the collapsing
        surjection (None when nothing collapses)."""
        if f not in self._restrictions:
            table = []
            for chain in _SdData(len(f) - 1).chains:
                strict, beta = _strictify(tuple(tuple(sorted({f[v] for v in F})) for F in chain))
                table.append((self.position[strict], None if is_identity_alpha(beta) else beta))
            self._restrictions[f] = tuple(table)
        return self._restrictions[f]

    def face_positions(self, i):
        """Face i of an Sd-map is the Sd-map at these positions: Sd(δ_i) collapses no chain."""
        return tuple(pos for pos, _ in self.restriction(delta(i, len(self.chains[-1]) - 1)))


def _strictify(seq):
    """Collapse equal consecutive entries; returns (strict tuple, surjection)."""
    strict, beta = [seq[0]], [0]
    for v in seq[1:]:
        if v != strict[-1]:
            strict.append(v)
        beta.append(len(strict) - 1)
    return tuple(strict), tuple(beta)


def _slices(levels):
    """The slices Y/v over the vertices v of the simplicial set with int face
    tables `levels` (levels[d]: each d-simplex, degenerate ones included, ->
    its faces): (Y/v)_k holds the (k+1)-simplices of Y whose last vertex is
    v, keeping their ints, with the faces d_0, ..., d_k that keep it."""
    out, last = {v: [] for v in levels[0]}, {v: v for v in levels[0]}
    for faces in levels[1:]:
        last = {s: last[fs[0]] for s, fs in faces.items()}
        for S in out.values():
            S.append({})
        for s, fs in faces.items():
            out[last[s]][-1][s] = fs[:-1]
    return out


def _cones(levels, n, caps: SizeCaps, spent=0):
    """Per vertex v of Y (int face tables `levels`, as in `_slices`), the
    (n-1)-simplices z of Ex(Y/v), each extended by its image in Ex(Y)
    (d_last at every chain), -> the faces of z; and the nodes spent."""
    below, out = _SdData(n - 1), {}
    dlast = [{s: fs[-1] for s, fs in faces.items()} for faces in levels[1:n + 1]]
    lower = [dlast[len(c) - 1] for c in below.chains]
    for v, S in _slices(levels[:n + 1]).items():
        zs, spent = _sd_maps(S, n - 1, caps, spent)
        out[v] = {z + tuple(map(getitem, lower, z)): tuple(pick(z) for pick in below.face_picks) for z in zs}
    return out, spent


def _sd_maps(levels, n, caps: SizeCaps, spent=0):
    """All simplicial maps Sd Δⁿ -> Y, the n-simplices of Ex(Y), as int
    tuples in chain order, for Y with int face tables `levels`; and the
    nodes spent, counted on from `spent`.

    By décalage: Sd Δⁿ is the cone Sd ∂Δⁿ ⋆ Δ⁰ with the barycentre [n] as
    apex, a map out of a cone is a vertex v and a map into the slice Y/v
    (Joyal, 2002), and a map out of Sd ∂Δⁿ is a sphere of Ex, so

        Ex_n Y = ∐_v {(z_0, ..., z_n) ∈ Ex_{n-1}(Y/v)^{n+1} : d_i z_j = d_{j-1} z_i, i < j}.

    The spheres are `_horns` with no face left out; `_SdData(n).join` reads
    each map off v and the z_j with their images (`_cones`): a chain
    c ∪ {[n]} takes z_j at c, a chain c of Sd ∂Δⁿ that value's d_last, the
    apex v.  Every root and z placed, at every depth, counts as a node."""
    if n == 0:
        return [(v,) for v in levels[0]], spent
    cones, spent = _cones(levels, n, caps, spent)
    join, maps = _SdData(n).join, []
    for v, cands in cones.items():
        spheres, spent = _horns(cands, n, None, caps, spent, "Sd-map enumeration")
        maps += [join((v, *itertools.chain.from_iterable(s))) for s in spheres]
    return maps, spent


@dataclass(eq=False)
class ExSSet:
    """Materialized Ex(X) with the Sd-maps behind its simplices kept around."""

    base: FinSSet
    sset: FinSSet
    level_nf: dict      # n -> {int Sd-map: normal form}, in `_sd_maps` order
    level_assign: dict  # n -> {nondeg id: int Sd-map}


def ex(X: FinSSet, cap, caps: SizeCaps = DEFAULT_CAPS) -> ExSSet:
    """Ex(X): n-simplices are simplicial maps Sd Δⁿ -> X, enumerated
    exhaustively by décalage (`_sd_maps`), one node budget per level.

    The degenerate n-simplices are the s_j y = y∘Sd(σ_j) for the (n-1)-simplices
    y, built from the level below; the normal form of s_j y is y's with alpha∘σ_j.
    Ex at `cap` reads X's simplices up to `cap`, so `cap` may not exceed X's.
    """
    if cap > X.cap:
        raise GcatError(f"Ex at cap {cap} needs X's simplices to dimension {cap}; X has cap {X.cap}")

    @functools.cache
    def pulled(beta):   # X's pull along a collapsing surjection beta, on ints
        number = X.face_index(len(beta) - 1).number
        return [number[(c, compose_tuples(a, beta))] for c, a in X.face_index(beta[-1]).nfs]

    level_nf, level_assign, cells, faces = {}, {}, {}, {}
    ident = [range(len(X.face_index(d).nfs)) for d in range(cap + 1)]   # the identity tables
    levels = [X.face_index(d).faces for d in range(cap + 1)]
    for n in range(cap + 1):
        sdd = _SdData(n)
        level = dict.fromkeys(_sd_maps(levels[:n + 1], n, caps)[0])   # Sd-map -> normal form
        for j in range(n):   # the degenerate s_j y = y∘Sd(σ_j), least j first
            # (s_j y)[p] is table[y[q]] (a range where nothing collapses); a KeyError if not found
            sj = sigma(j, n - 1)
            restr = _SdData(n - 1).restriction(sj)
            pick = itemgetter(*(q for q, _ in restr))
            tables = [pulled(beta) if beta else ident[len(c) - 1] for (_, beta), c in zip(restr, sdd.chains)]
            for y, (pc, pa) in level_nf[n - 1].items():
                m = tuple(map(getitem, tables, pick(y)))
                if level[m] is None:
                    level[m] = (pc, compose_tuples(pa, sj))
        nondeg = sorted(m for m, nf in level.items() if nf is None)
        if len(nondeg) > caps.max_simplices:
            raise SizeCapExceeded("Ex simplices", len(nondeg), caps.max_simplices)
        ids = {m: f"x{n}.{i:05d}" for i, m in enumerate(nondeg)}
        for m, sid in ids.items():
            level[m] = (sid, tuple(range(n + 1)))
            if n > 0:
                faces[(n, sid)] = tuple(level_nf[n - 1][pick(m)] for pick in sdd.face_picks)
        level_nf[n] = level
        level_assign[n] = {sid: m for m, sid in ids.items()}
        cells[n] = tuple(sorted(ids.values()))
    S = FinSSet(cap, {n: v for n, v in cells.items() if v}, faces)
    S.validate(caps)
    return ExSSet(X, S, level_nf, level_assign)


def _int_values(f: SSetMap, d, X: FinSSet, Y: FinSSet):
    """f on the d-simplices as a list from X's int table into Y's."""
    number = Y.face_index(d).number
    return [number[f.apply(v)] for v in X.face_index(d).nfs]


def e_map(X: FinSSet, exd: ExSSet) -> SSetMap:
    """The last-vertex unit e: X -> Ex(X); natural and injective.  Its source
    is X, or X's skeleton at Ex's cap when X has simplices above that cap."""
    cap = exd.sset.cap
    if any(n > cap for n in X.dims()):
        X = FinSSet(cap, {n: X.cells[n] for n in X.dims() if n <= cap},
                    {key: fs for key, fs in X.faces.items() if key[0] <= cap})
    vals = {}
    for n in X.dims():
        chains = _SdData(n).chains
        lasts = [tuple(max(F) for F in chain) for chain in chains]
        numbers = [exd.base.face_index(len(chain) - 1).number for chain in chains]
        for sid in X.cells[n]:
            psi = tuple(number[X.pull(X.nf_of(n, sid), last)] for number, last in zip(numbers, lasts))
            vals[(n, sid)] = exd.level_nf[n][psi]
    return SSetMap(X, exd.sset, vals).validate()


def ex_map(f: SSetMap, exd_src: ExSSet, exd_dst: ExSSet) -> SSetMap:
    """Ex(f) by postcomposition of Sd-maps, with f as one int table per dimension."""
    return _ex_of_tables([_int_values(f, d, exd_src.base, exd_dst.base)
                          for d in range(exd_src.sset.cap + 1)], exd_src, exd_dst)


def _ex_of_tables(f_at, exd_src: ExSSet, exd_dst: ExSSet) -> SSetMap:
    """Ex of the map whose int table on the d-simplices is f_at[d], for each d
    up to Ex's cap."""
    vals = {}
    for n in exd_src.sset.dims():
        tables = [f_at[len(chain) - 1] for chain in _SdData(n).chains]
        level, assign = exd_dst.level_nf[n], exd_src.level_assign[n]
        for sid in exd_src.sset.cells[n]:
            vals[(n, sid)] = level[tuple(map(getitem, tables, assign[sid]))]
    return SSetMap(exd_src.sset, exd_dst.sset, vals)


def ex_action(A: MonoidActionSSet, exd: ExSSet) -> MonoidActionSSet:
    """Ex of an action on X = exd.base by postcomposition, as `ex_map`, checked
    once on X's int tables t_m up to Ex's cap and X's top dimension (above it,
    t_m is fixed by degeneracies): each commutes with X's face tables, the
    unit's is the identity and t_m∘t_n = t_mn, so Ex(t) is an action on
    Ex(X).  Ex(act(m)) postcomposes with those checked tables, and with t_m
    above X's top dimension up to Ex's cap."""
    X, M, cap = exd.base, A.monoid, exd.sset.cap
    dims = range(min(cap, max(X.dims(), default=0)) + 1)
    t = {m: [_int_values(A.act[m], d, X, X) for d in dims] for m in M.elements}
    for (m, tm), d in itertools.product(t.items(), dims[1:]):
        if any(X.face_index(d).faces[tm[d][v]] != tuple(map(tm[d - 1].__getitem__, fs))
               for v, fs in X.face_index(d).faces.items()):
            raise GcatError(f"act({m!r}) breaks a face of a {d}-simplex")
    if any(table != list(range(len(table))) for table in t[M.unit]):
        raise GcatError("unit does not act as the identity")
    for m, n in itertools.product(M.elements, repeat=2):
        if any(list(map(tm.__getitem__, tn)) != tmn for tm, tn, tmn in zip(t[m], t[n], t[M.mul(m, n)])):
            raise GcatError(f"simplicial act({m!r}·{n!r}) ≠ act({m!r})∘act({n!r})")
    return MonoidActionSSet(M, exd.sset, {
        m: _ex_of_tables(tm + [_int_values(A.act[m], d, X, X) for d in range(len(tm), cap + 1)],
                         exd, exd) for m, tm in t.items()})


# ---------------------------------------------------------------------------
# Kan fibration checks


@dataclass
class KanVerdict:
    passed: bool
    cap: int
    problems_checked: int
    failure: object = None  # (n, k, horn description) for the first failure


def _horns(candidates: dict, n, k, caps: SizeCaps, spent=0, what="horn enumeration"):
    """All horns Λⁿ_k, or with k None all spheres ∂Δⁿ: lists of the
    (n-1)-simplices x_j, j != k in increasing order, with
    d_i x_j = d_{j-1} x_i for i < j; and the nodes counted.

    `candidates` maps each (n-1)-simplex to its face tuple, in enumeration
    order; horns come out in the lexicographic order this induces.  The
    search is fincat's `_search`, so every search node counts against
    `caps.max_candidates`, on from `spent`.
    """
    idx = [j for j in range(n + 1) if j != k]
    by_pos = [{} for _ in idx]
    for v, fs in candidates.items():   # per step, by the faces the earlier x_i pin; 0-simplices have none
        for pos, group in enumerate(by_pos):
            group.setdefault(tuple(fs[i] for i in idx[:pos]) if n > 1 else (), []).append(v)

    def fitting(pos, xs):
        return by_pos[pos].get(tuple(candidates[x][idx[pos] - 1] for x in xs[:pos]) if n > 1 else (), ())

    return _search(len(idx), fitting, lambda pos, xs: True, what, caps, spent)


def _filler(cones, n, k, caps: SizeCaps):
    """The test of whether a horn (x_j)_{j≠k} of Ex(Y) has a filler, for
    cones = `_cones` of Y at n.  A filler (v; z_0, ..., z_n) of `_sd_maps`
    has the image of z_j as its face d_j, so the horn fills exactly when,
    for some v, there are z_j over x_j in Ex(Y/v), j != k, with
    d_i z_j = d_{j-1} z_i for i < j, and a z_k with the faces they fix:
    d_i z_k = d_{k-1} z_i for i < k, d_{j-1} z_k = d_k z_j for j > k.  The
    z_j are a search that stops at the first such family, over the z
    grouped per step by their image and the faces the earlier z_i pin; it
    and z_k are dict lookups.  The searches of one horn share a node budget."""
    idx, size, per_v = [j for j in range(n + 1) if j != k], len(_SdData(n - 1).chains), []
    for cands in cones.values():
        by_pos = [{} for _ in idx]
        for z, fs in cands.items():
            for pos, group in enumerate(by_pos):
                group.setdefault((z[size:], tuple(fs[i] for i in idx[:pos]) if n > 1 else ()), []).append(z)
        per_v.append((cands, by_pos, set(cands.values())))

    def fills(horn):
        spent = 0
        for cands, by_pos, present in per_v:
            def fitting(pos, zs):
                pinned = tuple(cands[z][idx[pos] - 1] for z in zs[:pos]) if n > 1 else ()
                return by_pos[pos].get((horn[pos], pinned), ())

            def completes(pos, zs):   # z_k's faces, once the last z_j is placed; a 0-simplex has none
                return pos < n - 1 or n == 1 or (
                    tuple(cands[z][k - 1] for z in zs[:k]) + tuple(cands[z][k] for z in zs[k:])) in present

            found, spent = _search(n, fitting, completes, "Sd-map enumeration", caps, spent, first=True)
            if found:
                return True
        return False

    return fills


def is_kan_fibration(f: SSetMap, cap=3, caps: SizeCaps = DEFAULT_CAPS) -> KanVerdict:
    """Exhaustive horn-lifting check for n <= cap; the verdict carries its cap.

    `problems_checked` counts lifting problems: pairs of a horn in X and an
    n-simplex y of Y with d_j y = f(x_j) for every j != k.
    """
    X, Y = f.source, f.target
    checked = 0
    for n in range(1, cap + 1):
        horn_t, x_t, y_t = X.face_index(n - 1), X.face_index(n), Y.face_index(n)
        f_horn, f_top = _int_values(f, n - 1, X, Y), _int_values(f, n, X, Y)
        for k in range(n + 1):
            idx = [j for j in range(n + 1) if j != k]
            ys = {}
            for y, fs in y_t.faces.items():
                ys.setdefault(tuple(fs[j] for j in idx), []).append(y)
            lifts = {(f_top[z], tuple(fs[j] for j in idx)) for z, fs in x_t.faces.items()}
            for horn in _horns(horn_t.faces, n, k, caps)[0]:
                xs = tuple(horn)
                for y in ys.get(tuple(f_horn[x] for x in xs), ()):
                    checked += 1
                    if (y, xs) not in lifts:
                        horn_nfs = [(j, horn_t.nfs[x]) for j, x in zip(idx, xs)]
                        return KanVerdict(False, cap, checked, (n, k, horn_nfs, y_t.nfs[y]))
    return KanVerdict(True, cap, checked)


def is_kan_complex(X: FinSSet, cap=3, caps: SizeCaps = DEFAULT_CAPS) -> KanVerdict:
    pt = point_sset(max(X.cap, cap))
    return is_kan_fibration(constant_sset_map(X, pt), cap, caps)


def is_kan_complex_lazy_ex(base: FinSSet, cap=2, caps: SizeCaps = DEFAULT_CAPS) -> KanVerdict:
    """Kan check of Ex(base) without materializing it: at each n, the
    (n-1)-simplices of Ex(base/v) are built once per vertex v and each
    horn's filler is looked for over them (`_filler`).  `problems_checked`
    counts horns (over a point each is one lifting problem)."""
    if cap > base.cap:
        raise GcatError(f"Kan check of Ex at cap {cap} needs the base's simplices to dimension "
                        f"{cap}; the base has cap {base.cap}")
    levels = [base.face_index(d).faces for d in range(cap + 1)]
    checked = 0
    for n in range(1, cap + 1):
        picks = _SdData(n - 1).face_picks
        cands = {psi: tuple(pick(psi) for pick in picks)   # in normal-form order
                 for psi in sorted(_sd_maps(levels[:n], n - 1, caps)[0])}
        cones = _cones(levels, n, caps)[0]
        for k in range(n + 1):
            fills = _filler(cones, n, k, caps)
            for horn in _horns(cands, n, k, caps)[0]:
                checked += 1
                if not fills(horn):
                    return KanVerdict(False, cap, checked, (n, k, "no filler"))
    return KanVerdict(True, cap, checked)


# ---------------------------------------------------------------------------
# the last-vertex map


def lastvertex_map(K: OrderedComplex, cap=3) -> SSetMap:
    """The comparison sd_complex(K) -> K sending a face barycenter to its last vertex."""
    SK = sd_complex(K)
    src = complex_to_sset(SK, cap)
    dst = complex_to_sset(K, cap)
    vorder = {v: i for i, v in enumerate(K.vertices)}
    name_to_face = {f"{len(f) - 1}|{','.join(f)}": f for f in K.faces}
    # reconstruct each chain from the sd face (a set of comparable face names)
    vals = {}
    for f in sorted(SK.faces, key=lambda f: (len(f), f)):
        n = len(f) - 1
        if n > cap:
            continue
        chain = [name_to_face[nm] for nm in f]  # f is sorted by (dim, lex) already
        lv = [max(face, key=lambda v: vorder[v]) for face in chain]
        strict, alpha = _strictify(tuple(lv))
        vals[(n, ",".join(f))] = (",".join(sorted(strict, key=lambda v: vorder[v])), alpha)
    return SSetMap(src, dst, vals).validate()

