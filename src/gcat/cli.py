"""gcat command line: document IO, checks, and report emission.

Exit codes: 0 all properties hold, 1 a property is violated (the report names
it), 2 inconclusive (a cap was hit), 64 usage error (a bad argument, or a
malformed document: a JSON error on stdout), 74 IO error (an unreadable file or
invalid JSON: a JSON error on stderr).
Identical invocation + seed gives a byte-identical report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .config import DEFAULT_CAPS, WIDE_CAPS
from .errors import GcatError, Inconclusive, SizeCapExceeded
from . import serialize as ser
from .fincat import category_from_doc, presented_pushout
from .corpus import (
    dwyer_span_corpus,
    named_group,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_IO = 74


class MalformedDocument(Exception):
    """An input document lacks a key or has a value of the wrong shape."""


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        print(json.dumps({"error": f"cannot read {path}: {exc.strerror}"}), file=sys.stderr)
        raise SystemExit(EXIT_IO) from exc
    except json.JSONDecodeError:
        print(json.dumps({"error": f"invalid JSON in {path}"}), file=sys.stderr)
        raise SystemExit(EXIT_IO)


@contextlib.contextmanager
def _parsing(path):
    """Turn the document read from `path` into objects; a missing key or a
    value of the wrong shape becomes MalformedDocument, a usage error."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise MalformedDocument(f"{path}: {type(exc).__name__}: {exc}") from exc


def _emit(doc, args, code=EXIT_OK):
    if args.format == "text":
        for line in _render_text(doc):
            print(line)
    else:
        print(ser.canonical_json(doc))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(ser.canonical_json(doc))
        except OSError:
            return EXIT_IO
    return code


def _render_text(doc, indent=0):
    pad = "  " * indent
    if isinstance(doc, dict):
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)):
                yield f"{pad}{k}:"
                yield from _render_text(v, indent + 1)
            else:
                yield f"{pad}{k}: {v}"
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                yield from _render_text(v, indent + 1)
            else:
                yield f"{pad}- {v}"
    else:
        yield f"{pad}{doc}"


def _caps(args):
    return WIDE_CAPS if getattr(args, "wide_caps", False) else DEFAULT_CAPS


def cmd_validate(args):
    doc = _read_json(args.input)
    with _parsing(args.input):
        cat = category_from_doc(doc, _caps(args))
    body = {"valid": True, "objects": cat.n_objects(), "morphisms": cat.n_morphisms()}
    return _emit(ser.report("validate", {"category": doc}, body), args)


def cmd_nerve(args):
    from .sset import nerve
    doc = _read_json(args.input)
    with _parsing(args.input):
        cat = category_from_doc(doc, _caps(args))
    N = nerve(cat, args.cap, _caps(args))
    body = {"cap": args.cap, "nondegenerate": {str(n): N.n_nondeg(n) for n in range(args.cap + 1)},
            "sset": N.to_doc()}
    return _emit(ser.report("nerve", {"category": doc}, body), args)


def cmd_homology(args):
    from .sset import complex_to_sset, homology, nerve, sset_from_doc
    doc = _read_json(args.input)
    with _parsing(args.input):
        if args.kind == "sset":
            X = sset_from_doc(doc)
        elif args.kind == "complex":
            K = ser.complex_from_doc(doc)
        else:
            C = category_from_doc(doc, _caps(args))
    if args.kind == "complex":
        X = complex_to_sset(K, args.cap)
    elif args.kind == "category":
        X = nerve(C, args.cap, _caps(args))
    h = homology(X, args.cap)
    body = {"cap": args.cap,
            "homology": [{"degree": k, "betti": b, "torsion": list(t)}
                         for k, (b, t) in enumerate(h)]}
    return _emit(ser.report("homology", {"input": doc}, body), args)


def cmd_sd(args):
    from .sset import sd, sd_complex
    doc = _read_json(args.input)
    with _parsing(args.input):
        K = ser.complex_from_doc(doc)
    P = sd(K)
    SK = sd_complex(K)
    body = {"face_poset": P.to_fincat().to_doc(), "sd_complex": ser.complex_doc(SK)}
    return _emit(ser.report("sd", {"complex": doc}, body), args)


def cmd_ex(args):
    from .sset import ex, sset_from_doc, e_map
    doc = _read_json(args.input)
    with _parsing(args.input):
        X = sset_from_doc(doc)
    try:
        exd = ex(X, args.cap, _caps(args))
    except SizeCapExceeded as exc:
        body = {"inconclusive": str(exc)}
        return _emit(ser.report("ex", {"sset": doc}, body), args, EXIT_INCONCLUSIVE)
    em = e_map(X, exd)
    body = {"cap": args.cap,
            "nondegenerate": {str(n): exd.sset.n_nondeg(n) for n in range(args.cap + 1)},
            "total": {str(n): exd.sset.total_count(n) for n in range(args.cap + 1)},
            "unit_injective": em.is_injective(),
            "sset": exd.sset.to_doc()}
    return _emit(ser.report("ex", {"sset": doc}, body), args)


def cmd_check_dwyer(args):
    from .dwyer import find_dwyer_witness, is_cosieve, is_sieve
    doc = _read_json(args.input)
    with _parsing(args.input):
        F = ser.functor_from_doc(doc, _caps(args))
    sieve = is_sieve(F)
    body = {"sieve": sieve, "cosieve": is_cosieve(F)}
    if not sieve:
        body["witness"] = None
        body["refusal"] = "not a sieve"
        return _emit(ser.report("check-dwyer", {"functor": doc}, body), args, EXIT_VIOLATED)
    w = find_dwyer_witness(F, None, _caps(args))
    if w is None:
        body["witness"] = None
        body["refusal"] = "exhaustive search found no witness"
        return _emit(ser.report("check-dwyer", {"functor": doc}, body), args, EXIT_VIOLATED)
    body["witness"] = ser.witness_doc(w)
    return _emit(ser.report("check-dwyer", {"functor": doc}, body), args)


def cmd_pushout(args):
    from .dwyer import dwyer_pushout, find_dwyer_witness, pushout_cross_check
    doc = _read_json(args.input)
    caps = _caps(args)
    with _parsing(args.input):
        A = category_from_doc(doc["A"], caps)
        B = category_from_doc(doc["B"], caps)
        C = category_from_doc(doc["C"], caps)
        i = ser.functor_from_maps(doc["i"], A, B)
        c = ser.functor_from_maps(doc["c"], A, C)
    try:
        w = find_dwyer_witness(i, None, caps)
    except GcatError:
        w = None
    if w is None:
        # not a Dwyer map; the presentation oracle still applies
        try:
            res = presented_pushout(A, B, C, i, c, args.word_cap, caps)
        except Inconclusive as exc:
            body = {"pushout": None, "dwyer": "not applicable",
                    "oracle": "inconclusive", "non_closing_word_length": len(exc.word)}
            return _emit(ser.report("pushout", {"span": doc}, body), args, EXIT_INCONCLUSIVE)
        body = {"pushout": res.category.to_doc(), "dwyer": "not applicable",
                "oracle": "closed"}
        return _emit(ser.report("pushout", {"span": doc}, body), args)
    if args.cross_check:
        try:
            agree, po, res = pushout_cross_check(A, B, C, i, c, w, args.word_cap, caps)
        except Inconclusive as exc:
            po = dwyer_pushout(A, B, C, i, c, w, caps)
            body = {"pushout": po.category.to_doc(), "cross_check": "inconclusive",
                    "non_closing_word_length": len(exc.word)}
            return _emit(ser.report("pushout", {"span": doc}, body), args, EXIT_INCONCLUSIVE)
        body = {"pushout": po.category.to_doc(), "cross_check": bool(agree),
                "oracle_morphisms": res.category.n_morphisms()}
        return _emit(ser.report("pushout", {"span": doc}, body), args,
                     EXIT_OK if agree else EXIT_VIOLATED)
    po = dwyer_pushout(A, B, C, i, c, w, caps)
    body = {"pushout": po.category.to_doc(), "cross_check": None}
    return _emit(ser.report("pushout", {"span": doc}, body), args)


def cmd_fixed(args):
    from .actions import fixed_category, subgroup_key
    doc = _read_json(args.input)
    with _parsing(args.input):
        A = ser.action_from_doc(doc, _caps(args))
    fam_doc = _read_json(args.family)
    with _parsing(args.family):
        _, family = ser.load_family(fam_doc)
    out = {}
    for H in family:
        out[subgroup_key(H)] = fixed_category(A, H).to_doc()
    body = {"fixed": out}
    return _emit(ser.report("fixed", {"action": doc, "family": fam_doc}, body), args)


def cmd_hofix(args):
    from .actions import pair_key
    from .weq import homotopy_fixed_points
    doc = _read_json(args.input)
    with _parsing(args.input):
        A = ser.action_from_doc(doc, _caps(args))
    pairs_doc = _read_json(args.pairs)
    with _parsing(args.pairs):
        _, _, pairs = ser.load_pairs(pairs_doc)
    out = {}
    for H, phi in pairs:
        hd = homotopy_fixed_points(A, H, phi, _caps(args))
        out[pair_key(H, phi)] = hd.category.to_doc()
    body = {"homotopy_fixed_points": out}
    return _emit(ser.report("hofix", {"action": doc, "pairs": pairs_doc}, body), args)


def cmd_weq(args):
    from .weq import equivalence_certificate, homology_certificate
    doc = _read_json(args.input)
    with _parsing(args.input):
        is_sset_map = "values" in doc
        f = ser.sset_map_from_doc(doc) if is_sset_map else ser.functor_from_doc(doc, _caps(args))
    if is_sset_map:
        nec = homology_certificate(f, args.cap, _caps(args))
        body = {"sufficient": None, "necessary": nec.to_doc()}
        code = EXIT_OK if nec.passed else EXIT_VIOLATED
        if not nec.passed:
            body["violated"] = "homology/pi0 mismatch"
        return _emit(ser.report("weq", {"map": doc}, body), args, code)
    suff = equivalence_certificate(f, caps=_caps(args))
    nec = homology_certificate(f, args.cap, _caps(args))
    body = {"sufficient": suff.to_doc() if suff else None, "necessary": nec.to_doc()}
    code = EXIT_OK if (suff is not None or nec.passed) else EXIT_VIOLATED
    if not nec.passed:
        code = EXIT_VIOLATED
        body["violated"] = "homology/pi0 mismatch"
    return _emit(ser.report("weq", {"functor": doc}, body), args, code)


def cmd_gglobal_weq(args):
    from .weq import g_global_we
    doc = _read_json(args.input)
    caps = _caps(args)
    with _parsing(args.input):
        act_C = ser.action_from_doc(doc["source_action"], caps)
        act_D = ser.action_from_doc(doc["target_action"], caps)
        F = ser.functor_from_maps(doc["functor"], act_C.carrier, act_D.carrier)
    pairs_doc = _read_json(args.pairs)
    with _parsing(args.pairs):
        _, _, pairs = ser.load_pairs(pairs_doc)
    cert = g_global_we(F, act_C, act_D, pairs, args.cap, caps)
    body = {"certificate": cert.to_doc(),
            "scope": "supplied (H, phi) pairs only"}
    return _emit(ser.report("gglobal-weq", {"map": doc, "pairs": pairs_doc}, body), args,
                 EXIT_OK if cert.passed else EXIT_VIOLATED)


def cmd_saturate(args):
    from .actions import cell_category, subgroup_from_elements
    from .weq import cell_avatar, poset_avatar, saturation_check
    spec = _read_json(args.input)
    pairs_doc = _read_json(args.pairs)
    with _parsing(args.pairs):
        G, Hg, pairs = ser.load_pairs(pairs_doc)
    caps = _caps(args)
    with _parsing(args.input):
        kind = spec["kind"]
        if kind == "poset":
            P = category_from_doc(spec["category"], caps)
        elif kind == "cell":
            K = named_group(spec["K"])
            H = subgroup_from_elements(K, spec["H"])
            phi = dict(spec["phi"])
    if kind == "poset":
        avatar = poset_avatar(P, Hg, G)
    elif kind == "cell":
        avatar = cell_avatar(cell_category(K, G, H, phi, caps))
    else:
        print("unknown avatar kind", file=sys.stderr)
        return EXIT_USAGE
    rep = saturation_check(avatar, pairs, caps)
    body = {"report": rep, "avatar": avatar.label}
    return _emit(ser.report("saturate", {"avatar": spec, "pairs": pairs_doc}, body), args,
                 EXIT_OK if rep["all_passed"] else EXIT_VIOLATED)


def cmd_gens(args):
    from .dwyer import find_dwyer_witness, is_sieve
    from .weq import GeneratorSpec, generating_maps
    params = {}
    if args.params:
        raw = json.loads(args.params)
        for key, val in raw.items():
            if key in ("H", "G", "Hp"):
                params[key] = named_group(val)
            elif key == "phi":
                params[key] = dict(val)
            elif key == "M":
                params[key] = ser.monoid_from_doc(val) if isinstance(val, dict) else named_group(val)
            else:
                params[key] = val
    spec = GeneratorSpec(args.model, args.n, args.k, args.acyclic, params)
    caps = _caps(args)
    gm = generating_maps(spec, caps)
    sieve = is_sieve(gm.functor)
    if gm.group is not None:
        w = find_dwyer_witness(gm.functor, (gm.group, gm.act_src, gm.act_dst), caps)
    else:
        w = find_dwyer_witness(gm.functor, None, caps)
    body = {"name": gm.name, "sieve": sieve, "dwyer_witness": w is not None,
            "source": gm.functor.source.to_doc(), "target": gm.functor.target.to_doc(),
            **ser.maps_doc(gm.functor)}
    code = EXIT_OK if sieve and w is not None else EXIT_VIOLATED
    return _emit(ser.report("gens", {"spec": {"model": args.model, "n": args.n,
                                              "k": args.k, "acyclic": args.acyclic,
                                              "params": args.params or ""}}, body), args, code)


def cmd_transfer_check(args):
    from .weq import GeneratorSpec, check_transfer_conditions, generating_maps
    caps = WIDE_CAPS
    G = named_group(args.G)
    H = named_group(args.H)
    phi = json.loads(args.phi) if args.phi else {h: h for h in H.elements}
    I = [generating_maps(GeneratorSpec("g_global_thin", n,
                                       params={"H": H, "G": G, "phi": phi}), caps)
         for n in range(0, args.n_max + 1)]
    J = [generating_maps(GeneratorSpec("g_global_thin", n, k=k, acyclic=True,
                                       params={"H": H, "G": G, "phi": phi}), caps)
         for n in range(1, args.n_max + 1) for k in range(n + 1)]
    if args.U.startswith("fun_e:"):
        U = ("fun_e", named_group(args.U.split(":", 1)[1]))
    elif args.U.startswith("fixed:"):
        U = ("fixed", named_group(args.U.split(":", 1)[1]))
    elif args.U == "ex2_nerve":
        U = ("ex2_nerve",)
    else:
        U = ("identity",)
    rep = check_transfer_conditions(I, J, U, args.cap, caps)
    body = {"report": rep}
    return _emit(ser.report("transfer-check",
                            {"spec": {"U": args.U, "G": args.G, "H": args.H,
                                      "n_max": args.n_max}}, body), args,
                 EXIT_OK if rep["all_passed"] else EXIT_VIOLATED)


def cmd_corpus(args):
    if args.seed is None:
        print("corpus generation requires --seed", file=sys.stderr)
        return EXIT_USAGE
    spans = dwyer_span_corpus(args.seed, args.count, args.group, _caps(args))
    out = []
    for idx, s in enumerate(spans):
        out.append({
            "index": idx,
            "label": s.label,
            "A": s.A.to_doc(), "B": s.B.to_doc(), "C": s.C.to_doc(),
            "i": ser.maps_doc(s.i),
            "c": ser.maps_doc(s.c),
            "witness": ser.witness_doc(s.witness),
        })
    body = {"count": len(out), "group": args.group or "1", "spans": out}
    return _emit(ser.report("corpus", {}, body, seed=args.seed), args)


def _int_at_least(low):
    """argparse type: an integer >= low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


non_negative_int = _int_at_least(0)
positive_int = _int_at_least(1)


def build_parser():
    p = argparse.ArgumentParser(prog="gcat",
                                description="exact finite-category toolkit "
                                            "(Dwyer pushouts, nerves, Ex, certificates)")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--output", help="also write the report to this path")
    p.add_argument("--wide-caps", action="store_true", help="use roomier enumeration caps")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, cap=True, word_cap=False, seed=False):
        if cap:
            sp.add_argument("--cap", type=non_negative_int, default=3)
        if word_cap:
            sp.add_argument("--word-cap", dest="word_cap", type=positive_int, default=16)
        if seed:
            sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("validate"); sp.add_argument("--input", required=True)
    common(sp); sp.set_defaults(func=cmd_validate)
    sp = sub.add_parser("nerve"); sp.add_argument("--input", required=True)
    common(sp); sp.set_defaults(func=cmd_nerve)
    sp = sub.add_parser("homology"); sp.add_argument("--input", required=True)
    sp.add_argument("--kind", choices=["category", "sset", "complex"], default="category")
    common(sp); sp.set_defaults(func=cmd_homology)
    sp = sub.add_parser("sd"); sp.add_argument("--input", required=True)
    common(sp); sp.set_defaults(func=cmd_sd)
    sp = sub.add_parser("ex"); sp.add_argument("--input", required=True)
    common(sp); sp.set_defaults(func=cmd_ex)
    sp = sub.add_parser("check-dwyer"); sp.add_argument("--input", required=True)
    common(sp); sp.set_defaults(func=cmd_check_dwyer)
    sp = sub.add_parser("pushout"); sp.add_argument("--input", required=True)
    sp.add_argument("--cross-check", dest="cross_check", action="store_true")
    common(sp, word_cap=True); sp.set_defaults(func=cmd_pushout)
    sp = sub.add_parser("fixed"); sp.add_argument("--input", required=True)
    sp.add_argument("--family", required=True)
    common(sp); sp.set_defaults(func=cmd_fixed)
    sp = sub.add_parser("hofix"); sp.add_argument("--input", required=True)
    sp.add_argument("--pairs", required=True)
    common(sp); sp.set_defaults(func=cmd_hofix)
    sp = sub.add_parser("weq"); sp.add_argument("--input", required=True)
    common(sp); sp.set_defaults(func=cmd_weq)
    sp = sub.add_parser("gglobal-weq"); sp.add_argument("--input", required=True)
    sp.add_argument("--pairs", required=True)
    common(sp); sp.set_defaults(func=cmd_gglobal_weq)
    sp = sub.add_parser("saturate"); sp.add_argument("--input", required=True)
    sp.add_argument("--pairs", required=True)
    common(sp); sp.set_defaults(func=cmd_saturate)
    sp = sub.add_parser("gens")
    sp.add_argument("--model", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--acyclic", action="store_true")
    sp.add_argument("--params", help="JSON object; groups by name (Z2, S3, ...)")
    common(sp); sp.set_defaults(func=cmd_gens)
    sp = sub.add_parser("transfer-check")
    sp.add_argument("--U", default="fun_e:Z2")
    sp.add_argument("--G", default="Z2")
    sp.add_argument("--H", default="Z2")
    sp.add_argument("--phi", default=None, help="JSON dict H element -> G element")
    sp.add_argument("--n-max", dest="n_max", type=int, default=1)
    common(sp); sp.set_defaults(func=cmd_transfer_check)
    sp = sub.add_parser("corpus")
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--group", default=None)
    common(sp, seed=True); sp.set_defaults(func=cmd_corpus)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except MalformedDocument as exc:
        print(ser.canonical_json({"error": "malformed document", "detail": str(exc)}))
        return EXIT_USAGE
    except Inconclusive as exc:
        print(ser.canonical_json({"verdict": "inconclusive", "detail": str(exc)}))
        return EXIT_INCONCLUSIVE
    except SizeCapExceeded as exc:
        print(ser.canonical_json({"verdict": "inconclusive", "cap": exc.cap,
                                  "count": exc.count, "detail": str(exc)}))
        return EXIT_INCONCLUSIVE
    except GcatError as exc:
        print(ser.canonical_json({"verdict": "violated", "detail": str(exc)}))
        return EXIT_VIOLATED


if __name__ == "__main__":
    sys.exit(main())
