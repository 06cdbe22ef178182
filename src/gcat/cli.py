"""gcat command line: document IO, checks, and report emission.

Every subcommand is one entry of COMMANDS: its handler and its own flags
(each also takes --cap).  A handler reads its documents with `_load` and
the readers of `serialize`, runs its check and returns (inputs, body, exit
code); `main` wraps that in `serialize.report`, emits it, and turns every
error into an exit code.  The argument parser is built once per process, on
the first `main` call.

Exit codes: 0 all properties hold, 1 a property is violated (the report names
it), 2 inconclusive (a cap was hit), 64 usage error, 74 IO error. Where the
errors go:

- a bad argument (an out-of-range number, an unknown group name, `gens
  --model` or `transfer-check --U`, or a --cap above the cap of the
  simplicial set or map that `ex`, `homology --kind sset` or `weq` reads,
  the smaller of source's and target's for a map; there --cap defaults to
  min(3, that cap), elsewhere to 3): argparse's usage text on stderr, exit 64;
- a malformed document, in a file or in the inline JSON of `gens --params`
  and `transfer-check --phi`: a missing key, or a value of the wrong type
  (every id is a string, caps and dimensions are JSON integers, maps are
  JSON objects): one `{"error": "malformed document", ...}` object on
  stdout, exit 64;
- an input file that cannot be read, is not UTF-8 or holds invalid JSON, an
  `--output` that cannot be written (the report is still on stdout), or a
  stdout that its reader closed before the report was written: one
  `{"error": ...}` object on stderr, exit 74.

Identical invocation + seed gives a byte-identical report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .config import DEFAULT_CAPS, WIDE_CAPS
from .errors import GcatError, Inconclusive, NotAHomomorphism, NotASubgroup, SizeCapExceeded
from . import serialize as ser
from .fincat import presented_pushout
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


class FileFailure(Exception):
    """A file cannot be read or written, or does not hold JSON."""


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFailure(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:   # JSONDecodeError; UnicodeDecodeError if not UTF-8
        raise FileFailure(f"invalid JSON in {path}") from exc


def _parse(source, parse, value):
    """parse(value); a missing key or a value of the wrong shape in `value`,
    which came from `source`, becomes MalformedDocument, a usage error."""
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise MalformedDocument(f"{source}: {type(exc).__name__}: {exc}") from exc


def _load(path, parse):
    """(doc, parse(doc)) for the JSON document at `path`."""
    doc = _read_json(path)
    return doc, _parse(path, parse, doc)


def _emit(doc, args):
    if args.format == "text":
        for line in _render_text(doc):
            print(line)
    else:
        print(ser.canonical_json(doc))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(ser.canonical_json(doc))
        except OSError as exc:
            raise FileFailure(f"cannot write {args.output}: {exc.strerror}") from exc


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
    else:   # a list
        for v in doc:
            if isinstance(v, (dict, list)):
                yield from _render_text(v, indent + 1)
            else:
                yield f"{pad}- {v}"


def _document_cap(args, cap=None):
    """Default args.cap to 3, or to min(3, cap) where the input document is
    a simplicial set or map of cap `cap`.  A --cap above that cap asks for
    degrees the document cannot determine: a usage error."""
    if args.cap is None:
        args.cap = 3 if cap is None else min(3, cap)
    elif cap is not None and args.cap > cap:
        args.usage_error(f"--cap {args.cap} exceeds the cap {cap} of the input document")


def cmd_validate(args):
    doc, cat = _load(args.input, lambda d: ser.category_from_doc(d, args.caps))
    body = {"valid": True, "objects": cat.n_objects(), "morphisms": cat.n_morphisms()}
    return {"category": doc}, body, EXIT_OK


def cmd_nerve(args):
    from .sset import nerve
    doc, cat = _load(args.input, lambda d: ser.category_from_doc(d, args.caps))
    N = nerve(cat, args.cap, args.caps)
    body = {"cap": args.cap, "nondegenerate": {str(n): N.n_nondeg(n) for n in range(args.cap + 1)},
            "sset": N.to_doc()}
    return {"category": doc}, body, EXIT_OK


def cmd_homology(args):
    from .sset import complex_to_sset, homology, nerve
    parse = {"sset": ser.sset_from_doc, "complex": ser.complex_from_doc,
             "category": lambda d: ser.category_from_doc(d, args.caps)}[args.kind]
    doc, X = _load(args.input, parse)
    _document_cap(args, X.cap if args.kind == "sset" else None)
    if args.kind == "complex":
        X = complex_to_sset(X, args.cap)
    elif args.kind == "category":
        X = nerve(X, args.cap, args.caps)
    h = homology(X, args.cap)
    body = {"cap": args.cap,
            "homology": [{"degree": k, "betti": b, "torsion": list(t)}
                         for k, (b, t) in enumerate(h)]}
    return {"input": doc}, body, EXIT_OK


def cmd_sd(args):
    from .sset import face_poset, sd_complex
    doc, K = _load(args.input, ser.complex_from_doc)
    body = {"face_poset": face_poset(K).to_fincat(args.caps).to_doc(),
            "sd_complex": ser.complex_doc(sd_complex(K))}
    return {"complex": doc}, body, EXIT_OK


def cmd_ex(args):
    from .sset import ex, e_map
    doc, X = _load(args.input, ser.sset_from_doc)
    _document_cap(args, X.cap)
    try:
        exd = ex(X, args.cap, args.caps)
    except SizeCapExceeded as exc:
        return {"sset": doc}, {"inconclusive": str(exc)}, EXIT_INCONCLUSIVE
    em = e_map(X, exd)
    body = {"cap": args.cap,
            "nondegenerate": {str(n): exd.sset.n_nondeg(n) for n in range(args.cap + 1)},
            "total": {str(n): exd.sset.total_count(n) for n in range(args.cap + 1)},
            "unit_injective": em.is_injective(),
            "sset": exd.sset.to_doc()}
    return {"sset": doc}, body, EXIT_OK


def cmd_check_dwyer(args):
    from .dwyer import find_dwyer_witness, is_cosieve, is_sieve
    doc, F = _load(args.input, lambda d: ser.functor_from_doc(d, args.caps))
    sieve = is_sieve(F)
    body = {"sieve": sieve, "cosieve": is_cosieve(F), "witness": None}
    w = find_dwyer_witness(F) if sieve else None
    if w is not None:
        body["witness"] = ser.witness_doc(w)
    else:
        body["refusal"] = "exhaustive search found no witness" if sieve else "not a sieve"
    return {"functor": doc}, body, EXIT_VIOLATED if w is None else EXIT_OK


def cmd_pushout(args):
    from .dwyer import dwyer_pushout, find_dwyer_witness, pushout_cross_check
    caps = args.caps

    def parse(doc):
        A, B, C = (ser.category_from_doc(doc[k], caps) for k in "ABC")
        return A, B, C, ser.functor_from_maps(doc["i"], A, B), ser.functor_from_maps(doc["c"], A, C)

    doc, (A, B, C, i, c) = _load(args.input, parse)
    try:
        w = find_dwyer_witness(i)
    except GcatError:
        w = None
    code = EXIT_OK
    if w is None:
        # not a Dwyer map; the presentation oracle still applies
        body = {"dwyer": "not applicable"}
        try:
            res = presented_pushout(A, B, C, i, c, args.word_cap, caps)
        except Inconclusive as exc:
            body.update(pushout=None, oracle="inconclusive", non_closing_word_length=len(exc.word))
            code = EXIT_INCONCLUSIVE
        else:
            body.update(pushout=res.category.to_doc(), oracle="closed")
    elif args.cross_check:
        try:
            agree, po, res = pushout_cross_check(A, B, C, i, c, w, args.word_cap, caps)
        except Inconclusive as exc:
            po = dwyer_pushout(A, B, C, i, c, w, caps)
            body = {"pushout": po.category.to_doc(), "cross_check": "inconclusive",
                    "non_closing_word_length": len(exc.word)}
            code = EXIT_INCONCLUSIVE
        else:
            body = {"pushout": po.category.to_doc(), "cross_check": bool(agree),
                    "oracle_morphisms": res.category.n_morphisms()}
            code = EXIT_OK if agree else EXIT_VIOLATED
    else:
        po = dwyer_pushout(A, B, C, i, c, w, caps)
        body = {"pushout": po.category.to_doc(), "cross_check": None}
    return {"span": doc}, body, code


def cmd_fixed(args):
    from .actions import fixed_category, subgroup_key
    doc, A = _load(args.input, lambda d: ser.action_from_doc(d, args.caps))
    fam_doc, (_, family) = _load(args.family, ser.load_family)
    body = {"fixed": {subgroup_key(H): fixed_category(A, H).to_doc() for H in family}}
    return {"action": doc, "family": fam_doc}, body, EXIT_OK


def cmd_hofix(args):
    from .actions import pair_key
    from .weq import homotopy_fixed_points
    doc, A = _load(args.input, lambda d: ser.action_from_doc(d, args.caps))
    pairs_doc, (_, _, pairs) = _load(args.pairs, ser.load_pairs)
    body = {"homotopy_fixed_points": {
        pair_key(H, phi): homotopy_fixed_points(A, H, phi, args.caps).category.to_doc()
        for H, phi in pairs}}
    return {"action": doc, "pairs": pairs_doc}, body, EXIT_OK


def cmd_weq(args):
    from .weq import equivalence_certificate, homology_certificate
    doc, f = _load(args.input, lambda d: ser.sset_map_from_doc(d) if "values" in d
                   else ser.functor_from_doc(d, args.caps))
    is_sset_map = "values" in doc
    _document_cap(args, min(f.source.cap, f.target.cap) if is_sset_map else None)
    suff = None if is_sset_map else equivalence_certificate(f, args.caps)
    nec = homology_certificate(f, args.cap, args.caps)
    body = {"sufficient": suff.to_doc() if suff else None, "necessary": nec.to_doc()}
    if not nec.passed:
        body["violated"] = "homology/pi0 mismatch"
    inputs = {"map" if is_sset_map else "functor": doc}
    return inputs, body, EXIT_OK if nec.passed else EXIT_VIOLATED


def cmd_gglobal_weq(args):
    from .weq import g_global_we
    caps = args.caps

    def parse(doc):
        act_C = ser.action_from_doc(doc["source_action"], caps)
        act_D = ser.action_from_doc(doc["target_action"], caps)
        return act_C, act_D, ser.functor_from_maps(doc["functor"], act_C.carrier, act_D.carrier)

    doc, (act_C, act_D, F) = _load(args.input, parse)
    pairs_doc, (_, _, pairs) = _load(args.pairs, ser.load_pairs)
    cert = g_global_we(F, act_C, act_D, pairs, args.cap, caps)
    body = {"certificate": cert.to_doc(),
            "scope": "supplied (H, phi) pairs only"}
    return {"map": doc, "pairs": pairs_doc}, body, EXIT_OK if cert.passed else EXIT_VIOLATED


def cmd_saturate(args):
    from .actions import cell_category
    from .weq import cell_avatar, poset_avatar, saturation_check
    caps = args.caps

    def parse(spec):
        """The avatar, as a function of the pairs document's G and H_group."""
        kind = spec["kind"]
        if kind == "poset":
            P = ser.category_from_doc(spec["category"], caps)
            return lambda G, Hg: poset_avatar(P, Hg, G)
        if kind == "cell":
            K = named_group(spec["K"])
            H = ser.subgroup_from_doc(K, spec["H"])
            phi = ser.phi_from_doc(spec["phi"])
            return lambda G, Hg: cell_avatar(cell_category(K, G, H, phi, caps))
        raise ValueError(f"unknown avatar kind {kind!r}")

    spec, avatar_over = _load(args.input, parse)
    pairs_doc, (G, Hg, pairs) = _load(args.pairs, ser.load_pairs)
    avatar = avatar_over(G, Hg)
    rep = saturation_check(avatar, pairs, caps)
    body = {"report": rep, "avatar": avatar.label}
    return ({"avatar": spec, "pairs": pairs_doc}, body,
            EXIT_OK if rep["all_passed"] else EXIT_VIOLATED)


def _require_subgroup(args, flag, name, H, ambient, K):
    """A usage error on `flag` unless H, called `name`, is a subgroup of K,
    called `ambient`: an element outside K fails a table lookup, which is not
    a missing key, and a subset that is no subgroup is bad input, not a
    violated property."""
    from .actions import subgroup_from_elements
    if outside := [h for h in H.elements if h not in K.elements]:
        args.usage_error(f"{flag}: {name}'s elements {outside} are not in {ambient}")
    try:
        subgroup_from_elements(K, H.elements)
    except NotASubgroup as exc:
        args.usage_error(f"{flag}: {name} is not a subgroup of {ambient}: {exc}")


def cmd_gens(args):
    from .dwyer import find_dwyer_witness, is_sieve
    from .weq import GeneratorSpec, generating_maps

    # the reader of each parameter that a model reads; no model reads any other key
    readers = {"H": named_group, "G": named_group, "Hp": named_group, "phi": ser.phi_from_doc,
               "M": lambda v: ser.monoid_from_doc(v) if isinstance(v, dict) else named_group(v)}

    def parse(text):
        return {key: readers[key](val) for key, val in json.loads(text).items() if key in readers}

    spec = GeneratorSpec(args.model, args.n, args.k, args.acyclic)
    try:
        spec.validate()
    except GcatError as exc:   # a flag combination argparse cannot check alone
        args.usage_error(f"--n/--k/--acyclic: {exc}")
    spec.params = _parse("--params", parse, args.params) if args.params else {}
    # H must be a subgroup of the group (the monoid, for f_model) that the model takes it in
    ambient = {"f_model": "M", "g_global_thick_avatar": "Hp", "g_homotopy_fp_thick": "G"}.get(args.model)
    if {"H", ambient} <= spec.params.keys():
        _require_subgroup(args, "--params", "H", spec.params["H"], ambient, spec.params[ambient])
    try:
        gm = generating_maps(spec, args.caps)
    except KeyError as exc:   # a parameter that the model reads is not in --params
        raise MalformedDocument(f"--params: missing {exc}") from exc
    except NotAHomomorphism as exc:
        args.usage_error(f"--params: {exc}")
    sieve = is_sieve(gm.functor)
    w = find_dwyer_witness(gm.functor, gm.equivariance)
    body = {"name": gm.name, "sieve": sieve, "dwyer_witness": w is not None,
            "source": gm.functor.source.to_doc(), "target": gm.functor.target.to_doc(),
            **ser.maps_doc(gm.functor)}
    inputs = {"spec": {"model": args.model, "n": args.n, "k": args.k, "acyclic": args.acyclic,
                       "params": args.params or ""}}
    return inputs, body, EXIT_OK if sieve and w is not None else EXIT_VIOLATED


def _transfer_u(text):
    """The U tag of `check_transfer_conditions` named by `--U` text."""
    kind, colon, group = text.partition(":")
    if colon and kind in ("fun_e", "fixed"):
        return (kind, named_group(group))
    if text in ("identity", "ex2_nerve"):
        return (text,)
    raise ValueError(f"unknown U {text!r}: expected identity, ex2_nerve, "
                     f"fun_e:<group> or fixed:<group>")


def cmd_transfer_check(args):
    from .actions import check_homomorphism
    from .weq import GeneratorSpec, check_transfer_conditions, generating_maps
    caps = WIDE_CAPS
    G = named_group(args.G)
    H = named_group(args.H)
    if args.phi:
        phi = _parse("--phi", lambda text: ser.phi_from_doc(json.loads(text)), args.phi)
    else:
        phi = {h: h for h in H.elements}
    try:
        check_homomorphism(H, G, phi)
    except NotAHomomorphism as exc:
        args.usage_error(f"--phi: {exc}")
    U = _transfer_u(args.U)
    if U[0] == "fixed":   # the fixed points of K ⊆ G, which acts on every generator
        _require_subgroup(args, "--U", args.U, U[1], "G", G)
    I = [generating_maps(GeneratorSpec("g_global_thin", n,
                                       params={"H": H, "G": G, "phi": phi}), caps)
         for n in range(0, args.n_max + 1)]
    J = [generating_maps(GeneratorSpec("g_global_thin", n, k=k, acyclic=True,
                                       params={"H": H, "G": G, "phi": phi}), caps)
         for n in range(1, args.n_max + 1) for k in range(n + 1)]
    rep = check_transfer_conditions(I, J, U, args.cap, caps)
    inputs = {"spec": {"U": args.U, "G": args.G, "H": args.H, "n_max": args.n_max}}
    return inputs, {"report": rep}, EXIT_OK if rep["all_passed"] else EXIT_VIOLATED


def cmd_corpus(args):
    spans = dwyer_span_corpus(args.seed, args.count, args.group)
    out = [{"index": idx,
            "label": s.label,
            "A": s.A.to_doc(), "B": s.B.to_doc(), "C": s.C.to_doc(),
            "i": ser.maps_doc(s.i),
            "c": ser.maps_doc(s.c),
            "witness": ser.witness_doc(s.witness)}
           for idx, s in enumerate(spans)]
    body = {"seed": args.seed, "count": len(out), "group": args.group or "1", "spans": out}
    return {}, body, EXIT_OK


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


def _accepted_by(parse):
    """argparse type: the text itself, once parse(text) raises no ValueError."""
    def check(text):
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text
    return check


def _generator_model(text):
    from .weq import GENERATOR_MODELS
    if text not in GENERATOR_MODELS:
        raise ValueError(f"unknown model {text!r}: expected one of {', '.join(GENERATOR_MODELS)}")


group_name = _accepted_by(named_group)

_INPUT = {"--input": {"required": True}}
_PAIRS = {**_INPUT, "--pairs": {"required": True}}
_CAP = {"--cap": {"type": non_negative_int, "default": 3}}
#: --cap of a command that reads a simplicial set or map, see `_document_cap`
_DOCUMENT_CAP = {"--cap": {"type": non_negative_int,
                           "help": "default: 3, or min(3, a simplicial set or map's cap)"}}

#: subcommand -> (handler, its own flags as {flag: add_argument options})
COMMANDS = {
    "validate": (cmd_validate, _INPUT),
    "nerve": (cmd_nerve, _INPUT),
    "homology": (cmd_homology, {**_INPUT, **_DOCUMENT_CAP,
                                "--kind": {"choices": ["category", "sset", "complex"],
                                           "default": "category"}}),
    "sd": (cmd_sd, _INPUT),
    "ex": (cmd_ex, {**_INPUT, **_DOCUMENT_CAP}),
    "check-dwyer": (cmd_check_dwyer, _INPUT),
    "pushout": (cmd_pushout, {**_INPUT, "--cross-check": {"action": "store_true"},
                              "--word-cap": {"type": positive_int, "default": 16}}),
    "fixed": (cmd_fixed, {**_INPUT, "--family": {"required": True}}),
    "hofix": (cmd_hofix, _PAIRS),
    "weq": (cmd_weq, {**_INPUT, **_DOCUMENT_CAP}),
    "gglobal-weq": (cmd_gglobal_weq, _PAIRS),
    "saturate": (cmd_saturate, _PAIRS),
    "gens": (cmd_gens, {"--model": {"type": _accepted_by(_generator_model), "required": True},
                        "--n": {"type": non_negative_int, "required": True},
                        "--k": {"type": int},
                        "--acyclic": {"action": "store_true"},
                        "--params": {"help": "JSON object; groups by name (Z2, S3, ...)"}}),
    "transfer-check": (cmd_transfer_check, {"--U": {"type": _accepted_by(_transfer_u),
                                                    "default": "fun_e:Z2"},
                                            "--G": {"type": group_name, "default": "Z2"},
                                            "--H": {"type": group_name, "default": "Z2"},
                                            "--phi": {"help": "JSON dict H element -> G element"},
                                            "--n-max": {"type": non_negative_int, "default": 1}}),
    "corpus": (cmd_corpus, {"--seed": {"type": int, "required": True},
                            "--count": {"type": non_negative_int, "default": 10},
                            "--group": {"type": group_name}}),
}


@functools.cache
def build_parser():
    """The parser of every subcommand, built on the first `main` call and
    reused by every later one in this process: parsing leaves no state in
    it, each call gets a new namespace."""
    p = argparse.ArgumentParser(prog="gcat",
                                description="exact finite-category toolkit "
                                            "(Dwyer pushouts, nerves, Ex, certificates)")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--output", help="also write the report to this path")
    p.add_argument("--wide-caps", dest="caps", action="store_const", const=WIDE_CAPS,
                   default=DEFAULT_CAPS,
                   help="use roomier enumeration caps (transfer-check always does)")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        sp = sub.add_parser(name)
        for flag, options in {**flags, **_CAP}.items():
            sp.add_argument(flag, **flags.get(flag, options))   # a command's own --cap first
        sp.set_defaults(usage_error=sp.error)
    return p


def main(argv=None):
    """Run one gcat invocation and return its exit code."""
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:   # the reader closed stdout early, as `| head` does
        # so that the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(json.dumps({"error": "stdout closed before the report was written"}), file=sys.stderr)
        return EXIT_IO


def _run(argv):
    try:
        args = build_parser().parse_args(argv)
        inputs, body, code = COMMANDS[args.command][0](args)
        _emit(ser.report(args.command, inputs, body), args)
        return code
    except SystemExit as exc:   # argparse's --help, or its usage text on stderr
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except FileFailure as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_IO
    except MalformedDocument as exc:
        error, code = {"error": "malformed document", "detail": str(exc)}, EXIT_USAGE
    except SizeCapExceeded as exc:
        error, code = ({"verdict": "inconclusive", "cap": exc.cap, "count": exc.count,
                        "detail": str(exc)}, EXIT_INCONCLUSIVE)
    except GcatError as exc:
        error, code = {"verdict": "violated", "detail": str(exc)}, EXIT_VIOLATED
    print(ser.canonical_json(error))
    return code


if __name__ == "__main__":
    sys.exit(main())
