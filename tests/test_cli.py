"""CLI surface: document round-trips, exit codes, deterministic reports."""

import copy
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gcat import cli, serialize as ser
from gcat.actions import chaotic_category, cyclic_group, translation_action
from gcat.fincat import (
    Functor,
    arrow_category,
    identity_functor,
    terminal_category,
    thin_category,
    validate_category,
)
from gcat.sset import (
    boundary_complex,
    complex_to_sset,
    ex,
    identity_sset_map,
    nerve,
    standard_simplex_complex,
)

from helpers import sset_map_doc


# the directory gcat was imported from, so a subprocess imports the same tree
GCAT_ROOT = str(Path(cli.__file__).resolve().parents[1])


def gcat_env():
    """The environment with GCAT_ROOT first on PYTHONPATH."""
    path = os.pathsep.join(p for p in (GCAT_ROOT, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def gcat_process(args):
    """`python -m gcat.cli *args` in a subprocess, with its output captured."""
    return subprocess.run([sys.executable, "-m", "gcat.cli", *args], capture_output=True,
                          text=True, env=gcat_env())


def run_cli(args, expect=0):
    proc = gcat_process(args)
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc.stdout


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(ser.canonical_json(doc), encoding="utf-8")
    return str(p)


def span_doc():
    one = terminal_category()
    arrow = arrow_category()
    return {
        "A": one.to_doc(), "B": arrow.to_doc(), "C": arrow.to_doc(),
        "i": {"object_map": {"*": "0"}, "morphism_map": {"id*": "0<=0"}},
        "c": {"object_map": {"*": "1"}, "morphism_map": {"id*": "1<=1"}},
    }


def test_validate_and_exit_codes(tmp_path):
    path = write(tmp_path, "arrow.json", arrow_category().to_doc())
    out = json.loads(run_cli(["validate", "--input", path]))
    assert out["valid"] and out["objects"] == 2
    assert "library_version" in out and out["input_hashes"]


def test_validate_rejects_bad_table(tmp_path):
    doc = arrow_category().to_doc()
    doc["compose"] = [c for c in doc["compose"] if c[0] != "0<=1"]
    path = write(tmp_path, "bad.json", doc)
    run_cli(["validate", "--input", path], expect=1)


def test_negative_cap_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "arrow.json", arrow_category().to_doc())
    span = write(tmp_path, "span.json", span_doc())
    for argv, flag, value in [(["nerve", "--input", path], "--cap", "-1"),
                              (["nerve", "--input", path], "--cap", "x"),
                              (["pushout", "--input", span], "--word-cap", "-3"),
                              (["pushout", "--input", span], "--word-cap", "x"),
                              (["transfer-check", "--n-max", "0"], "--U", "bogus"),
                              (["transfer-check", "--n-max", "0"], "--U", "fun_e:Q"),
                              (["transfer-check"], "--G", "Q"),
                              (["transfer-check"], "--H", "Z0"),
                              (["transfer-check"], "--n-max", "-1"),
                              (["corpus", "--seed", "1"], "--group", "Zx"),
                              (["corpus", "--seed", "1"], "--count", "-2"),
                              (["gens", "--n", "0"], "--model", "nosuch"),
                              (["gens", "--model", "g_global_thin"], "--n", "-1"),
                              (["gens", "--model", "thomason", "--n", "1", "--acyclic"], "--k", "5"),
                              (["gens", "--model", "thomason", "--n", "1", "--acyclic"], "--k", "-1"),
                              (["gens", "--model", "thomason", "--n", "1"], "--k", "5"),
                              (["gens", "--model", "thomason", "--acyclic", "--k", "0"], "--n", "0")]:
        code = cli.main([*argv, flag, value])
        out, err = capsys.readouterr()
        assert code == 64 and out == "", (argv, flag, value)
        assert flag in err
    proc = gcat_process(["nerve", "--input", path, "--cap", "-1"])
    assert proc.returncode == 64 and proc.stdout == "" and "--cap" in proc.stderr
    out = json.loads(run_cli(["nerve", "--input", path, "--cap", "0"]))
    assert out["nondegenerate"] == {"0": 2}


def test_transfer_check_phi_not_a_homomorphism_is_a_usage_error(capsys):
    """The default φ, H's names sent to themselves, and a given --phi are
    both checked to be homomorphisms H -> G before any generator is built."""
    for argv, detail in [(["--G", "Z2", "--H", "1"], "--phi: phi undefined/invalid at 'e'"),
                         (["--phi", '{"c0": "c1", "c1": "c0"}'],
                          "--phi: phi does not preserve the unit")]:
        code = cli.main(["transfer-check", "--n-max", "0", *argv])
        out, err = capsys.readouterr()
        assert code == 64 and out == "" and detail in err, argv
    code = cli.main(["transfer-check", "--G", "Z2", "--H", "1", "--phi", '{"e": "c0"}',
                     "--n-max", "0"])
    out, _ = capsys.readouterr()
    assert code == 0 and json.loads(out)["report"]["all_passed"]


@pytest.mark.parametrize("argv, code, detail", [
    (["--U", "fixed:1"], 64, "--U: fixed:1's elements ['e'] are not in G"),
    (["--U", "fixed:S3"], 64, "--U: fixed:S3's elements ['s012', 's021', 's102', 's120', 's201', "
                              "'s210'] are not in G"),
    (["--G", "S3", "--H", "Z2", "--phi", '{"c0": "s012", "c1": "s021"}', "--U", "fixed:Z2"], 64,
     "--U: fixed:Z2's elements ['c0', 'c1'] are not in G"),
    (["--G", "Z3", "--H", "Z3", "--U", "fixed:Z2"], 64,
     "--U: fixed:Z2 is not a subgroup of G: ('c0', 'c1') is not closed / missing unit"),
    (["--U", "fixed:Z1"], 0, None),
    (["--U", "fixed:Z2"], 0, None),
])
def test_transfer_check_fixed_u_must_be_a_subgroup_of_g(capsys, argv, code, detail):
    """`--U fixed:<K>` takes fixed points of K ⊆ G: a K with elements outside G
    ended in a KeyError traceback, and a K that is no subgroup of G was
    reported as violated, exit 1.  Both are usage errors; {c0} and Z2 in Z2
    still pass."""
    assert cli.main(["transfer-check", "--n-max", "0", *argv]) == code
    out, err = capsys.readouterr()
    if detail is None:
        assert json.loads(out)["report"]["all_passed"] and err == ""
    else:
        assert out == "" and detail in err and "Traceback" not in err


@pytest.mark.parametrize("model, params, detail", [
    ("g_global_thin", '{"H": "Z2", "G": "Z2", "phi": {"c0": "c1", "c1": "c0"}}',
     "--params: phi does not preserve the unit"),
    ("g_homotopy_fp", '{"H": "Z2", "G": "Z3"}',    # φ sends H's names to themselves
     "--params: phi breaks multiplication on ('c1','c1')"),
])
def test_gens_params_phi_not_a_homomorphism_is_a_usage_error(capsys, model, params, detail):
    """A --params φ that is not a homomorphism H -> G is a usage error, as
    `transfer-check --phi` is; it was reported as violated, exit 1."""
    code = cli.main(["gens", "--model", model, "--n", "0", "--params", params])
    out, err = capsys.readouterr()
    assert code == 64 and out == "" and detail in err


@pytest.mark.parametrize("model, params, detail", [
    ("f_model", '{"M": "Z2", "H": "Z3"}', "--params: H's elements ['c2'] are not in M"),
    ("g_global_thick_avatar", '{"H": "1", "Hp": "Z2", "G": "Z2", "phi": {"e": "c0"}}',
     "--params: H's elements ['e'] are not in Hp"),
    ("g_global_thick_avatar", '{"H": "Z2", "Hp": "Z4", "G": "Z2", "phi": {"c0": "c0", "c1": "c1"}}',
     "--params: H is not a subgroup of Hp: ('c0', 'c1') is not closed / missing unit"),
])
def test_gens_params_h_not_a_subgroup_is_a_usage_error(capsys, model, params, detail):
    """An H whose elements are not all in the group (or monoid) that the
    model takes it in read as a missing parameter, `missing ('c0', 'c2')`;
    an H that is not a subgroup there was reported as violated, exit 1."""
    code = cli.main(["gens", "--model", model, "--n", "0", "--params", params])
    out, err = capsys.readouterr()
    assert code == 64 and out == "" and detail in err


def test_gens_params_missing_key_keeps_its_message(capsys):
    code = cli.main(["gens", "--model", "g_global_thin", "--n", "0", "--params", '{"H": "Z2"}'])
    out, err = capsys.readouterr()
    assert code == 64 and err == "" and json.loads(out)["detail"] == "--params: missing 'G'"


def test_wide_caps_help_says_transfer_check_always_uses_them(capsys):
    assert cli.main(["--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "use roomier enumeration caps (transfer-check always does)" in help_text


Z2_PAIRS ={"G": "Z2", "H_group": "Z2",
            "pairs": [{"H": ["c0", "c1"], "phi": {"c0": "c0", "c1": "c1"}}]}


def malformed_argv(tmp_path, command, text):
    """argv that hands `command` the malformed `text`: inline as `gens --params`
    or `transfer-check --phi`, else as its --input document."""
    if command == "gens":
        return ["gens", "--model", "g_global_thin", "--n", "0", "--params", text]
    if command == "transfer-check":
        return ["transfer-check", "--phi", text]
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--input", str(path)]
    if command == "saturate":
        argv += ["--pairs", write(tmp_path, "pairs.json", Z2_PAIRS)]
    return argv


@pytest.mark.parametrize("command,text", [("validate", "{}"), ("validate", "[1, 2]"),
                                          ("pushout", "{}"), ("saturate", '{"kind": "other"}'),
                                          ("gens", "{bad"), ("gens", "[1]"),
                                          ("gens", '{"H": "Q"}'),
                                          ("transfer-check", "{bad")])
def test_malformed_document_is_a_usage_error(tmp_path, command, text):
    proc = gcat_process(malformed_argv(tmp_path, command, text))
    assert proc.returncode == 64, (proc.stdout, proc.stderr)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "malformed document"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags", [[], ["--cross-check"]])
def test_pushout_with_integer_morphism_ids_is_a_usage_error(tmp_path, flags):
    """C's morphism ids are JSON integers and B's are strings.  C's table is
    consistent on its own; ids must be strings, so the span is malformed
    (it used to end in a TypeError traceback from sorting mixed ids)."""
    doc = span_doc()
    number = {m: n for n, (m, _, _) in enumerate(arrow_category().morphisms)}
    C = doc["C"]
    doc["C"] = {"objects": C["objects"],
                "morphisms": [[number[m], s, t] for m, s, t in C["morphisms"]],
                "identity": {x: number[m] for x, m in C["identity"].items()},
                "compose": [[number[g], number[f], number[h]] for g, f, h in C["compose"]]}
    doc["c"]["morphism_map"] = {"id*": number["1<=1"]}
    for argv in (["pushout", "--input", write(tmp_path, "span.json", doc), *flags],
                 ["validate", "--input", write(tmp_path, "C.json", doc["C"])]):
        proc = gcat_process(argv)
        assert proc.returncode == 64, (argv, proc.stdout, proc.stderr)
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and json.loads(lines[0]) == {
            "detail": f"{argv[2]}: TypeError: morphism id 0 is not a string",
            "error": "malformed document"}
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("entry", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("command", ["homology", "weq"])
def test_non_integer_alpha_entry_is_a_usage_error(tmp_path, capsys, command, entry):
    """An alpha entry that is not an int makes the document malformed: in a
    face of the simplicial set of `gcat homology --kind sset` and in a value
    of the map of `gcat weq` (both parsers once stored it as read)."""
    X = complex_to_sset(standard_simplex_complex(2), 2)
    if command == "homology":
        doc = X.to_doc()
        doc["faces"][-1][2][0][1] = [0, entry]
        argv = ["homology", "--kind", "sset", "--input", write(tmp_path, "X.json", doc)]
    else:
        doc = sset_map_doc(identity_sset_map(X))
        doc["values"][-1][2][1] = [0, entry, 2]
        argv = ["weq", "--input", write(tmp_path, "f.json", doc)]
    assert cli.main(argv) == 64
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out) == {
        "detail": f"{argv[-1]}: TypeError: alpha entry {entry!r} is not an integer",
        "error": "malformed document"}


def test_missing_input_file_is_an_io_error(tmp_path):
    missing = str(tmp_path / "missing.json")
    proc = gcat_process(["validate", "--input", missing])
    assert proc.returncode == 74 and proc.stdout == ""
    assert missing in json.loads(proc.stderr)["error"]


def test_input_that_is_not_utf8_is_an_io_error(tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe\x7b")
    proc = gcat_process(["validate", "--input", str(path)])
    assert proc.returncode == 74 and proc.stdout == ""
    assert str(path) in json.loads(proc.stderr)["error"]


def test_io_error_is_returned_in_process(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert cli.main(["validate", "--input", missing]) == 74
    out, err = capsys.readouterr()
    assert out == "" and missing in json.loads(err)["error"]


def test_closed_stdout_is_an_io_error():
    # the report (about 250 kB) outgrows the pipe's buffer, so its write meets the closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "gcat.cli", "corpus", "--seed", "1", "--count", "40"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=gcat_env())
    assert proc.stdout.read(20) == b'{"command":"corpus",'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 74
    assert "Traceback" not in err and json.loads(err) == {"error": "stdout closed before the report was written"}


def test_unwritable_output_is_an_io_error(tmp_path):
    path = write(tmp_path, "arrow.json", arrow_category().to_doc())
    target = str(tmp_path / "no-such-dir" / "x.json")
    proc = gcat_process(["--output", target, "validate", "--input", path])
    assert proc.returncode == 74
    assert proc.stdout == run_cli(["validate", "--input", path])
    error = json.loads(proc.stderr)["error"]
    assert error.startswith(f"cannot write {target}: ")


def test_homology_of_sphere(tmp_path):
    path = write(tmp_path, "bd2.json", ser.complex_doc(boundary_complex(2)))
    out = json.loads(run_cli(["homology", "--input", path, "--kind", "complex"]))
    assert out["homology"][0] == {"degree": 0, "betti": 1, "torsion": []}
    assert out["homology"][1] == {"degree": 1, "betti": 1, "torsion": []}


def test_pushout_cross_check_exit_zero(tmp_path):
    path = write(tmp_path, "span.json", span_doc())
    out = json.loads(run_cli(["pushout", "--input", path, "--cross-check"]))
    assert out["cross_check"] is True
    assert sorted(out["pushout"]["objects"]) == ["0", "1", "V:1"]


def test_pushout_inconclusive_exit_two(tmp_path):
    from gcat.fincat import discrete_category
    one = terminal_category()
    arrow = arrow_category()
    two = discrete_category(["a", "b"])
    doc = {
        "A": two.to_doc(), "B": arrow.to_doc(), "C": one.to_doc(),
        "i": {"object_map": {"a": "0", "b": "1"},
              "morphism_map": {"id:a": "0<=0", "id:b": "1<=1"}},
        "c": {"object_map": {"a": "*", "b": "*"},
              "morphism_map": {"id:a": "id*", "id:b": "id*"}},
    }
    path = write(tmp_path, "loop.json", doc)
    run_cli(["pushout", "--input", path, "--cross-check", "--word-cap", "3"], expect=2)


def test_weq_violated_exit_one(tmp_path):
    # ∂Δ² ↪ Δ² as a functor of face posets would not be honest; use homology on
    # the nerve route instead: a functor with non-matching homology
    from gcat.sset import h_sd2
    C = h_sd2(boundary_complex(1))     # 2-object discrete
    D = terminal_category()
    F = Functor(C, D, {x: "*" for x in C.objects}, {m: "id*" for m in C.morphism_ids})
    path = write(tmp_path, "collapse.json", ser.functor_doc(F))
    out = json.loads(run_cli(["weq", "--input", path], expect=1))
    assert out["necessary"]["passed"] is False


def test_check_dwyer_witness_document(tmp_path):
    one = terminal_category()
    arrow = arrow_category()
    F = Functor(one, arrow, {"*": "0"}, {"id*": "0<=0"})
    path = write(tmp_path, "i0.json", ser.functor_doc(F))
    out = json.loads(run_cli(["check-dwyer", "--input", path]))
    assert out["sieve"] is True and out["witness"] is not None
    assert out["witness"]["unit"] == {"*": "id*"}


def test_check_dwyer_refusal(tmp_path):
    one = terminal_category()
    arrow = arrow_category()
    F = Functor(one, arrow, {"*": "1"}, {"id*": "1<=1"})
    path = write(tmp_path, "i1.json", ser.functor_doc(F))
    out = json.loads(run_cli(["check-dwyer", "--input", path], expect=1))
    assert out["witness"] is None and out["refusal"] == "not a sieve"


def test_ex_counts(tmp_path):
    path = write(tmp_path, "d1.json",
                 complex_to_sset(standard_simplex_complex(1), 2).to_doc())
    out = json.loads(run_cli(["ex", "--input", path, "--cap", "2"]))
    assert out["total"]["1"] == 5
    assert out["unit_injective"] is True


def test_ex_below_the_input_cap(tmp_path, capsys):
    # Ex at cap 2 of Δ³ at cap 3: e's source is the 2-skeleton of Δ³
    path = write(tmp_path, "d3.json", complex_to_sset(standard_simplex_complex(3), 3).to_doc())
    assert cli.main(["ex", "--input", path, "--cap", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["unit_injective"] and out["nondegenerate"] == {"0": 4, "1": 26, "2": 663}


def test_ex_above_the_input_cap_is_a_usage_error(tmp_path, capsys):
    # Δ² at cap 1 is its 1-skeleton: Ex at cap 2 of it would be Ex of a
    # circle, and exited 0 with H₁ = ℤ
    path = write(tmp_path, "d2.json", complex_to_sset(standard_simplex_complex(2), 1).to_doc())
    for argv in (["ex", "--input", path, "--cap", "2"], ["ex", "--input", path, "--cap", "3"]):
        assert cli.main(argv) == 64, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the cap 1 of the input document" in captured.err
    assert cli.main(["ex", "--input", path, "--cap", "1"]) == 0


def test_ex_without_cap_takes_the_input_cap_up_to_3(tmp_path, capsys):
    """Without --cap, `ex` runs at min(3, the document's cap): Δ² stored at
    cap 1 gives the report of an explicit --cap 1."""
    path = write(tmp_path, "d2.json", complex_to_sset(standard_simplex_complex(2), 1).to_doc())
    assert cli.main(["ex", "--input", path]) == 0
    default = capsys.readouterr()
    assert json.loads(default.out)["cap"] == 1 and default.err == ""
    assert cli.main(["ex", "--input", path, "--cap", "1"]) == 0
    assert capsys.readouterr().out == default.out
    d1 = write(tmp_path, "d1.json", complex_to_sset(standard_simplex_complex(1), 4).to_doc())
    assert cli.main(["ex", "--input", d1]) == 0
    assert json.loads(capsys.readouterr().out)["cap"] == 3


def test_homology_of_an_sset_above_its_cap_is_a_usage_error(tmp_path, capsys):
    """Δ² stored at cap 1 is its 1-skeleton: `homology --kind sset` at cap 3
    of it exited 0 and claimed H₁ = ℤ.  Without --cap it runs at cap 1."""
    path = write(tmp_path, "d2.json", complex_to_sset(standard_simplex_complex(2), 1).to_doc())
    for cap in ("2", "3"):
        assert cli.main(["homology", "--kind", "sset", "--input", path, "--cap", cap]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the cap 1 of the input document" in captured.err
    assert cli.main(["homology", "--kind", "sset", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cap"] == 1 and out["homology"] == [{"degree": 0, "betti": 1, "torsion": []}]
    d3 = write(tmp_path, "d3.json", complex_to_sset(standard_simplex_complex(3), 4).to_doc())
    assert cli.main(["homology", "--kind", "sset", "--input", d3]) == 0
    assert json.loads(capsys.readouterr().out)["cap"] == 3


def test_weq_on_a_map_above_its_cap_is_a_usage_error(tmp_path, capsys):
    """∂Δ² ↪ Δ² stored at cap 1 is the identity of a circle's 1-skeleton: `weq`
    at cap 3 of it exited 0 with a passing `necessary` certificate at cap 3.
    A map's cap is the smaller of its source's and its target's."""
    from gcat.sset import complex_inclusion
    at_1 = sset_map_doc(complex_inclusion(boundary_complex(2), standard_simplex_complex(2), 1))
    at_3 = sset_map_doc(complex_inclusion(boundary_complex(2), standard_simplex_complex(2), 3))
    target_at_2 = {**at_3, "target": complex_to_sset(standard_simplex_complex(2), 2).to_doc()}
    for name, doc, cap in (("at_1", at_1, 1), ("target_at_2", target_at_2, 2)):
        path = write(tmp_path, f"{name}.json", doc)
        assert cli.main(["weq", "--input", path, "--cap", str(cap + 1)]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and f"exceeds the cap {cap} of the input document" in captured.err
        code = cli.main(["weq", "--input", path])
        default = capsys.readouterr().out
        assert json.loads(default)["necessary"]["cap"] == cap
        assert cli.main(["weq", "--input", path, "--cap", str(cap)]) == code
        assert capsys.readouterr().out == default
    # at cap 2 the certificate sees H₁ of ∂Δ², which Δ²'s 2-skeleton kills
    assert code == 1


def test_cap_of_categories_complexes_and_functors_is_not_bounded(tmp_path, capsys):
    """Only simplicial set and map documents carry a cap: the nerve of a
    category, the simplicial set of a complex and a functor's nerves are
    built at any --cap, default 3."""
    arrow = write(tmp_path, "arrow.json", arrow_category().to_doc())
    d2 = write(tmp_path, "d2.json", ser.complex_doc(standard_simplex_complex(2)))
    one = terminal_category()
    identity = write(tmp_path, "id.json",
                     ser.functor_doc(Functor(one, one, {"*": "*"}, {"id*": "id*"})))
    for argv in (["homology", "--input", arrow], ["homology", "--kind", "complex", "--input", d2]):
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["cap"] == 3
        assert cli.main([*argv, "--cap", "5"]) == 0
        assert len(json.loads(capsys.readouterr().out)["homology"]) == 5
    assert cli.main(["weq", "--input", identity]) == 0
    assert json.loads(capsys.readouterr().out)["necessary"]["cap"] == 3
    assert cli.main(["weq", "--input", identity, "--cap", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["necessary"]["cap"] == 5


@pytest.mark.parametrize("doc", [{"vertices": [1, 2], "faces": [[1], [2], [1, 2]]},
                                 {"vertices": ["a", "b"], "faces": [["a"], ["b"], ["a", 2]]},
                                 {"vertices": ["a", True], "faces": [["a"]]}],
                         ids=["int vertices", "int in a face", "bool vertex"])
@pytest.mark.parametrize("command", [["homology", "--kind", "complex"], ["sd"]],
                         ids=["homology", "sd"])
def test_complex_with_non_string_ids_is_a_usage_error(tmp_path, command, doc):
    """Complex ids must be strings: `complex_to_sset` and `sd` sorted mixed
    ids and crashed with a TypeError traceback."""
    proc = gcat_process([*command, "--input", write(tmp_path, "K.json", doc)])
    assert proc.returncode == 64, (proc.stdout, proc.stderr)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "malformed document"
    assert "Traceback" not in proc.stderr


def test_complex_vertex_in_no_face_is_violated(tmp_path, capsys):
    """A vertex that no face names is refused: every command used to drop it."""
    path = write(tmp_path, "K.json", {"vertices": ["a", "b", "c"], "faces": [["a"], ["b"], ["a", "b"]]})
    for argv in (["homology", "--kind", "complex", "--input", path], ["sd", "--input", path]):
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out) == {"detail": "vertex 'c' is in no face",
                                                       "verdict": "violated"}


def ill_typed_inputs():
    """Well-formed documents of each kind, and the command that reads each."""
    X = complex_to_sset(standard_simplex_complex(2), 2)
    functor = Functor(terminal_category(), arrow_category(), {"*": "0"}, {"id*": "0<=0"})
    return {"category": (["validate"], arrow_category().to_doc()),
            "sset": (["homology", "--kind", "sset"], X.to_doc()),
            "map": (["weq"], sset_map_doc(identity_sset_map(X))),
            "functor": (["check-dwyer"], ser.functor_doc(functor)),
            "action": (["hofix", "--pairs"], ser.action_doc(translation_action(cyclic_group(2)))),
            "pairs": (["hofix", "--input"], copy.deepcopy(Z2_PAIRS)),
            "complex": (["homology", "--kind", "complex"], {"vertices": ["a", "b"],
                                                           "faces": [["a"], ["b"], ["a", "b"]]})}


@pytest.mark.parametrize("kind, corrupt, detail", [
    # each exited 0 before the readers checked types
    ("category", lambda d: d.update(objects="01"), "TypeError: object id list '01' is not a list"),
    ("sset", lambda d: d.update(cap=2.5), "TypeError: cap 2.5 is not an integer"),
    ("sset", lambda d: d["faces"][0].__setitem__(0, 1.0),
     "TypeError: face dimension 1.0 is not an integer"),
    ("pairs", lambda d: d["pairs"][0].update(phi=[["c0", "c0"]]),
     "TypeError: phi [['c0', 'c0']] is not an object"),
    ("functor", lambda d: d.update(object_map=[["*", "0"]]),
     "TypeError: object map [['*', '0']] is not an object"),
    ("map", lambda d: d["values"][0].__setitem__(0, "0"),
     "TypeError: map value dimension '0' is not an integer"),
    ("map", lambda d: d["values"][0][2].append("x"),
     "ValueError: too many values to unpack (expected 2)"),
    ("action", lambda d: d.update(category_hash=0), "TypeError: category hash 0 is not a string"),
    # each exited 1, as violated, before
    ("category", lambda d: d["identity"].update({"0": 0}), "TypeError: identity entry 0 is not a string"),
    ("category", lambda d: d["morphisms"][0].__setitem__(1, 0), "TypeError: object id 0 is not a string"),
    ("action", lambda d: d["monoid"].update(unit=0), "TypeError: monoid element 0 is not a string"),
    ("pairs", lambda d: d["pairs"][0].update(H=[0]), "TypeError: subgroup element 0 is not a string"),
    ("pairs", lambda d: d["pairs"][0]["phi"].update(c1=1), "TypeError: phi entry 1 is not a string"),
    ("functor", lambda d: d["object_map"].update({"*": 0}),
     "TypeError: object map entry 0 is not a string"),
    ("map", lambda d: d["values"][0][2].__setitem__(0, 0), "TypeError: simplex id 0 is not a string"),
    ("complex", lambda d: d["faces"].__setitem__(2, "ab"), "TypeError: vertex list 'ab' is not a list"),
], ids=["objects-string", "cap-float", "face-dimension-float", "phi-list", "object-map-list",
        "map-value-dimension-string", "map-value-of-3", "int-category-hash", "int-identity", "int-endpoint",
        "int-monoid-element", "int-subgroup-entry", "int-phi-value", "int-functor-map-value",
        "int-map-value-core", "complex-face-string"])
def test_ill_typed_document_is_a_usage_error(tmp_path, capsys, kind, corrupt, detail):
    """Every id is a string, caps and dimensions are JSON integers and maps
    are JSON objects: each of these documents is malformed."""
    inputs = ill_typed_inputs()
    command, doc = inputs[kind]
    corrupt(doc)
    path = write(tmp_path, "doc.json", doc)
    if kind == "action":
        argv = [*command, write(tmp_path, "pairs.json", Z2_PAIRS), "--input", path]
    elif kind == "pairs":
        argv = [*command, write(tmp_path, "action.json", inputs["action"][1]), "--pairs", path]
    else:
        argv = [*command, "--input", path]
    assert cli.main(argv) == 64
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out) == {"detail": f"{path}: {detail}",
                                             "error": "malformed document"}


def test_sset_stored_above_its_cap_is_violated(tmp_path, capsys):
    doc = complex_to_sset(standard_simplex_complex(2), 2).to_doc()
    doc["cap"] = 1
    doc["faces"][-1][2][0] = ["nope", [0, 1]]
    path = write(tmp_path, "d2.json", doc)
    assert cli.main(["homology", "--kind", "sset", "--input", path]) == 1
    assert json.loads(capsys.readouterr().out) == {"detail": "simplices stored above cap 1",
                                                   "verdict": "violated"}


def test_corpus_reports_byte_identical(tmp_path):
    a = run_cli(["corpus", "--seed", "5", "--count", "3"])
    b = run_cli(["corpus", "--seed", "5", "--count", "3"])
    assert a == b
    doc = json.loads(a)
    assert doc["seed"] == 5 and doc["count"] == 3


def test_corpus_requires_seed():
    proc = gcat_process(["corpus", "--count", "1"])
    assert proc.returncode == 64 and proc.stdout == ""
    assert "--seed" in proc.stderr


def test_sd_of_simplex(tmp_path):
    path = write(tmp_path, "d2.json", ser.complex_doc(standard_simplex_complex(2)))
    out = json.loads(run_cli(["sd", "--input", path]))
    # the 7 nonempty faces of Δ²; Sd Δ² has 7 vertices, 12 edges and 6 triangles
    assert len(out["face_poset"]["objects"]) == 7
    assert len(out["sd_complex"]["faces"]) == 25


def test_sd_of_a_5_simplex_needs_the_wide_caps(tmp_path, capsys):
    # the face poset of Δ⁵ has 63 objects and 665 morphisms: past the default
    # morphism cap of 512, within the wide caps
    path = write(tmp_path, "d5.json", ser.complex_doc(standard_simplex_complex(5)))
    assert cli.main(["sd", "--input", path]) == 2
    assert json.loads(capsys.readouterr().out)["detail"] == "morphisms: 665 exceeds cap 512"
    assert cli.main(["--wide-caps", "sd", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["face_poset"]["objects"]) == 63
    assert len(out["face_poset"]["morphisms"]) == 665


def test_gglobal_weq_of_contractible_groupoid(tmp_path):
    from gcat.actions import chaotic_category, cyclic_group, translation_action, trivial_action
    Z2 = cyclic_group(2)
    src = translation_action(Z2)
    doc = {"source_action": ser.action_doc(src),
           "target_action": ser.action_doc(trivial_action(Z2, terminal_category())),
           "functor": {"object_map": {x: "*" for x in src.carrier.objects},
                       "morphism_map": {m: "id*" for m in src.carrier.morphism_ids}}}
    pairs = dict(Z2_PAIRS, pairs=Z2_PAIRS["pairs"] + [{"H": ["c0"], "phi": {"c0": "c0"}}])
    out = json.loads(run_cli(["gglobal-weq", "--input", write(tmp_path, "gg.json", doc),
                              "--pairs", write(tmp_path, "pairs.json", pairs)]))
    assert out["certificate"]["passed"] is True


def test_gglobal_weq_of_actions_of_different_monoids_is_violated(tmp_path, capsys):
    """The functor is checked against both actions element by element, so
    they must be actions of one monoid (a missing element was a KeyError)."""
    from gcat.actions import chaotic_category, cyclic_group, translation_action, trivial_action, trivial_group
    src = translation_action(cyclic_group(2))
    doc = {"source_action": ser.action_doc(src),
           "target_action": ser.action_doc(trivial_action(trivial_group(), terminal_category())),
           "functor": {"object_map": {x: "*" for x in src.carrier.objects},
                       "morphism_map": {m: "id*" for m in src.carrier.morphism_ids}}}
    argv = ["gglobal-weq", "--input", write(tmp_path, "gg.json", doc),
            "--pairs", write(tmp_path, "pairs.json", Z2_PAIRS)]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {
        "detail": "the two actions are of different monoids", "verdict": "violated"}


@pytest.mark.parametrize("params, detail", [
    ('{"H": "Z2", "G": "Z2"}', "--params: missing 'phi'"),
    ('{"H": "Z2", "G": "Z2", "phi": {"c0": [], "c1": "c1"}}', "TypeError: phi entry [] is not a string"),
])
def test_gens_params_missing_or_ill_typed_are_malformed(capsys, params, detail):
    """A parameter that the model needs and --params lacks was a KeyError
    traceback; a φ entry that is not a string was a TypeError traceback."""
    argv = ["gens", "--model", "g_global_thin", "--n", "0", "--params", params]
    assert cli.main(argv) == 64
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["detail"].endswith(detail)


def test_transfer_check_names_unchecked_condition():
    out = json.loads(run_cli(["transfer-check", "--U", "identity", "--n-max", "0"]))
    assert "condition2" in out["report"]["not_checked"]


def test_gens_and_saturate(tmp_path):
    out = json.loads(run_cli([
        "gens", "--model", "g_global_thin", "--n", "0",
        "--params", '{"H": "Z2", "G": "Z2", "phi": {"c0": "c0", "c1": "c1"}}']))
    assert out["sieve"] and out["dwyer_witness"]
    avatar = {"kind": "cell", "K": "Z2", "H": ["c0", "c1"],
              "phi": {"c0": "c0", "c1": "c1"}}
    pairs = {"G": "Z2", "H_group": "Z2",
             "pairs": [{"H": ["c0", "c1"], "phi": {"c0": "c0", "c1": "c1"}}]}
    apath = write(tmp_path, "avatar.json", avatar)
    ppath = write(tmp_path, "pairs.json", pairs)
    out = json.loads(run_cli(["saturate", "--input", apath, "--pairs", ppath]))
    assert out["report"]["all_passed"]


def test_gens_at_n3_needs_the_wide_caps(capsys):
    # hSd²Δ³ has 149 objects: past the default cap of 64, within the wide cap of 512
    argv = ["gens", "--model", "thomason", "--n", "3"]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().out)["detail"] == "objects: 74 exceeds cap 64"
    for flags in ([], ["--acyclic", "--k", "1"]):
        assert cli.main(["--wide-caps", *argv, *flags]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dwyer_witness"] and len(out["target"]["objects"]) == 149


def test_hofix_and_fixed(tmp_path):
    from gcat.actions import translation_action, cyclic_group
    from gcat import serialize as s2
    act = translation_action(cyclic_group(2))
    apath = write(tmp_path, "action.json", s2.action_doc(act))
    pairs = {"G": "Z2", "H_group": "Z2",
             "pairs": [{"H": ["c0", "c1"], "phi": {"c0": "c0", "c1": "c1"}}]}
    ppath = write(tmp_path, "pairs.json", pairs)
    out = json.loads(run_cli(["hofix", "--input", apath, "--pairs", ppath]))
    hofix = list(out["homotopy_fixed_points"].values())[0]
    assert len(hofix["objects"]) == 2
    family = {"group": "Z2", "subgroups": [["c0"], ["c0", "c1"]]}
    fpath = write(tmp_path, "family.json", family)
    out = json.loads(run_cli(["fixed", "--input", apath, "--family", fpath]))
    assert len(out["fixed"]["{c0,c1}"]["objects"]) == 0


def test_text_format_renders(tmp_path):
    path = write(tmp_path, "arrow.json", arrow_category().to_doc())
    out = run_cli(["--format", "text", "validate", "--input", path])
    assert "valid: True" in out


def test_documents_round_trip_bit_stable(tmp_path):
    from gcat.serialize import category_from_doc, sset_from_doc
    from gcat.sset import nerve
    cat = arrow_category()
    doc = cat.to_doc()
    assert ser.canonical_json(category_from_doc(doc).to_doc()) == ser.canonical_json(doc)
    N = nerve(cat, 3)
    ndoc = N.to_doc()
    assert ser.canonical_json(sset_from_doc(ndoc).to_doc()) == ser.canonical_json(ndoc)


def test_weq_on_sset_inclusion_names_h1_mismatch(tmp_path):
    from gcat.sset import complex_inclusion
    inc = complex_inclusion(boundary_complex(2), standard_simplex_complex(2), 3)
    path = write(tmp_path, "inc.json", sset_map_doc(inc))
    out = json.loads(run_cli(["weq", "--input", path], expect=1))
    nec = out["necessary"]
    assert nec["passed"] is False
    src_h1 = nec["details"]["source_homology"][1]
    dst_h1 = nec["details"]["target_homology"][1]
    assert src_h1 != dst_h1 and src_h1 == {"betti": 1, "torsion": []}


def test_a_reused_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    """`main` builds its parser once per process.  Over one list of argvs,
    run twice in one process, each call's exit code, stdout and stderr are
    those of the first pass, and of a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps its help to the terminal's width
    arrow = write(tmp_path, "arrow.json", arrow_category().to_doc())
    d5 = write(tmp_path, "d5.json", ser.complex_doc(standard_simplex_complex(5)))
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{}", encoding="utf-8")
    argvs = [["--wide-caps", "sd", "--input", d5],
             ["sd", "--input", d5],                     # past the default morphism cap
             ["nerve", "--input", arrow, "--cap", "-1"],
             ["--help"],
             ["--format", "text", "validate", "--input", arrow],
             ["validate", "--input", str(malformed)],
             ["validate", "--input", arrow]]
    passes = []
    for _ in range(2):
        passes.append([(cli.main(argv), *capsys.readouterr()) for argv in argvs])
    assert passes[1] == passes[0]
    assert [code for code, _, _ in passes[0]] == [0, 2, 64, 0, 0, 64, 0]
    usage = passes[0][2]
    assert usage[1] == "" and usage[2].startswith("usage: gcat nerve") and "--cap" in usage[2]
    assert passes[0][3][1].startswith("usage: gcat") and passes[0][3][2] == ""
    for index in (1, 2, 3, 4, 5):
        proc = gcat_process(argvs[index])
        assert (proc.returncode, proc.stdout, proc.stderr) == passes[0][index], argvs[index]


def test_content_hash_is_the_sha256_of_the_canonical_json():
    docs = {kind: doc for kind, (_, doc) in ill_typed_inputs().items()}
    docs["span"] = span_doc()
    for kind, doc in docs.items():
        expected = hashlib.sha256(ser.canonical_json(doc).encode()).hexdigest()
        assert ser.content_hash(doc) == expected, kind


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="this Python has no built-in SHA-256 module")
def test_gcat_hashes_reports_without_loading_openssl(tmp_path):
    """Where CPython's own SHA-256 module exists, a report is hashed without
    hashlib's OpenSSL module `_hashlib`."""
    path = write(tmp_path, "arrow.json", arrow_category().to_doc())
    script = ("import sys\nfrom gcat import cli\n"
              f"code = cli.main(['validate', '--input', {path!r}])\n"
              "print(code, '_hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=gcat_env())
    report, last = proc.stdout.splitlines()
    assert last == "0 False", proc.stderr
    assert json.loads(report)["input_hashes"]["category"] == hashlib.sha256(
        ser.canonical_json(arrow_category().to_doc()).encode()).hexdigest()


def named_thin_category(names):
    """The thin category on the pairs of `names` (x, y) -> morphism id, each
    object's identity named id:x."""
    objects = sorted({x for pair in names for x in pair})
    relation = [*names, *((x, x) for x in objects)]
    return thin_category(objects, relation, lambda x, y: names.get((x, y), f"id:{x}"))


def test_nerve_of_morphism_ids_with_a_bar(tmp_path, capsys):
    """Nerve simplex ids join a chain's morphism ids with "|", and N(F) used to
    split them back.  So a morphism id holding "|" gave wrong verdicts: `weq` on
    the identity of {a: x->y, b: y->z, a|b = b∘a} exited 1 with "map changes
    dimension on (1,a|b)", and `homology` of a category with the 2-chains
    (a, b|c) and (a|b, c) exited 1 with "simplex ids at dim 2 not
    sorted/unique".  Chain ids now escape "|" and N(F) reads chains off faces."""
    C = named_thin_category({("x", "y"): "a", ("y", "z"): "b", ("x", "z"): "a|b"})
    path = write(tmp_path, "identity.json", ser.functor_doc(identity_functor(C)))
    assert cli.main(["weq", "--input", path]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and report["sufficient"]["passed"] and report["necessary"]["passed"]
    diamond = named_thin_category({("0", "1"): "a", ("1", "3"): "b|c", ("0", "2"): "a|b",
                                   ("2", "3"): "c", ("0", "3"): "d"})
    path = write(tmp_path, "diamond.json", diamond.to_doc())
    assert cli.main(["homology", "--kind", "category", "--input", path, "--cap", "2"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and [(h["betti"], h["torsion"]) for h in json.loads(out)["homology"]] == [
        (1, []), (0, [])]
    X = nerve(diamond, 2)
    assert X.cells[2] == ("a\\|b|c", "a|b\\|c")


@pytest.mark.parametrize("name, objects", [
    ("V:1", ["V':1", "V:1"]),   # the Dwyer pushout's tag for B's objects outside i(A) is primed
    ("B:1", ["B:1", "V:1"]),    # the oracle's is, which only --cross-check runs
])
def test_pushout_keeps_its_new_ids_apart_from_those_of_c(tmp_path, capsys, name, objects):
    """A = 1, B = [1], i(*) = 0, and C one object: the pushouts tag B's object
    1 outside i(A), `dwyer_pushout` with "V:" and `presented_pushout` with
    "B:", and keep C's ids.  C's object named V:1 gave "duplicate object
    ids" (exit 1) with or without --cross-check, and named B:1 under
    --cross-check.  Each tag is now primed where it would clash with C."""
    C = validate_category([name], [(f"id:{name}", name, name)], {name: f"id:{name}"},
                          {(f"id:{name}", f"id:{name}"): f"id:{name}"})
    doc = {"A": terminal_category().to_doc(), "B": arrow_category().to_doc(), "C": C.to_doc(),
           "i": {"object_map": {"*": "0"}, "morphism_map": {"id*": "0<=0"}},
           "c": {"object_map": {"*": name}, "morphism_map": {"id*": f"id:{name}"}}}
    path = write(tmp_path, "span.json", doc)
    for argv in (["pushout", "--input", path], ["pushout", "--input", path, "--cross-check"]):
        assert cli.main(argv) == 0, capsys.readouterr()
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == "" and report["pushout"]["objects"] == objects
    assert report["cross_check"] is True and report["oracle_morphisms"] == 3


def arrow_doc_with(change):
    """The document of [1] = {x -> y}, its morphisms idx, idy and f, changed in place by `change`."""
    doc = {"objects": ["x", "y"], "morphisms": [["f", "x", "y"], ["idx", "x", "x"], ["idy", "y", "y"]],
           "identity": {"x": "idx", "y": "idy"},
           "compose": [["f", "idx", "f"], ["idx", "idx", "idx"], ["idy", "f", "f"], ["idy", "idy", "idy"]]}
    change(doc)
    return doc


@pytest.mark.parametrize("change, detail", [
    (lambda d: d["objects"].append("x"), "duplicate object ids"),
    (lambda d: d["identity"].pop("y"), "object 'y' has no identity"),
    (lambda d: d["morphisms"].append(["f", "x", "y"]), "duplicate morphism ids"),
    (lambda d: d["identity"].update(x="f"), "identity 'f' of 'x' is not an endomorphism of 'x'"),
    (lambda d: d["compose"].append(["f", "f", "f"]), "compose defined on non-composable pair ('f','f')"),
    (lambda d: d["compose"].__setitem__(0, ["f", "idx", "idy"]),
     "composite 'idy' of ('f','idx') has wrong endpoints"),
])
def test_validate_refuses_a_malformed_table(tmp_path, capsys, change, detail):
    """Each table check of `validate_category` that no other test reached,
    through `gcat validate`: exit 1 with the check's own message."""
    path = write(tmp_path, "bad.json", arrow_doc_with(change))
    assert cli.main(["validate", "--input", path]) == 1
    assert json.loads(capsys.readouterr().out) == {"detail": detail, "verdict": "violated"}


@pytest.mark.parametrize("table, unit, detail", [
    ([["e", "a"], ["a", "e"]], "u", "unit not an element"),
    ([["e", "a"], ["a", "z"]], "e", "multiplication undefined/invalid on ('a','a')"),
    ([["e", "e"], ["a", "a"]], "e", "unit law fails at 'a'"),
])
def test_gens_refuses_a_monoid_that_is_not_one(capsys, table, unit, detail):
    """`gens --params` reads M as a monoid document, and FinMonoid.validate
    refuses a table that is not a monoid's: exit 1 with its message."""
    M = {"elements": ["e", "a"], "table": table, "unit": unit}
    argv = ["gens", "--model", "f_model", "--n", "0", "--params", json.dumps({"M": M, "H": "Z1"})]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {"detail": detail, "verdict": "violated"}


def test_gens_refuses_a_monoid_that_is_not_associative(capsys):
    """e, a, b with unit e, a·a = b, a·b = b and b·a = a: (a·a)·a = a but
    a·(a·a) = b."""
    M = {"elements": ["e", "a", "b"], "unit": "e",
         "table": [["e", "a", "b"], ["a", "b", "b"], ["b", "a", "e"]]}
    argv = ["gens", "--model", "f_model", "--n", "0", "--params", json.dumps({"M": M, "H": "Z1"})]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {
        "detail": "associativity fails on ('a','a','a')", "verdict": "violated"}


def test_action_document_with_a_stale_category_hash(tmp_path, capsys):
    """An action document whose category_hash is not the hash of its
    category is refused: exit 1."""
    doc = ser.action_doc(translation_action(cyclic_group(2)))
    doc["category_hash"] = "0" * 64
    path = write(tmp_path, "action.json", doc)
    family = write(tmp_path, "family.json", {"group": "Z2", "subgroups": [["c0"]]})
    assert cli.main(["fixed", "--input", path, "--family", family]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "detail": "action document category hash mismatch", "verdict": "violated"}


def non_dwyer_span():
    """1 -> [1] at the object 1, which is no sieve, and 1 -> 1."""
    return {"A": terminal_category().to_doc(), "B": arrow_category().to_doc(),
            "C": terminal_category().to_doc(),
            "i": {"object_map": {"*": "1"}, "morphism_map": {"id*": "1<=1"}},
            "c": {"object_map": {"*": "*"}, "morphism_map": {"id*": "id*"}}}


def test_pushout_along_a_map_that_is_not_dwyer_runs_the_oracle(tmp_path, capsys):
    """No witness: the report says so and gives the oracle's pushout, [1]
    with B's object 0 tagged B:."""
    path = write(tmp_path, "span.json", non_dwyer_span())
    assert cli.main(["pushout", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["dwyer"], report["oracle"]) == ("not applicable", "closed")
    assert report["pushout"]["objects"] == ["*", "B:0"]
    assert report["pushout"]["morphisms"] == [["id:*", "*", "*"], ["id:B:0", "B:0", "B:0"],
                                              ["w:B:0<=1", "B:0", "*"]]


def test_text_format_renders_lists_and_output_is_written(tmp_path, capsys):
    """--format text puts each entry of a list on its own "- " line, one
    level in; --output writes the canonical JSON report as well."""
    path = write(tmp_path, "span.json", non_dwyer_span())
    target = tmp_path / "report.json"
    assert cli.main(["--format", "text", "--output", str(target), "pushout", "--input", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("  objects:") - 3:] == [
        "      - w:B:0<=1", "      - B:0", "      - *", "  objects:", "    - *", "    - B:0"]
    assert lines[:3] == ["command: pushout", "dwyer: not applicable", "input_hashes:"]
    assert cli.main(["pushout", "--input", path]) == 0
    assert target.read_text(encoding="utf-8") + "\n" == capsys.readouterr().out


def test_saturate_on_a_poset_avatar(tmp_path, capsys):
    """The poset avatar: [1] with the trivial (Z2 × Z2)-action and identity
    coherence; both pairs pass with an isomorphism."""
    avatar = write(tmp_path, "avatar.json", {"kind": "poset", "category": arrow_category().to_doc()})
    pairs = write(tmp_path, "pairs.json", {
        "G": "Z2", "H_group": "Z2",
        "pairs": [{"H": ["c0", "c1"], "phi": {"c0": "c0", "c1": "c1"}}, {"H": ["c0"], "phi": {"c0": "c0"}}]})
    assert cli.main(["saturate", "--input", avatar, "--pairs", pairs]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["avatar"] == "poset-trivial" and report["report"]["all_passed"]
    assert report["report"]["pairs"] == {
        "{c0,c1}->c0:c0,c1:c1": {"kind": "isomorphism", "mode": "eta", "passed": True},
        "{c0}->c0:c0": {"kind": "isomorphism", "mode": "eta", "passed": True}}


@pytest.mark.parametrize("change, detail", [
    (lambda d: d["object_map"].pop("1"), "object map undefined/invalid at '1'"),
    (lambda d: d["morphism_map"].update({"0<=1": "0<=0"}), "functor breaks endpoints at '0<=1'"),
])
def test_weq_refuses_a_map_that_is_no_functor(tmp_path, capsys, change, detail):
    """`functor_from_maps` validates the maps of a functor document: one
    that misses an object, or sends a morphism between the wrong images,
    exits 1 with Functor.validate's message."""
    doc = ser.functor_doc(identity_functor(arrow_category()))
    change(doc)
    assert cli.main(["weq", "--input", write(tmp_path, "functor.json", doc)]) == 1
    assert json.loads(capsys.readouterr().out) == {"detail": detail, "verdict": "violated"}


def test_complex_document_that_is_not_downward_closed(tmp_path, capsys):
    """A complex document whose edge 0-1 lacks the vertex 1 among its faces
    exits 1."""
    doc = {"vertices": ["0", "1"], "faces": [["0"], ["0", "1"]]}
    assert cli.main(["homology", "--kind", "complex", "--input", write(tmp_path, "k.json", doc)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "detail": "complex not downward closed at ('0', '1')", "verdict": "violated"}


def test_gens_refuses_an_h_without_the_unit_of_m(capsys):
    """H = Z1 = {c0} inside M = {e, c0} with c0·c0 = c0, whose unit is e: H
    is closed but misses M's unit, so it is no subgroup of M, a usage error."""
    M = {"elements": ["e", "c0"], "table": [["e", "c0"], ["c0", "c0"]], "unit": "e"}
    argv = ["gens", "--model", "f_model", "--n", "0", "--params", json.dumps({"M": M, "H": "Z1"})]
    assert cli.main(argv) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.rstrip().endswith(
        "--params: H is not a subgroup of M: ('c0',) is not closed / missing unit")


def test_pushout_cross_check_with_an_oracle_that_does_not_close(tmp_path, capsys):
    """At --word-cap 1 the oracle of span_doc's pushout needs a word of
    length 2: the report gives the Dwyer pushout, "inconclusive" and that
    length, and exits 2."""
    path = write(tmp_path, "span.json", span_doc())
    assert cli.main(["pushout", "--input", path, "--cross-check", "--word-cap", "1"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert (report["cross_check"], report["non_closing_word_length"]) == ("inconclusive", 2)
    assert report["pushout"]["objects"] == ["0", "1", "V:1"]


def test_check_dwyer_refuses_a_functor_that_is_not_injective_on_objects(tmp_path, capsys):
    """[1] -> 1 sends both objects to *: no subcategory inclusion, exit 1."""
    one, arrow = terminal_category(), arrow_category()
    F = Functor(arrow, one, {x: "*" for x in arrow.objects}, {m: "id*" for m in arrow.morphism_ids})
    assert cli.main(["check-dwyer", "--input", write(tmp_path, "f.json", ser.functor_doc(F))]) == 1
    assert json.loads(capsys.readouterr().out) == {"detail": "not injective on objects",
                                                   "verdict": "violated"}


def test_ex_at_the_node_cap_is_inconclusive(tmp_path, capsys):
    """Ex² N(E(2)) at cap 2, the Ex of the document of Ex N(E(2)), needs
    more than the default 1,000,000 Sd-map search nodes: the report says so
    and exits 2.  Ex(Δ²) at cap 3, which passed that cap before the search
    ran by décalage, now decides."""
    path = write(tmp_path, "ex.json", ex(nerve(chaotic_category(["a", "b"]), 2), 2).sset.to_doc())
    assert cli.main(["ex", "--input", path, "--cap", "2"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["inconclusive"] == "Sd-map enumeration: 1000001 exceeds cap 1000000"
    path = write(tmp_path, "d2.json", complex_to_sset(standard_simplex_complex(2), 3).to_doc())
    assert cli.main(["ex", "--input", path, "--cap", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nondegenerate"] == {"0": 3, "1": 11, "2": 123, "3": 7008} and report["unit_injective"]


def test_pushout_keeps_its_cross_ids_apart_from_those_of_c(tmp_path, capsys):
    """A = 1, B = [1] with i(*) = 0, and C with objects * and w, the
    identity of w named [id*@1], c(*) = *: the Dwyer pushout names its cross
    morphism * -> V:1 "[id*@1]" too, which gave "duplicate morphism ids"
    (exit 1).  The cross names are now primed where one is C's."""
    C = validate_category(["*", "w"], [("id*", "*", "*"), ("[id*@1]", "w", "w")],
                          {"*": "id*", "w": "[id*@1]"},
                          {("id*", "id*"): "id*", ("[id*@1]", "[id*@1]"): "[id*@1]"})
    doc = {"A": terminal_category().to_doc(), "B": arrow_category().to_doc(), "C": C.to_doc(),
           "i": {"object_map": {"*": "0"}, "morphism_map": {"id*": "0<=0"}},
           "c": {"object_map": {"*": "*"}, "morphism_map": {"id*": "id*"}}}
    path = write(tmp_path, "span.json", doc)
    for argv in (["pushout", "--input", path], ["pushout", "--input", path, "--cross-check"]):
        assert cli.main(argv) == 0, capsys.readouterr()
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == "" and report["pushout"]["objects"] == ["*", "V:1", "w"]
        names = sorted(m for m, _, _ in report["pushout"]["morphisms"])
        assert names == ["V:1<=1", "[id*@1]", "[id*@1]'", "id*"]
    assert report["cross_check"] is True


def test_pushout_oracle_keeps_word_names_apart(tmp_path, capsys):
    """B with objects 0 and 1 and parallel arrows a and a.C:x: 0 -> 1, i(*) = 1,
    and C = {x: p -> q} with c(*) = p.  i(A) is no sieve, so `pushout` runs
    the presented-pushout oracle, whose words (B:a, C:x) and (B:a.C:x) were
    both named "w:B:a.C:x" and gave "duplicate morphism ids" (exit 1).  An
    id holding "." or ":" now has its ids escaped in word names."""
    B = validate_category(["0", "1"],
                          [("id0", "0", "0"), ("id1", "1", "1"), ("a", "0", "1"), ("a.C:x", "0", "1")],
                          {"0": "id0", "1": "id1"},
                          {("id0", "id0"): "id0", ("id1", "id1"): "id1", ("a", "id0"): "a", ("id1", "a"): "a",
                           ("a.C:x", "id0"): "a.C:x", ("id1", "a.C:x"): "a.C:x"})
    C = validate_category(["p", "q"], [("idp", "p", "p"), ("idq", "q", "q"), ("x", "p", "q")],
                          {"p": "idp", "q": "idq"},
                          {("idp", "idp"): "idp", ("idq", "idq"): "idq", ("x", "idp"): "x", ("idq", "x"): "x"})
    doc = {"A": terminal_category().to_doc(), "B": B.to_doc(), "C": C.to_doc(),
           "i": {"object_map": {"*": "1"}, "morphism_map": {"id*": "id1"}},
           "c": {"object_map": {"*": "p"}, "morphism_map": {"id*": "idp"}}}
    path = write(tmp_path, "span.json", doc)
    for argv in (["pushout", "--input", path], ["pushout", "--input", path, "--cross-check"]):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), (argv, err)
        report = json.loads(out)
        names = sorted(m for m, _, _ in report["pushout"]["morphisms"] if m.startswith("w:"))
        assert names == ["w:B:a", "w:B:a.C:x", "w:B:a\\.C\\:x", "w:B:a\\.C\\:x.C:x", "w:C:x"], argv
