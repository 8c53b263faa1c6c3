import hashlib
import os
import re
import subprocess
import sys
import time

import pytest

from polyauto.cli import main


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_vd_spec_example(capsys):
    rc, out, _ = run_cli(
        ["vd", "[Q,3] (x1+2, x2+x1^2, x3-x1^2+x1*x2^4)"], capsys)
    assert rc == 0
    assert out.strip() == "(0,2,5)"


def test_classify_output(capsys):
    rc, out, _ = run_cli(["classify", "[Q,2] (2*x1+3, x2-1)"], capsys)
    assert rc == 0
    assert "diagonal_affine: yes" in out
    assert "special: no" in out


def test_compose_and_invert(capsys):
    rc, out, _ = run_cli(
        ["compose", "[Q,2] (x1, x2+x1^2)", "[Q,2] (x1+1, x2)"], capsys)
    assert rc == 0
    assert out.strip() == "[Q,2] (x1+1, x1^2+2*x1+x2+1)"
    rc, out, _ = run_cli(["invert", "[Q,2] (x1, x2+x1^2)"], capsys)
    assert out.strip() == "[Q,2] (x1, -x1^2+x2)"


@pytest.mark.parametrize("word, inverse", [
    ("[Q,2] id", "[Q,2] id"),
    ("[Q,2] E(1; x2^2) * T(1; 1, x1^2)",
     "[Q,2] T(1; 1, x1^2)^-1 * E(1; x2^2)^-1"),
])
def test_invert_of_a_word_prints_the_inverse_word(capsys, word, inverse):
    rc, out, _ = run_cli(["invert", word], capsys)
    assert rc == 0 and out == inverse + "\n"


def test_jacobian(capsys):
    rc, out, _ = run_cli(["jacobian", "[Q,2] (2*x1+3, x2-1)"], capsys)
    assert rc == 0 and out.strip() == "2"


def test_exp_command(capsys):
    rc, out, _ = run_cli(
        ["exp", "--field", "Q", "-n", "4",
         "x1*x3+x2*x4", "D(0, 0, -x2, x1)"], capsys)
    assert rc == 0
    assert out.strip() == \
        "[Q,4] (x1, x2, -x1*x2*x3-x2^2*x4+x3, x1^2*x3+x1*x2*x4+x4)"



@pytest.mark.parametrize("n", ["0", "65"])
def test_exp_refuses_a_ring_size_out_of_range(capsys, n):
    rc, out, err = run_cli(["exp", "--field", "Q", "-n", n, "x1", "D(0)"],
                           capsys)
    assert (rc, out) == (1, "")
    assert err == "error: ParseError: a ring needs 1 to 64 variables\n"


def test_exp_reads_a_ring_of_64_variables(capsys):
    rc, out, _ = run_cli(["exp", "--field", "Q", "-n", "64", "x1",
                          "D(" + "0, " * 63 + "x1)"], capsys)
    assert rc == 0
    assert out.startswith("[Q,64] (x1, x2, ")
    assert out.endswith(", x63, x1^2+x64)\n")


def test_certify_verify_cycle(tmp_path, capsys):
    out_path = tmp_path / "t.nct"
    rc, out, _ = run_cli(
        ["certify", "[Q,2] (x1, x2+x1^2)", "--out", str(out_path)], capsys)
    assert rc == 0
    assert out_path.exists()
    rc, out, _ = run_cli(["verify", str(out_path)], capsys)
    assert rc == 0
    assert "verdict: PASS" in out


def test_certify_without_out_prints_the_file_then_the_summary(tmp_path,
                                                             capsys):
    path = tmp_path / "t.nct"
    rc, written, _ = run_cli(
        ["certify", "[Q,2] (x1, x2+x1^2)", "--out", str(path)], capsys)
    assert rc == 0 and written.startswith(f"certificate written to {path}\n")
    rc, out, _ = run_cli(["certify", "[Q,2] (x1, x2+x1^2)"], capsys)
    assert rc == 0
    assert out == path.read_text() + written.split("\n", 1)[1]


def test_certify_rejects_nonspecial(capsys):
    rc, _, err = run_cli(["certify", "[Q,2] (2*x1, x2)"], capsys)
    assert rc == 1
    assert "NotSpecial" in err


def test_verify_detects_corruption(tmp_path, capsys):
    out_path = tmp_path / "t.nct"
    run_cli(["certify", "[Q,2] (x1, x2+x1^3)", "--out", str(out_path)],
            capsys)
    text = out_path.read_text()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip().startswith("VALUE") and "x1" in line:
            lines[i] = line.replace("x1", "x2", 1)
            break
    bad = tmp_path / "bad.nct"
    bad.write_text("\n".join(lines) + "\n")
    rc, out, _ = run_cli(["verify", str(bad)], capsys)
    assert rc in (1, 2)


def test_certify_deterministic(tmp_path, capsys):
    a = tmp_path / "a.nct"
    b = tmp_path / "b.nct"
    for path in (a, b):
        run_cli(["certify", "[Q,3] (x1, x2+2*x1^2, x3+x1*x2)",
                 "--out", str(path)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_identities_subcommand(capsys):
    rc, out, _ = run_cli(["identities", "--fields", "F4"], capsys)
    assert rc == 0
    assert "char2-claim" in out and "commutator-formula" in out


def test_identities_output_over_extended_fields_is_pinned(capsys):
    """The identity suite builds (a)-(c) with slin's constructions; its
    report over these fields is pinned."""
    rc, out, _ = run_cli(["identities", "--fields", "F4,F8,Q,F5,F9"], capsys)
    assert rc == 0
    assert out == """\
ok   char2-claim            F4/t^2+t+1   6/6
ok   char2-claim            F8/t^3+t+1   42/42
ok   commutator-formula     F4/t^2+t+1   12/12
ok   commutator-formula     F5           20/20
ok   commutator-formula     F8/t^3+t+1   56/56
ok   commutator-formula     F9/t^2+1     72/72
ok   commutator-formula     Q            50/50
ok   exp-commutator         Q            20/20
ok   scaling-observation    F5           50/50
ok   scaling-observation    F9/t^2+1     50/50
ok   scaling-observation    Q            50/50
ok   square-trick           F5           4/4
ok   square-trick           F9/t^2+1     8/8
ok   square-trick           Q            20/20
identities: 460/460 passed
"""


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "polyauto", "vd", "[Q,2] (x1, x2+x1^2)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(0,2)"


def test_malformed_maps_exit_1_with_a_typed_error(capsys):
    for text, error in (("[Q,2] E(x; 1)", "ParseError"),
                        ("[Q,2] (1/0*x1, x2)", "ParseError"),
                        ("[Q,2] S(1,2; 1)", "InvalidFactor")):
        rc, _, err = run_cli(["classify", text], capsys)
        assert rc == 1
        assert err.startswith(f"error: {error}: ")
        assert "Traceback" not in err


def certificate_with_value(tmp_path, value):
    """A corpus certificate whose first VALUE component is `value`."""
    from test_certificates import corpus_certificate_text
    lines = corpus_certificate_text().splitlines()
    row = next(i for i, line in enumerate(lines)
               if line.strip().startswith("VALUE"))
    lines[row] = re.sub(r"VALUE \([^,]*,", lambda _: f"VALUE ({value},",
                        lines[row])
    path = tmp_path / "cap.nct"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("value", ["(x1+x2+1)^25",
                                   "(x1+x2+1)^15*(x1+x2+1)^15"])
def test_verify_cap_bounds_the_parse(tmp_path, capsys, value):
    # one VALUE component of a corpus certificate becomes a power or a
    # product of degree over 20: under --cap 20 the parse refuses it before
    # anything is expanded
    path = certificate_with_value(tmp_path, value)
    rc, out, _ = run_cli(["--cap", "20", "verify", str(path)], capsys)
    assert rc == 2
    assert out.rstrip().endswith("verdict: INDETERMINATE")
    assert "inverse-pair" not in out  # no check ran


def test_verify_cap_over_the_degree_bound(tmp_path, capsys):
    # --cap 100000 lets the parse try x1^40000*x1^40000, but no polynomial
    # may pass degree 65535: the product is refused, not carried into the
    # next exponent field, and the verdict is undecided at once
    path = certificate_with_value(tmp_path, "x1^40000*x1^40000")
    start = time.perf_counter()
    rc, out, _ = run_cli(["--cap", "100000", "verify", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "product of degree 80000 exceeds cap 65535" in out
    assert out.rstrip().endswith("verdict: INDETERMINATE")


def test_arity_over_the_bound_is_a_parse_error(tmp_path, capsys):
    # the Jacobian's cofactor expansion recurses once per variable, so
    # n = 1100 escaped as a RecursionError after seconds
    path = tmp_path / "wide.nct"
    path.write_text("NCT 1\nFIELD Q\nVARS 1100\nKIND normal-cotame\n"
                    "SEED theta id\nTERMINAL theta\nEND\n")
    rc, _, err = run_cli(["verify", str(path)], capsys)
    assert rc == 1
    assert err == ("error: ParseError: VARS must be between 1 and 64 "
                   "(line 3, column 1)\n")
    rc, _, err = run_cli(["jacobian", "[Q,1100] id"], capsys)
    assert rc == 1
    assert err == ("error: ParseError: a ring needs 1 to 64 variables "
                   "(line 1, column 1)\n")
    rc, out, _ = run_cli(["jacobian", "[Q,64] id"], capsys)
    assert (rc, out) == (0, "1\n")


def test_verify_rejects_bytes_that_are_not_utf8(tmp_path, capsys):
    path = tmp_path / "bin.nct"
    path.write_bytes(b"NCT 1\nFIELD Q\xff\n")
    rc, _, err = run_cli(["verify", str(path)], capsys)
    assert rc == 1
    assert err.startswith("error: ParseError: file is not UTF-8 text "
                          "(line 2, column 8)")


@pytest.mark.parametrize("cap, rc", [(2000, 0), (1000, 1)])
def test_invert_honours_cap(capsys, cap, rc):
    # the inverse has degree 1600, above the default cap of 1024
    got, out, err = run_cli(["--cap", str(cap), "invert",
                             "[Q,3] (x1, x2+x1^40, x3+x2^40)"], capsys)
    assert got == rc
    if rc == 0:
        assert "-x1^1600+" in out
    else:
        assert "DegreeCapExceeded" in err


ELEMENTARY_T_INV = "[Q,2] T(1; 1, x1^1500)^-1"


@pytest.mark.parametrize("args", [["jacobian", ELEMENTARY_T_INV],
                                  ["classify", ELEMENTARY_T_INV],
                                  ["compose", ELEMENTARY_T_INV,
                                   "[Q,2] E(1; x2)"]])
def test_cap_alone_bounds_an_inverted_elementary_factor(capsys, args):
    # T(1; 1, x1^1500) is elementary: its inverse negates x1^1500 without
    # a substitution, so only --cap bounds it, not the default 1024
    rc, _, err = run_cli(["--cap", "2000"] + args, capsys)
    assert rc == 0, err


def test_verify_cap_alone_bounds_an_inverted_elementary_factor(tmp_path,
                                                               capsys):
    from polyauto.maps import KIND_COTAME
    from polyauto.textio import parse_factored, serialize_certificate
    from polyauto.wordbuild import CertBuilder
    g = parse_factored(ELEMENTARY_T_INV, cap=2000)
    builder = CertBuilder(g.field, 2, KIND_COTAME, cap=2000)
    seed = builder.add_seed(g)
    # the seed and the step's conjugator both hold the inverted factor
    step = builder.add_step([(g, seed, 1)], expect=g.expand(cap=2000))
    path = tmp_path / "elementary.nct"
    path.write_text(serialize_certificate(builder.to_certificate(step)))
    rc, out, _ = run_cli(["--cap", "2000", "verify", str(path)], capsys)
    assert rc == 0
    assert "verdict: PASS" in out


T_INV = "[Q,3] T(1; 1, x1^1500; 2, 0)^-1"


@pytest.mark.parametrize("args", [["jacobian", T_INV], ["classify", T_INV]])
def test_cap_reaches_an_inverted_triangular_factor(capsys, args):
    # a3 = 2, so the factor is not elementary and its inverse substitutes:
    # under the expansion's cap, not the default 1024
    rc, out, err = run_cli(["--cap", "2000"] + args, capsys)
    assert rc == 0, err
    if args[0] == "jacobian":
        assert out.strip() == "1/2"
    rc, _, err = run_cli(args, capsys)
    assert rc == 1
    assert "DegreeCapExceeded" in err


def test_certify_holds_a_one_factor_word_to_the_expansion_cap(capsys):
    # --cap 2000 lets the parse build x2^1100; certify expands the word
    # under the default cap, which its only factor, the first piece of the
    # expansion, exceeds
    rc, _, err = run_cli(["--cap", "2000", "certify", "[Q,2] E(1; x2^1100)"],
                         capsys)
    assert rc == 1
    assert "substitution term degree 1100 exceeds cap 1024" in err


def test_certify_honours_cap_zero(capsys):
    rc, _, err = run_cli(["--cap", "0", "certify", "[Q,2] E(1; x2^3)"],
                         capsys)
    assert rc == 1
    assert "DegreeCapExceeded" in err


@pytest.mark.parametrize("args", [
    ["compose", "[Q,2] (x1,x2)", "[Q,2] (x1,x2)"],
    ["classify", "[Q,2] (x1,x2)"],
    ["verify", os.path.join(os.path.dirname(__file__), "data", "hostile",
                            "control_pass.nct")],
])
def test_a_negative_cap_is_a_usage_error(capsys, args):
    """argparse refuses --cap below 0 before any subcommand runs: exit 2
    with its usage line, as for any malformed argument."""
    with pytest.raises(SystemExit) as info:
        main(["--cap", "-5"] + args)
    out = capsys.readouterr()
    assert info.value.code == 2
    assert out.out == ""
    assert out.err.startswith("usage: polyauto")
    assert out.err.endswith("error: --cap must be at least 0, got -5\n")


def test_verify_loads_no_engine(tmp_path):
    """`polyauto verify` in a fresh interpreter imports none of the
    engines, nor their tools in `autos`: the CLI keeps
    the verifier's trust boundary.  Neither verify
    nor certify loads `dataclasses`, `inspect` or `typing`, whose import
    costs every CLI process more than its own work on a small map.  The
    interpreter starts with -S, so no site hook preloads a module."""
    from test_certificates import corpus_certificate_text
    path = tmp_path / "c.nct"
    path.write_text(corpus_certificate_text())
    out = tmp_path / "g.nct"
    engines = ["cotame", "reduce_core", "slin", "wordbuild", "lnd",
               "identities", "autos"]
    heavy = ["dataclasses", "inspect", "typing"]
    code = ("import sys; from polyauto import cli; "
            f"rc = cli.main(['verify', {str(path)!r}]); "
            f"engines = [m for m in {engines!r} "
            "if 'polyauto.' + m in sys.modules]; "
            "rc2 = cli.main(['certify', '[Q,2] (x1, x2+x1^2)', "
            f"'--out', {str(out)!r}]); "
            f"print([rc, rc2], engines, [m for m in {heavy!r} "
            "if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[0, 0] [] []"


def test_verify_of_a_missing_file_is_a_usage_error(tmp_path, capsys):
    rc, out, err = run_cli(["verify", str(tmp_path / "missing.nct")], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: FileNotFoundError: ")
    assert err.count("\n") == 1


def test_verify_of_a_directory_is_a_usage_error(tmp_path, capsys):
    rc, out, err = run_cli(["verify", str(tmp_path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: IsADirectoryError: ")
    assert err.count("\n") == 1


def test_certify_into_a_missing_directory_is_a_usage_error(tmp_path,
                                                           capsys):
    target = tmp_path / "no" / "such" / "x.nct"
    rc, out, err = run_cli(["certify", "[Q,2] (x1, x2+x1^2)", "--out",
                            str(target)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: FileNotFoundError: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize("text, sha256", [
    ("[Q,3] (x1+2, x2+x1^2, x3-x1^2+x1*x2^4)",
     "cd59a9bd916e469b5460e81dadc8012a26f2bc36a866c97228dae11391c5d3f9"),
    ("[Q,2] (2*x1+x2+1, x1+x2)",
     "e7728378bc2b004da6a24c6d65a4d1f1826fd78e8c01cbceeb028231afd796ab"),
    ("[Q,2] (x1+x2^2, x2)",
     "d2e6d8d2c72e975fc5d8f28f9c36dfae8fe0596b434ef7a5791303ca52a8f89b"),
])
def test_certify_bytes_of_expanded_inputs_are_pinned(tmp_path, capsys, text,
                                                     sha256):
    """An expanded input is read as a word by autos.word_from_endo; these
    digests of the certificate files are pinned."""
    path = tmp_path / "c.nct"
    rc, _, _ = run_cli(["certify", text, "--out", str(path)], capsys)
    assert rc == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("text, sha256", [
    # the translation of the affine factors folds into tau
    ("[Q,3] L[[0,1,0],[-1,0,0],[0,0,1]] * Tr(1,0,0) * Exp(x1; D(0, 0, x1))",
     "bd2e0cd8e705346704a33e3151c7af6903e0e12dfc8f8edceebb5e85d2a16e36"),
    ("[Q,3] T(1; 1, x1^2; 1) * L[[0,1,0],[-1,0,0],[0,0,1]] * Tr(1,2,0) "
     "* Exp(x1*x2; D(0, 0, x1))",
     "d72d849e7871b0f8097bfd454914b8c70efad131014740d11f8a63b64d1dac5d"),
    # a pure Exp word whose value is triangular
    ("[Q,3] Exp(x1; D(0, x1, 0))",
     "eb7b23771a99f96465210087a805e0346f9f0da4b95812dcbb052cb0c62aa11a"),
])
def test_certify_bytes_of_exponential_words_are_pinned(tmp_path, capsys,
                                                       text, sha256):
    """cotame splits the factors before the trailing Exp into tau and
    alpha; these digests of the certificate files are pinned, and each
    certificate verifies."""
    path = tmp_path / "c.nct"
    rc, _, _ = run_cli(["certify", text, "--out", str(path)], capsys)
    assert rc == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    rc, out, _ = run_cli(["verify", str(path)], capsys)
    assert rc == 0 and out.endswith("verdict: PASS\n")


def test_certify_refuses_an_affine_factor_before_a_triangular_one(capsys):
    """And the other exponential words cotame and lnd refuse: an Exp factor
    that is not the single last one, and a zero derivation."""
    exp, trailing = "Exp(x1; D(0, 0, x1))", "a single trailing Exp factor"
    cases = [
        (f"[Q,3] L[[0,1,0],[-1,0,0],[0,0,1]] * T(1; 1, x1^2; 1) * {exp}",
         "NotStructured: prefix of an exponential word must be triangular "
         "factors followed by affine factors"),
        (f"[Q,3] {exp} * E(1; x2)",
         f"NotStructured: exponential input must be {trailing}"),
        (f"[Q,3] {exp} * {exp}",
         f"NotStructured: exponential input must be {trailing}"),
        ("[Q,2] E(2; x1^2) * Exp(x1; D(0, 0))",
         "KernelViolation: the derivation must be nonzero"),
    ]
    for word, message in cases:
        rc, out, err = run_cli(["certify", word], capsys)
        assert (rc, out, err) == (1, "", f"error: {message}\n"), word
