"""What a `polyauto` process loads is tracked like a benchmark.  Each CLI
child compiles the modules it imports, so the lines it loads are its
start-up cost, and the lines `verify` loads are the verifier's trusted
base.  A change that makes either path load more raises its ceiling in its
own diff and says why in CHANGES.md.

Every run is a fresh interpreter started with -S, so no site hook preloads
a module."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import polyauto

# the modules `polyauto verify` loads, and the ceiling on their lines
VERIFY_MODULES = {
    "polyauto", "polyauto.certificates", "polyauto.cli",
    "polyauto.derivations", "polyauto.errors", "polyauto.fields",
    "polyauto.kernels", "polyauto.maps", "polyauto.nct", "polyauto.poly",
    "polyauto.record", "polyauto.textio",
}
VERIFY_CEILING = 3145
# `polyauto certify` on a Q word with no Exp factor
CERTIFY_CEILING = 3986
CERTIFY_NEVER = ("polyauto.certificates", "polyauto.slin", "polyauto.lnd",
                 "polyauto.identities")


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


def loaded_lines(argv) -> tuple[int, dict[str, int]]:
    """The exit code of `cli.main(argv)` in a fresh interpreter, and the
    line count of every `polyauto` module loaded by then."""
    code = ("import json, sys; from polyauto import cli; "
            f"rc = cli.main({argv!r}); "
            "mods = {m: len(open(sys.modules[m].__file__).read()"
            ".splitlines()) for m in sys.modules "
            "if m.partition('.')[0] == 'polyauto'}; "
            "print(json.dumps([rc, mods]))")
    rc, mods = json.loads(run_fresh(code))
    return rc, mods


def test_verify_loads_its_modules_within_the_ceiling(tmp_path):
    from test_certificates import corpus_certificate_text
    path = tmp_path / "c.nct"
    path.write_text(corpus_certificate_text())
    rc, mods = loaded_lines(["verify", str(path)])
    assert rc == 0
    assert set(mods) == VERIFY_MODULES
    total = sum(mods.values())
    assert total <= VERIFY_CEILING, f"verify loads {total} lines"


def test_certify_loads_no_verifier_and_stays_within_the_ceiling(tmp_path):
    rc, mods = loaded_lines(["certify", "[Q,2] E(2; x1^2)", "--out",
                             str(tmp_path / "c.nct")])
    assert rc == 0
    assert [m for m in CERTIFY_NEVER if m in mods] == []
    total = sum(mods.values())
    assert total <= CERTIFY_CEILING, f"certify loads {total} lines"


def test_an_exp_word_loads_lnd(tmp_path):
    rc, mods = loaded_lines(["certify", "[Q,2] Exp(x1; D(0, x1))", "--out",
                             str(tmp_path / "c.nct")])
    assert rc == 0
    assert "polyauto.lnd" in mods and "polyauto.slin" not in mods


# -- the lazy package root ----------------------------------------------------

# each public name of the package and the module that defines it
HOMES = {
    "Field": "fields", "FieldElement": "fields", "Polynomial": "poly",
    "Endo": "maps", "FactoredAuto": "maps", "compose": "maps",
    "classify": "autos", "comm": "autos", "conj": "autos",
    "elementary": "autos", "invert_endo": "autos", "jacobian_det": "autos",
    "translation": "autos", "vector_degree": "autos",
    "Certificate": "nct", "serialize_certificate": "nct",
    "verify_certificate": "certificates",
    "parse_certificate": "certificates",
}


def test_importing_the_package_loads_no_module():
    code = ("import sys, polyauto; print(sorted(m for m in sys.modules "
            "if m.startswith('polyauto.')))")
    assert run_fresh(code) == "[]"


@pytest.mark.parametrize("name", sorted(HOMES))
def test_each_public_name_is_the_object_of_its_home(name):
    home = importlib.import_module(f"polyauto.{HOMES[name]}")
    assert getattr(polyauto, name) is getattr(home, name)
    assert getattr(home, name).__module__ == home.__name__


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from polyauto import *", namespace)
    assert set(polyauto.__all__) == set(HOMES) | {"__version__"}
    for name in HOMES:
        home = importlib.import_module(f"polyauto.{HOMES[name]}")
        assert namespace[name] is getattr(home, name)
    assert namespace["__version__"] == polyauto.__version__


def test_dir_lists_every_public_name():
    assert set(polyauto.__all__) <= set(dir(polyauto))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polyauto.no_such_name
    assert not hasattr(polyauto, "no_such_name")
