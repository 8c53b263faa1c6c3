"""What a `polyauto` process loads is tracked like a benchmark.  Each CLI
child compiles the modules it imports, so the lines it loads are its
start-up cost, and the lines `verify` loads are the verifier's trusted
base.  A change that makes either path load more raises its ceiling in its
own diff and says why in CHANGES.md.

Every run is a fresh interpreter started with -S, so no site hook preloads
a module.  A Q child loads no finite-field code (`polyauto.finite`), and
README lists both load sets."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polyauto

README = Path(__file__).resolve().parent.parent / "README.md"

# the modules `polyauto verify` loads on a Q file, and the ceiling on their
# lines
VERIFY_MODULES = {
    "polyauto", "polyauto.certificates", "polyauto.cli", "polyauto.errors",
    "polyauto.fields", "polyauto.grammar", "polyauto.kernels", "polyauto.maps",
    "polyauto.poly", "polyauto.record",
}
VERIFY_CEILING = 2529
# `polyauto verify` on an F4 slin-membership file: the Q set and `finite`
SLIN_VERIFY_CEILING = 2914
# `polyauto certify` on a Q word with no Exp factor
CERTIFY_MODULES = VERIFY_MODULES - {"polyauto.certificates"} | {
    "polyauto.autos", "polyauto.cotame", "polyauto.reduce_core",
    "polyauto.textio", "polyauto.wordbuild",
}
CERTIFY_CEILING = 3513
CERTIFY_NEVER = ("polyauto.certificates", "polyauto.slin", "polyauto.lnd",
                 "polyauto.identities", "polyauto.finite", "polyauto.tools")


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
    assert "polyauto.finite" not in mods
    total = sum(mods.values())
    assert total <= VERIFY_CEILING, f"verify loads {total} lines"


def test_verify_of_a_finite_field_file_loads_finite(tmp_path):
    from polyauto.fields import Field
    from polyauto.slin import SlinContext, slin_from_monomial_elementary
    from polyauto.textio import serialize_certificate
    F4 = Field.of_order(4)
    cert = slin_from_monomial_elementary(SlinContext(F4, 2), 1,
                                         F4.generator(), (0, 2))
    path = tmp_path / "c.nct"
    path.write_text(serialize_certificate(cert))
    rc, mods = loaded_lines(["verify", str(path)])
    assert rc == 0
    assert set(mods) == VERIFY_MODULES | {"polyauto.finite"}
    total = sum(mods.values())
    assert total <= SLIN_VERIFY_CEILING, f"verify loads {total} lines"


def test_certify_loads_no_verifier_and_stays_within_the_ceiling(tmp_path):
    rc, mods = loaded_lines(["certify", "[Q,2] E(2; x1^2)", "--out",
                             str(tmp_path / "c.nct")])
    assert rc == 0
    assert set(mods) == CERTIFY_MODULES
    assert [m for m in CERTIFY_NEVER if m in mods] == []
    total = sum(mods.values())
    assert total <= CERTIFY_CEILING, f"certify loads {total} lines"


def readme_load_set(command: str) -> set[str]:
    """The modules README's bullet on `polyauto <command>` says it loads:
    the names in backquotes between "loads" and the first colon."""
    text = " ".join(README.read_text().split())
    listed = re.search(rf"- `polyauto {command}`[^:]*? loads ([^:]*):",
                       text).group(1)
    return {"polyauto"} | {f"polyauto.{name}"
                           for name in re.findall(r"`(\w+)`", listed)}


def test_readme_lists_the_measured_load_sets():
    assert readme_load_set("verify") == VERIFY_MODULES
    assert readme_load_set("certify") == CERTIFY_MODULES


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
    "Certificate": "maps", "serialize_certificate": "textio",
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
