"""polyauto: exact polynomial automorphism algebra with machine-checkable
normal-closure certificates.

The algebra core (fields, poly, maps) is self-contained; certificates are
verified by polyauto.certificates with no dependency on the construction
engines (slin, cotame, lnd) or their tools (autos).

Importing the package loads none of its modules: each public name is
imported from its home module when it is first read (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "Field": "fields", "FieldElement": "fields", "Polynomial": "poly",
    "Endo": "maps", "FactoredAuto": "maps", "compose": "maps",
    "classify": "autos", "comm": "autos", "conj": "autos",
    "elementary": "autos", "invert_endo": "autos", "jacobian_det": "autos",
    "translation": "autos", "vector_degree": "autos",
    "Certificate": "nct", "serialize_certificate": "nct",
    "verify_certificate": "certificates", "parse_certificate": "certificates",
}

__all__ = [
    "Field", "FieldElement", "Polynomial", "Endo", "FactoredAuto",
    "classify", "comm", "compose", "conj", "elementary", "invert_endo",
    "jacobian_det", "translation", "vector_degree", "Certificate",
    "verify_certificate", "serialize_certificate", "parse_certificate",
    "__version__",
]


def __getattr__(name: str):
    # not cached here, so a name rebound in its home module is read afresh
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
