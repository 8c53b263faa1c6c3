"""The bodies of the toolbox subcommands of `polyauto.cli` (all but
certify and verify), so a certify or verify process loads none of them.
"""

from __future__ import annotations

from .autos import (Classification, classify, invert_endo, jacobian_det,
                    vector_degree)
from .maps import FactoredAuto, compose
from .textio import (endo_to_text, parse_automorphism, parse_derivation,
                     parse_field, parse_polynomial, poly_to_text)


def _expanded(text: str, cap):
    """The map that `text` writes, expanded under `cap`."""
    obj = parse_automorphism(text, cap=cap)
    return obj.expand(cap=cap) if isinstance(obj, FactoredAuto) else obj


def cmd_classify(args) -> int:
    flags = classify(_expanded(args.map, args.cap))
    for name in Classification.__slots__:
        print(f"{name}: {'yes' if getattr(flags, name) else 'no'}")
    return 0


def cmd_compose(args) -> int:
    a = _expanded(args.left, args.cap)
    b = _expanded(args.right, args.cap)
    print(endo_to_text(compose(a, b, cap=args.cap)))
    return 0


def cmd_invert(args) -> int:
    obj = parse_automorphism(args.map, cap=args.cap)
    if isinstance(obj, FactoredAuto):
        print(repr(obj.inverse()))
    else:
        print(endo_to_text(invert_endo(obj, cap=args.cap)))
    return 0


def cmd_jacobian(args) -> int:
    print(poly_to_text(jacobian_det(_expanded(args.map, args.cap))))
    return 0


def cmd_vd(args) -> int:
    vd = vector_degree(_expanded(args.map, args.cap))
    print("(" + ",".join(str(d) for d in vd) + ")")
    return 0


def cmd_exp(args) -> int:
    from .lnd import exp_automorphism
    field = parse_field(args.field)
    F = parse_polynomial(args.kernel, field, args.nvars, cap=args.cap)
    D = parse_derivation(args.derivation, field, args.nvars, cap=args.cap)
    print(endo_to_text(exp_automorphism(F, D)))
    return 0


def cmd_identities(args) -> int:
    from .identities import run_identity_suite, summarize
    tags = [t.strip() for t in args.fields.split(",") if t.strip()]
    results = run_identity_suite(tags, seed=args.seed)
    print(summarize(results))
    return 0 if all(r.ok for r in results) else 1


