"""The plain verifier that `verify_certificate` must agree with: every seed's
inverse expanded up front, and every step's items folded left to right from
the identity and compared with VALUE.  Its checks, records and messages are
those of `polyauto.certificates`."""

from polyauto.certificates import CheckRecord, VerificationReport
from polyauto.errors import DegreeCapExceeded
from polyauto.maps import (KIND_SLIN, Endo, affine_parts, compose,
                           elementary_parts)
from polyauto.poly import DEFAULT_DEGREE_CAP


def reference_verify(cert, cap=DEFAULT_DEGREE_CAP) -> VerificationReport:
    records, env, labels, cut = [], {}, set(), False
    ident = Endo.identity(cert.field, cert.nvars)

    def check(label, name, ok, message=""):
        records.append(CheckRecord(label, name, ok, message if not ok else ""))
        return ok

    for seed in cert.seeds:
        if seed.label in labels:
            check(seed.label, "unique-label", False, "duplicate label")
            continue
        labels.add(seed.label)
        try:
            pair = (seed.word.expand(cap), seed.word.inverse().expand(cap))
        except DegreeCapExceeded as exc:
            cut = True
            check(seed.label, "seed-expansion", False, str(exc))
            continue
        env[seed.label] = pair
        check(seed.label, "seed-special", seed.word.det().is_one(),
              "seed Jacobian determinant != 1")
        if cert.kind == KIND_SLIN:
            parts = affine_parts(pair[0])
            check(seed.label, "seed-linear", parts is not None and all(
                b.is_zero() for b in parts[1]), "SLIN seed must be linear")
    for step in cert.steps:
        label = step.label
        if label in labels:
            check(label, "unique-label", False, "duplicate label")
            continue
        labels.add(label)
        try:
            check(label, "inverse-pair", compose(step.value, step.inverse, cap)
                  == ident, "stated inverse is not an inverse")
        except DegreeCapExceeded as exc:
            cut = True
            check(label, "inverse-pair", False, str(exc))
            continue
        product, failed = ident, False
        for idx, item in enumerate(step.items):
            if item.base not in env:
                failed = not check(label, f"item{idx}-base", False,
                                   f"unknown or later base {item.base!r}")
                break
            core, g = env[item.base][item.exponent != 1], item.conjugator
            try:
                if g is not None and g.factors:
                    expanded = g.expand(cap)
                    if not check(label, f"item{idx}-conjugator-special",
                                 g.det().is_one(),
                                 "conjugator Jacobian determinant != 1"):
                        failed = True
                        break
                    core = compose(compose(g.inverse().expand(cap), core, cap),
                                   expanded, cap)
                product = compose(product, core, cap)
            except DegreeCapExceeded as exc:
                cut = failed = True
                check(label, f"item{idx}-expansion", False, str(exc))
                break
        if not failed:
            check(label, "word-equals-value", product == step.value,
                  "word expansion differs from claimed value")
            env[label] = (step.value, step.inverse)
    if cert.terminal not in env or cert.terminal not in {
            s.label for s in cert.steps}:
        check(cert.terminal or "<missing>", "terminal-exists", False,
              "terminal must reference a step")
    else:
        check(cert.terminal, "terminal-elementary",
              elementary_parts(env[cert.terminal][0]) is not None,
              "terminal is not a nontrivial elementary map")
    verdict = ("INDETERMINATE" if cut else
               "PASS" if all(r.ok for r in records) else "FAIL")
    return VerificationReport(verdict, records)
