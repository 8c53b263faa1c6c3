"""Acceptance gate: every criterion runs at its stated tolerance (exact
equality throughout) and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the
per-criterion lines).
"""

import hashlib
import importlib
import pkgutil
import random

import pytest

from gen import (is_canonical_q, rand_m_triangular_word, rand_sl_word,
                 rand_translation, rand_triangular)
import polyauto
from polyauto.autos import invert_endo, jacobian_det, vector_degree
from polyauto.certificates import parse_certificate, verify_certificate
from polyauto.cotame import certify_normally_cotame
from polyauto.errors import NotSpecial, UnsupportedField, UnsupportedM
from polyauto.fields import Field, FieldElement
from polyauto.identities import (char2_claim_checks, commutator_formula_checks,
                                 exp_commutator_checks, random_kernel_pairs,
                                 scaling_observation_checks,
                                 square_trick_checks)
from polyauto.lnd import exp_automorphism
from polyauto.maps import (Elementary, Endo, ExpLND, FactoredAuto,
                           SignedPermutation, TriDerivation, compose)
from polyauto.poly import Polynomial
from polyauto.slin import SlinContext, slin_from_monomial_elementary
from polyauto.textio import (parse_endo, parse_factored, parse_field,
                             serialize_certificate)

Q = Field.rationals()


def report(criterion, ok):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


# -- criterion 1: the identity suite, exact -----------------------------------


def test_criterion_1_identity_suite():
    failures = []

    # (a) the commutator formula over Q, F5, F4, F9 (a 50-pair grid over Q,
    # exhaustive over the finite fields)
    for tag in ("Q", "F5", "F4", "F9"):
        results = commutator_formula_checks(parse_field(tag))
        count_needed = 50 if tag == "Q" else 1
        assert len(results) >= count_needed
        failures += [r for r in results if not r.ok]

    # (b) the odd-characteristic linear-elementary identity
    for tag in ("Q", "F5"):
        results = square_trick_checks(parse_field(tag))
        failures += [r for r in results if not r.ok]

    # (c) the characteristic-two claim, exhaustive over F4 and F8
    for tag in ("F4", "F8"):
        field = parse_field(tag)
        results = char2_claim_checks(field)
        q = field.order
        assert len(results) == (q - 1) * (q - 2)  # all valid (a, b)
        failures += [r for r in results if not r.ok]

    # (d) the scaling observation over Q and F5
    for tag in ("Q", "F5"):
        results = scaling_observation_checks(parse_field(tag))
        failures += [r for r in results if not r.ok]

    # (e) the exponential commutator on 20 random kernel pairs
    results = exp_commutator_checks()
    assert len(results) == 20
    failures += [r for r in results if not r.ok]

    report(1, not failures)


# -- criterion 2: vector-degree descent --------------------------------------------


def test_criterion_2_vd_descent():
    rng = random.Random(20240515)
    violations = 0
    checked = 0
    while checked < 500:
        n = rng.randint(2, 4)
        # sparse two-term parts keep the deg-5 n=4 inverses tractable
        tau = rand_triangular(rng, n, deg=rng.randint(1, 5),
                              special=True, terms=2).expand()
        if vector_degree(tau) == (0,) * n:
            continue
        gamma = rand_translation(rng, n).expand()
        conj = compose(compose(invert_endo(tau), gamma), tau)
        if not vector_degree(conj) < vector_degree(tau):
            violations += 1
        checked += 1
    report(2, violations == 0)


# -- criterion 3: the quadratic-kernel reproduction ------------------------------------


def vde_data():
    n = 4
    x = [Polynomial.variable(Q, n, i) for i in range(1, 5)]
    zero = Polynomial.zero(Q, n)
    F = x[0] * x[2] + x[1] * x[3]
    D = TriDerivation(Q, n, (zero, zero, -x[1], x[0]))
    return F, D


def test_criterion_3_quadratic_kernel_map():
    F, D = vde_data()
    tau = parse_endo("[Q,4] (x1, x2+x1^3, x3, x4)")
    got = compose(tau, exp_automorphism(F, D))
    want = parse_endo(
        "[Q,4] (x1, x2+x1^3, x3-x2*(x1*x3+x2*x4), x4+x1*(x1*x3+x2*x4))")
    ok = got == want and jacobian_det(got) == Polynomial.one(Q, 4)
    report(3, ok)


# -- criterion 4: certification corpus -----------------------------------------------


def phi_word(m, n=3):
    x = [Polynomial.variable(Q, n, i) for i in range(1, n + 1)]
    pi = SignedPermutation(Q, n, (2, 1, 3), (Q.one,) * 3)
    e = Elementary(Q, n, 1, x[1] * x[2])
    rho = SignedPermutation(Q, n, (3, 1, 2), (Q.one,) * 3)
    factors = []
    for _ in range(m):
        factors += [(pi, 1), (e, 1)]
    factors.append((rho, 1))
    return FactoredAuto(Q, n, factors)


def corpus_words():
    rng = random.Random(414243)
    words = []
    # (i) ten random triangular special maps (plus two extra for the >= 25
    # corpus size)
    count = 0
    while count < 12:
        n = rng.randint(2, 4)
        w = FactoredAuto(Q, n, [(rand_triangular(rng, n, deg=2,
                                                 special=True), 1)])
        if w.expand().is_identity():
            continue
        words.append(("triangular", w))
        count += 1
    # (ii) five random 2/3/4-triangular words over n = 2, 3, 4 (plus two)
    for m, n, deg in ((2, 2, 3), (2, 3, 2), (3, 3, 2), (4, 2, 2), (3, 4, 1),
                      (2, 4, 2), (4, 3, 1)):
        while True:
            w = rand_m_triangular_word(rng, n, m, deg=deg)
            if not w.expand().is_identity():
                break
        words.append((f"{m}-triangular", w))
    # (iii) the even permutation-twist maps
    words.append(("phi2", phi_word(2)))
    words.append(("phi4", phi_word(4)))
    # (iv) the quadratic-kernel showcase map and three random exp-type maps
    F, D = vde_data()
    vde_word = FactoredAuto(Q, 4, [
        (Elementary(Q, 4, 2, Polynomial.variable(Q, 4, 1) ** 3), 1),
        (ExpLND(Q, 4, F, D), 1)])
    words.append(("vdE", vde_word))
    pairs = random_kernel_pairs(99991, 6)
    added = 0
    for F2, D2 in pairs:
        if added == 3:
            break
        n = F2.nvars
        word = FactoredAuto(Q, n, [(ExpLND(Q, n, F2, D2), 1)])
        if word.expand().is_identity():
            continue
        tau = rand_triangular(rng, n, deg=2, special=True)
        alpha = rand_sl_word(rng, n, length=2)
        full = FactoredAuto(Q, n, [(tau, 1)]) * alpha * word
        words.append((f"exp-type-{added}", full))
        added += 1
    assert added == 3
    return words


# SHA-256 of each corpus certificate's .nct bytes.  Engine refactors must
# leave them unchanged; only a deliberate change of the engines' output or
# of the format may rewrite this table.
CORPUS_SHA256 = {
    "00-triangular": "84b10c841b81ed00bee57811a5fc9ef3"
        "28a8262790062f909754817bec5ff216",
    "01-triangular": "2b9d08c19cfcfc96595b324716d66ca0"
        "eea71e89b10b2df931e2f9eff402326f",
    "02-triangular": "270faf2f69092c60d6e6a3d10140836d"
        "e16fd6cd8dda895bc98fa94aeb0c1ce2",
    "03-triangular": "dbe870b059598ee5e30f3a942037ecbc"
        "08e604b7f1e00b255bb7e138b5de09bf",
    "04-triangular": "6e1cf9eb756f06d61b45a3a56d8436a4"
        "0450b8a2337bda1416d60772ff7ac13a",
    "05-triangular": "9b68836f4dbfc2c6033258d3dce638de"
        "a915231bee22e4edbdf32108a02544b7",
    "06-triangular": "cd6fddbec85f59828dcb47072e3654dd"
        "05052a7dbf43ac242f9269df053a2588",
    "07-triangular": "4b59bc42eb7498c510972ef0c15e5db5"
        "013c47009ee8681883ef42243e9573e5",
    "08-triangular": "c93ae7d37f8689b53d873598b5cdf969"
        "11a88b55b1221444d0f38e2536156a7b",
    "09-triangular": "cb9c021bcd1526451cd002f96d769ca7"
        "c1d91fb4085ca7bc67686121c7de919b",
    "10-triangular": "7821d4173f699a3e944fea842d053cc7"
        "f179d83da0c38896a770600140b3e490",
    "11-triangular": "09d07c7cbfe9914879c1af5fede44a51"
        "5b32e6b7fa80eca3d157f5bdd19925f5",
    "12-2-triangular": "0a7fb33fb590bac5da93485a7b9c9563"
        "d24e59f7930f555d72fa6bdbd5cff0d7",
    "13-2-triangular": "7064c44cd98dfc994e38d2ee4a91c802"
        "1fcb32a74ccbe2713a7b1fb0e0e61226",
    "14-3-triangular": "f278baa86e234e81dbc77eb086ace3ed"
        "0d4a7b76ad5834cccd092b42405ef72a",
    "15-4-triangular": "036666e688dac438b53f92ee33869aa7"
        "b42fb7ef73f9bc05e38bc8aea0bcc6fb",
    "16-3-triangular": "079e8ba36388c5dbc7ca2fad25397449"
        "0045f5104925b37206a676f6e6c7094b",
    "17-2-triangular": "6a8709a9802f08d6e29ad798db42cb91"
        "8b3d4db80c1990e70ba429173e3ac56e",
    "18-4-triangular": "e9d64d1d5af4c56e9cf6c801682b53d6"
        "21564b6d24ff1b90766e64f4c94894f6",
    "19-phi2": "548e7a404e02e37dd5793c9ee98a379e"
        "b62403573bef1f4850aa2db17f6f995b",
    "20-phi4": "efa1ddee5fa7819da2b3edd963218de4"
        "acd523d2161f62ebaa6f0d75d1bc17ee",
    "21-vdE": "6421eec7c5d5004f738eb9d3a2a58339"
        "c4bdbeee23c5d33da3fd123f107cc240",
    "22-exp-type-0": "1a0caac5be4e37e3f9ca349d2910f4ed"
        "8bfb1ba5caa35b82514040396ca6b90b",
    "23-exp-type-1": "23dcbb5fb8d7c39eca16df8281ddfdf3"
        "5118030761f9a965df3836c05de43c36",
    "24-exp-type-2": "7f5d1c04a74d6eeba31d6e3dd78124c6"
        "46377c68816a42bb75337367d8e0f007",
}


def count_calls(monkeypatch, names):
    """Count calls of the autos functions `names` through every polyauto
    module that binds them by name."""
    counts = dict.fromkeys(names, 0)
    modules = [polyauto] + [importlib.import_module(f"polyauto.{m.name}")
                            for m in pkgutil.iter_modules(polyauto.__path__)
                            if m.name != "__main__"]
    for name in names:
        original = getattr(polyauto.autos, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_criterion_4_certification_corpus(monkeypatch):
    words = corpus_words()
    assert len(words) >= 25
    # special-ness comes from word determinants and each engine question
    # from its own predicate: no Jacobian expansion, no full classification
    calls = count_calls(monkeypatch, ("jacobian_det", "classify"))
    bad = []
    for index, (name, word) in enumerate(words):
        key = f"{index:02d}-{name}"
        try:
            cert = certify_normally_cotame(word)
            rep = verify_certificate(cert)
            if rep.verdict != "PASS":
                bad.append((key, rep.verdict))
                continue
            text = serialize_certificate(cert)
            if hashlib.sha256(text.encode()).hexdigest() \
                    != CORPUS_SHA256.get(key):
                bad.append((key, "certificate bytes changed"))
            # serialization round trip preserves the bytes and the verdict
            again = parse_certificate(text)
            if serialize_certificate(again) != text:
                bad.append((key, "round-trip bytes changed"))
            if verify_certificate(again).verdict != "PASS":
                bad.append((key, "round-trip verdict changed"))
        except Exception as exc:  # noqa: BLE001 - report below
            bad.append((key, f"{type(exc).__name__}: {exc}"))
    if any(calls.values()):
        bad.append(("calls", calls))
    report(4, not bad or pytest.fail(f"corpus failures: {bad}"))


def test_the_corpus_path_builds_only_canonical_q_payloads(monkeypatch):
    """No integral Fraction and no other non-canonical Q payload is built
    on the corpus path: every Q polynomial and element made while the 25
    words are built, certified, serialized, parsed and verified is checked
    as it is made.  An integral Fraction would stay exact, but it would
    take the all-int path of the kernels and run their int loops on
    Fractions."""
    bad = []

    def guard(cls, payloads):
        init = cls.__init__

        def checked(self, field, *args):
            init(self, field, *args)
            if field is Q:
                bad.extend(c for c in payloads(self)
                           if not is_canonical_q(c))
        monkeypatch.setattr(cls, "__init__", checked)

    guard(Polynomial, lambda p: p.terms.values())
    guard(FieldElement, lambda x: (x.payload,))
    words = corpus_words()
    for name, word in words:
        cert = certify_normally_cotame(word)
        again = parse_certificate(serialize_certificate(cert))
        assert verify_certificate(again).verdict == "PASS", name
    assert len(words) == 25 and bad == []


# -- criterion 5: finite-field membership coverage ------------------------------------


def monomials_up_to(nvars_free, max_total):
    """Exponent tuples (on the free variables) of total degree <= max_total."""
    if nvars_free == 1:
        return [(d,) for d in range(max_total + 1)]
    out = []
    for d2 in range(max_total + 1):
        for d3 in range(max_total + 1 - d2):
            out.append((d2, d3))
    return out


def test_criterion_5_finite_field_coverage():
    cases_seen = set()
    failures = []
    for q in (4, 8, 9):
        field = Field.of_order(q)
        for n in (2, 3):
            ctx = SlinContext(field, n)
            for a in field.units():
                for free_exps in monomials_up_to(n - 1, 6):
                    exps = (0,) + free_exps
                    cert = slin_from_monomial_elementary(ctx, 1, a, exps)
                    cases_seen.update(cert.meta["cases"].split(","))
                    rep = verify_certificate(cert)
                    if rep.verdict != "PASS":
                        failures.append((q, n, str(a), exps, rep.verdict))
                    if int(cert.meta["depth"]) > sum(exps) + 2:
                        failures.append((q, n, str(a), exps, "depth"))
    ok = not failures and {"1", "2a", "2b"} <= cases_seen
    report(5, ok)


# -- criterion 6: negative controls ------------------------------------------------------


def test_criterion_6_negative_controls():
    ok = True
    # odd twists have Jacobian determinant -1
    for m in (1, 3):
        with pytest.raises(NotSpecial):
            certify_normally_cotame(phi_word(m))
    # membership generation refuses prime fields
    for p in (2, 3, 5):
        with pytest.raises(UnsupportedField):
            slin_from_monomial_elementary(
                SlinContext(Field.prime(p), 2), 1, 1, (0, 2))
    # five-slot words are refused
    sep = parse_factored("[Q,2] E(1; x2)")
    factors = []
    for k in range(5):
        factors.extend(
            parse_factored(f"[Q,2] E(2; {k + 1}*x1^2)").factors)
        factors.extend(sep.factors)
    with pytest.raises(UnsupportedM):
        certify_normally_cotame(FactoredAuto(Q, 2, factors))
    # mutation test: >= 20 single-character corruptions of claimed values
    # in a passing certificate must all flip the verdict
    from gen import parseable_value_mutants
    cert = certify_normally_cotame(phi_word(2))
    text = serialize_certificate(cert)
    assert verify_certificate(parse_certificate(text)).verdict == "PASS"
    mutants = survivors = 0
    for mcert in parseable_value_mutants(text, limit=40):
        mutants += 1
        if verify_certificate(mcert).verdict == "PASS":
            survivors += 1
    ok = ok and mutants >= 20 and survivors == 0
    report(6, ok)


# -- criterion 7: algebra core properties --------------------------------------------------


def test_criterion_7_core_properties():
    from gen import rand_mixed_word
    rng = random.Random(7077)
    ok = True
    for _ in range(300):
        n = rng.randint(2, 3)
        a = rand_mixed_word(rng, n, 2).expand()
        b = rand_mixed_word(rng, n, 2).expand()
        c = rand_mixed_word(rng, n, 2).expand()
        ok = ok and compose(compose(a, b), c) == compose(a, compose(b, c))
    for _ in range(200):
        n = rng.randint(2, 4)
        kind = rng.choice(("tri", "aff", "word"))
        if kind == "tri":
            phi = rand_triangular(rng, n, 2).expand()
            ok = ok and compose(phi, invert_endo(phi)) == Endo.identity(Q, n)
        elif kind == "aff":
            aff = compose(rand_sl_word(rng, n).expand(),
                          rand_translation(rng, n).expand())
            ok = ok and compose(aff, invert_endo(aff)) == Endo.identity(Q, n)
        else:
            w = rand_mixed_word(rng, n, 3)
            ok = ok and compose(w.expand(), w.inverse().expand()) == \
                Endo.identity(Q, n)
    for _ in range(200):
        n = rng.randint(2, 3)
        phi = rand_mixed_word(rng, n, 2).expand()
        psi = rand_mixed_word(rng, n, 2).expand()
        lhs = jacobian_det(compose(phi, psi))
        rhs = jacobian_det(psi) * jacobian_det(phi).substitute(
            list(psi.components))
        ok = ok and lhs == rhs
    report(7, ok)
