"""Acceptance suite: one test per criterion, one printed verdict line each."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from starcong import (
    DeltaTau,
    Hyperbolic,
    UnitDirectZero,
    UnitPair,
    Zero,
    classify,
    codimension,
    forms_close,
    no_arrow_certificate,
    random_congruence,
    reachable,
    realize,
    sample_neighborhood,
    versal_profile,
    witness,
)
from starcong.errors import ArrowExists, CertificateNotFound, StarcongError
from starcong.rng import SplitMix64

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_7class.dot"
SRC = Path(__file__).resolve().parents[1] / "src"


def unit(theta):
    return complex(np.cos(theta), np.sin(theta))


def verdict(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def family_grids(n):
    """n parameter draws per family, deterministic."""
    rng = SplitMix64(314159)
    thetas = [2 * np.pi * rng.uniform() for _ in range(3 * n)]
    grids = {
        "pair-generic": [UnitPair(unit(thetas[3 * k]), unit(thetas[3 * k + 1]))
                         for k in range(n)],
        "pair-equal": [UnitPair(unit(t), unit(t)) for t in thetas[:n]],
        "pair-antipodal": [UnitPair(unit(t), -unit(t)) for t in thetas[:n]],
        "hyp": [Hyperbolic(0.97 * rng.uniform() * unit(t)) for t in thetas[:n]],
        "delta": [DeltaTau(unit(t)) for t in thetas[:n]],
        "udz": [UnitDirectZero(unit(t)) for t in thetas[n:2 * n]],
        "zero": [Zero()],
    }
    return grids


def test_criterion_1_codimension_table():
    expected = {
        "pair-generic": 2, "hyp": 2, "delta": 2,
        "pair-equal": 4, "pair-antipodal": 4,
        "udz": 5, "zero": 8,
    }
    grids = family_grids(100)
    start = time.time()
    bad = []
    for name, forms in grids.items():
        for form in forms:
            if codimension(form) != expected[name]:
                bad.append(form)
    elapsed = time.time() - start
    verdict(1, not bad and elapsed < 1.0,
            f"codimension table exact on 100-point grids ({elapsed:.2f} s)")


def test_criterion_2_versal_consistency():
    bad = []
    for forms in family_grids(100).values():
        for form in forms:
            p = versal_profile(form)
            if 2 * p.star_count + p.eps_count != codimension(form):
                bad.append(form)
    verdict(2, not bad, "2*stars + eps == codimension on the same grids")


def test_criterion_3_round_trip():
    bad = 0
    # exact representatives at 1e-12
    for forms in family_grids(100).values():
        for form in forms:
            if not forms_close(classify(realize(form)).form, form, 1e-12):
                bad += 1
    # 10^4 random congruences per family at 1e-6
    rng = SplitMix64(2718)
    per_family = 10_000
    for fam in range(5):
        for s in range(per_family):
            t1 = 2 * np.pi * rng.uniform()
            t2 = 2 * np.pi * rng.uniform()
            if fam == 0:
                form = Zero()
            elif fam == 1:
                form = UnitDirectZero(unit(t1))
            elif fam == 2:
                pick = s % 3
                form = (UnitPair(unit(t1), unit(t2)) if pick == 0
                        else UnitPair(unit(t1), unit(t1)) if pick == 1
                        else UnitPair(unit(t1), -unit(t1)))
            elif fam == 3:
                form = Hyperbolic(0.95 * rng.uniform() * unit(t1))
            else:
                form = DeltaTau(unit(t1))
            _, member = random_congruence(form, seed=(fam << 20) + s)
            if not forms_close(classify(member).form, form, 1e-6):
                bad += 1
    verdict(3, bad == 0, f"classification round-trips, {5 * per_family} random congruences")


def arrow_family_draws(n):
    rng = SplitMix64(4242)
    cases = []
    for k in range(n):
        t1 = 2 * np.pi * rng.uniform()
        t2 = 2 * np.pi * rng.uniform()
        lam, other = unit(t1), unit(t2)
        # |sigma| bounded away from the strata boundaries {0, 1}: a target
        # with det -> 0 cannot be certified by classification at delta = 1e-6
        # in double precision (the perturbed determinant is ~ delta^2 sigma)
        sigma = (0.05 + 0.88 * rng.uniform()) * unit(t2)
        cases.append(("zero->udz", Zero(), UnitDirectZero(lam)))
        cases.append(("zero->pair", Zero(), UnitPair(lam, other)))
        cases.append(("zero->hyp", Zero(), Hyperbolic(sigma)))
        cases.append(("zero->delta", Zero(), DeltaTau(lam)))
        # cone interior: lambda strictly between mu and nu
        mu, nu = unit(t1 + 0.4), unit(t1 - 0.7)
        cases.append(("udz->pair", UnitDirectZero(lam), UnitPair(mu, nu)))
        cases.append(("udz->hyp", UnitDirectZero(lam), Hyperbolic(sigma)))
        tau = unit(t1 - 0.45 * np.pi * rng.uniform())  # Im(lam conj(tau)) > 0
        cases.append(("udz->delta", UnitDirectZero(lam), DeltaTau(tau)))
        sgn = 1.0 if rng.uniform() < 0.5 else -1.0
        cases.append(("pair->delta", UnitPair(lam, -lam), DeltaTau(sgn * lam)))
        # boundary cases: Im(lam conj(tau)) = 0 and a vanishing cone coefficient
        cases.append(("udz->delta-boundary", UnitDirectZero(lam), DeltaTau(sgn * lam)))
        cases.append(("udz->pair-boundary", UnitDirectZero(lam), UnitPair(lam, other)))
    return cases


def test_criterion_4_arrow_witnesses():
    start = time.time()
    bad = []
    for name, src, dst in arrow_family_draws(100):
        for delta in (1e-2, 1e-4, 1e-6):
            try:
                w = witness(src, dst, delta)
            except StarcongError as exc:
                bad.append((name, delta, str(exc)))
                continue
            if w.norm_E > delta * (1 + 1e-12):
                bad.append((name, delta, "budget"))
    elapsed = time.time() - start
    verdict(4, not bad and elapsed < 30.0,
            f"witnesses down to 1e-6 for every arrow family ({elapsed:.1f} s) {bad[:3]}")


def certificate_pair_grid():
    rng = SplitMix64(5555)
    grids = {name: forms for name, forms in family_grids(8).items()}
    families = {
        "zero": grids["zero"] * 8,
        "udz": grids["udz"],
        "pair": (grids["pair-generic"][:3] + grids["pair-equal"][:3]
                 + grids["pair-antipodal"][:2]),
        "hyp": grids["hyp"],
        "delta": grids["delta"],
    }
    pairs = []
    for fa, forms_a in families.items():
        for fb, forms_b in families.items():
            for i in range(40):
                a = forms_a[int(rng.uniform() * len(forms_a))]
                b = forms_b[int(rng.uniform() * len(forms_b))]
                pairs.append((a, b))
    # the three non-arrow shapes ruled out by explicit invariant arguments
    for t in np.linspace(0.1, 6.0, 12):
        lam = unit(t)
        for pm in (lam, -lam):
            pairs.append((UnitPair(lam, pm), UnitPair(unit(t + 1.0), unit(t - 0.8))))
            pairs.append((UnitPair(lam, pm), Hyperbolic(0.5 * unit(t))))
        pairs.append((UnitPair(lam, lam), DeltaTau(unit(t + 0.3))))
        pairs.append((UnitPair(lam, lam), DeltaTau(1j * lam)))   # det phases agree
        pairs.append((UnitPair(lam, -lam), DeltaTau(unit(t + 0.3))))
        # boundary-adjacent: one hair on each side of the half-plane condition
        pairs.append((UnitDirectZero(lam), DeltaTau(lam * unit(1e-6))))
        pairs.append((UnitDirectZero(lam), DeltaTau(lam * unit(-1e-6))))
        pairs.append((UnitDirectZero(lam), UnitPair(unit(t + 2.0), unit(t + 2.5))))
    return pairs


def test_criterion_5_certificate_completeness():
    pairs = certificate_pair_grid()
    assert len(pairs) >= 1000
    bad = []
    for a, b in pairs:
        if a == b:
            continue
        try:
            if reachable(a, b):
                try:
                    no_arrow_certificate(a, b)
                    bad.append((a, b, "certificate for a reachable pair"))
                except ArrowExists:
                    pass
            else:
                cert = no_arrow_certificate(a, b)
                if not cert.margin > 0:
                    bad.append((a, b, "nonpositive margin"))
        except CertificateNotFound:
            bad.append((a, b, "CertificateNotFound"))
    verdict(5, not bad, f"reachable XOR certificate on {len(pairs)} pairs {bad[:2]}")


def test_criterion_6_codim_monotonicity():
    bad = [(a, b) for a, b in certificate_pair_grid()
           if a != b and reachable(a, b) and not codimension(a) > codimension(b)]
    verdict(6, not bad, "codimension strictly decreases along every arrow")


def test_criterion_7_first_order_tangent():
    rng = np.random.default_rng(99)
    bad = 0
    for _ in range(1000):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C /= np.linalg.norm(C)
        for eps in (1e-4, 1e-5):
            lhs = (np.eye(2) + eps * C).conj().T @ A @ (np.eye(2) + eps * C)
            resid = np.linalg.norm(lhs - A - eps * (C.conj().T @ A + A @ C))
            if resid > 2 * eps**2 * np.linalg.norm(A):
                bad += 1
    verdict(7, bad == 0, "first-order congruence expansion residual bound, 1000 draws")


def test_criterion_8_neighborhood_spectrum():
    bad = []
    for k in range(10):
        lam = unit(0.61 * k + 0.05)
        for form in (UnitPair(lam, lam), UnitPair(lam, -lam)):
            coarse = sample_neighborhood(form, 1e-3, 10_000, seed=100 + k)
            fine = sample_neighborhood(form, 1e-4, 10_000, seed=100 + k)
            if coarse.max_spectrum_drift > 0.1:
                bad.append((form, "drift too large"))
            if coarse.max_spectrum_drift / fine.max_spectrum_drift < 5.0:
                bad.append((form, "drift does not shrink"))
    verdict(8, not bad, f"cosquare spectrum drift bounded and contracting {bad[:2]}")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "starcong", *args],
                          capture_output=True, text=True, env=env, timeout=300)


SEVEN_CLASS = [
    "zero", "udz(1)", "pair(1,1)", "pair(1,-1)",
    "pair(0.70710678118654746+0.70710678118654746i,"
    "0.70710678118654746-0.70710678118654746i)",
    "hyp(0.3)", "delta(1)",
]


def test_criterion_9_dot_golden():
    a = run_cli("graph", *SEVEN_CLASS)
    b = run_cli("graph", *SEVEN_CLASS)
    ok = a.returncode == 0 and a.stdout == b.stdout == GOLDEN.read_text()
    verdict(9, ok, "7-class DOT output byte-identical to the golden file")


def test_criterion_10_determinism():
    sample_args = ("sample", "pair(1,-1)", "--delta", "1e-3", "--samples", "3000",
                   "--seed", "9", "--format", "json")
    witness_args = ("witness", "udz(1)", "delta(1)", "--delta", "1e-4", "--format", "json")
    ok = True
    for args in (sample_args, witness_args):
        a, b = run_cli(*args), run_cli(*args)
        ok = ok and a.returncode == 0 and a.stdout == b.stdout and a.stdout
    verdict(10, bool(ok), "sample and witness JSON reports byte-identical per (seed, args)")
