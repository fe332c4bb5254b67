"""Acceptance suite: one test per acceptance criterion, each printing a single
pass/fail line.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from minvec.bessel import bessel_K_imag
from minvec.characters import (ChiEvaluator, MinimalVectorSpec,
                               enumerate_theta, solve_a_theta, verify_a_theta)
from minvec.cosets import entry_columns, gl2_order, kt_membership_mask, kt_support
from minvec.global_whittaker import (ArchParams, CoefficientSource,
                                     RamifiedData, evaluate_phi, gamma_TD,
                                     lambda_prime, scan_supnorm)
from minvec.matgroups import Mat2Local, TorusSpec, a_mat, n_mat
from minvec.minimal import (coefficient_density, convolution_check,
                            support_profile, whittaker_closed,
                            whittaker_oracle, whittaker_support_scan)
from minvec.residues import LocalElement

RATIO_TOL = 1e-9          # dual-route Whittaker deviation
PROGRESSION_TOL = 1e-12   # |lambda'| against sqrt(phi(N)) (float arithmetic)
BESSEL_REFINE_TOL = 1e-10
BESSEL_ASYMP_TOL = 1e-3
PHI_STABILITY_TOL = 1e-8  # enforced inside evaluate_phi(check_stability=True)
WITNESS_SPREAD_MAX = 20.0
SLOPE_WINDOW = 0.15       # around the exponent: 1/8 in C, 1/4 in k
CONV_BUDGET = 300.0       # seconds, criteria 1 and 3 share the pair scans
SCAN_BUDGET = 1800.0      # seconds


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def mv31():
    spec = TorusSpec(3, 1)
    return MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])


@pytest.fixture(scope="module")
def mv51():
    spec = TorusSpec(5, 1)
    return MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])


@pytest.fixture(scope="module")
def pair_scans(mv31, mv51):
    """Exhaustive pair scans at (3,1) and (5,1) plus a random scan at (3,2);
    shared between criteria 1 and 3.  Returns (reports, elapsed seconds)."""
    t0 = time.monotonic()
    rep31 = convolution_check(mv31, "exhaustive")
    rep51 = convolution_check(mv51, "exhaustive")
    spec32 = TorusSpec(3, 2)
    mv32 = MinimalVectorSpec.build(spec32, enumerate_theta(spec32)[0])
    rep32 = convolution_check(mv32, "random", pairs=10**5, seed=0)
    return {"31": rep31, "51": rep51, "32": rep32}, time.monotonic() - t0


def test_criterion_1_character_multiplicativity(pair_scans):
    reps, elapsed = pair_scans
    ok = (reps["31"].multiplicativity_violations == 0
          and reps["31"].closure_violations == 0
          and reps["31"].pairs_checked == 648 * 648
          and reps["51"].multiplicativity_violations == 0
          and reps["51"].closure_violations == 0
          and reps["51"].pairs_checked == 15000 * 15000
          and reps["32"].multiplicativity_violations == 0
          and reps["32"].closure_violations == 0
          and reps["32"].pairs_checked >= 10**5
          and elapsed < CONV_BUDGET)
    _line(1, ok, f"exhaustive (3,1)+(5,1), 1e5 random (3,2), {elapsed:.1f}s")
    assert ok


def test_criterion_2_a_theta_existence_uniqueness(mv31, mv51):
    counts = {}
    ok = True
    for spec in (TorusSpec(3, 1), TorusSpec(5, 1)):
        thetas = enumerate_theta(spec)
        counts[(spec.p, spec.n)] = len(thetas)
        for th in thetas:
            a = solve_a_theta(th, spec)       # raises unless exactly one solution
            ok = ok and verify_a_theta(th, a, spec)
    ok = ok and counts[(3, 1)] == 8
    _line(2, ok, f"theta counts {counts}, defining identity exhaustive")
    assert ok


def _mat_inverse_mod(mats: np.ndarray, pm: int, p: int) -> np.ndarray:
    a, b = mats[:, 0, 0] % pm, mats[:, 0, 1] % pm
    c, d = mats[:, 1, 0] % pm, mats[:, 1, 1] % pm
    det = (a * d - b * c) % pm
    det_inv = np.array([pow(int(x), -1, pm) for x in det], dtype=np.int64)
    out = np.empty_like(mats)
    out[:, 0, 0] = d * det_inv % pm
    out[:, 0, 1] = (-b) * det_inv % pm
    out[:, 1, 0] = (-c) * det_inv % pm
    out[:, 1, 1] = a * det_inv % pm
    return out


def test_criterion_3_matrix_coefficient_algebra(mv31, mv51, pair_scans):
    reps, _ = pair_scans
    ok = (reps["31"].density == Fraction(1, 6)
          and reps["51"].density == Fraction(1, 20)
          and reps["31"].norm_square == Fraction(1, 6)
          and reps["51"].norm_square == Fraction(1, 20))
    for mv in (mv31, mv51):
        p, n = mv.p, mv.n
        delta = coefficient_density(mv)
        ok = ok and delta * p ** (2 * n) == Fraction(p, p - 1)
    # literal convolution sums at (3,1): exact per-term equality on support,
    # numerically vanishing total off support
    supp = kt_support(mv31.torus)
    ev = ChiEvaluator.build(mv31)
    pm = 9
    exps = ev.exponents(*entry_columns(supp))
    inv = _mat_inverse_mod(supp, pm, 3)
    for idx in (0, 17, 123):
        h = supp[idx]
        q = np.einsum("sij,jk->sik", inv, h) % pm
        mask = kt_membership_mask(mv31.torus, *entry_columns(q))
        ok = ok and bool(mask.all())
        total_exp = (exps + ev.exponents(*entry_columns(q))) % ev.L
        ok = ok and bool((total_exp == exps[idx]).all())   # exact, term by term
    for h in (np.array([[1, 1], [0, 1]]), np.array([[2, 0], [0, 1]])):
        q = np.einsum("sij,jk->sik", inv, h % pm) % pm
        mask = kt_membership_mask(mv31.torus, *entry_columns(q))
        roots = np.exp(2j * np.pi * ev.exponents(*entry_columns(q[mask])) / ev.L)
        s = np.sum(np.exp(2j * np.pi * exps[mask] / ev.L) * roots)
        ok = ok and abs(s) < 1e-9 * len(supp)
    _line(3, ok, "delta = 1/6, 1/20 exact; norm = delta; q^{2n} delta = q/(q-1)")
    assert ok


def test_criterion_4_whittaker_dual_route(mv31):
    random.seed(11)
    M = 16
    p = 3
    ratios = []
    while len(ratios) < 1000:
        k = Mat2Local.from_rationals(p, [random.randrange(27) for _ in range(4)], M)
        if k.det.is_zero or k.det.v != 0:
            continue
        b = support_profile(mv31, k)
        y = LocalElement(p, -2, (b + 3 * random.randrange(3)) % 9, M)
        x = LocalElement.from_rational(
            p, Fraction(random.randint(-15, 15), p ** random.randint(0, 2)), M)
        g = n_mat(x) * a_mat(y) * k
        wc = whittaker_closed(mv31, g)
        assert wc.in_support
        ratios.append(whittaker_oracle(mv31, g, level=3) / wc.to_complex())
    r0 = ratios[0]
    dev = max(abs(r / r0 - 1) for r in ratios)
    # support profile: exactly one unit class for every k in K mod K(1)
    profile_ok = True
    count = 0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 0:
                        continue
                    count += 1
                    k = Mat2Local.from_rationals(3, (a, b, c, d), 12)
                    cls = support_profile(mv31, k)
                    profile_ok = profile_ok and whittaker_support_scan(mv31, k) == [cls]
    ok = dev < RATIO_TOL and profile_ok and count == 48
    _line(4, ok, f"{len(ratios)} samples, max ratio deviation {dev:.2e}; "
                 f"single support class on all {count} cosets")
    assert ok


def test_criterion_5_progression_support(mv31, mv51):
    ok = True
    for mvs in ([mv31], [mv51], [mv31, mv51]):
        ram = RamifiedData.build(mvs)
        phiN = 1
        for mv in mvs:
            phiN *= (mv.p - 1) * mv.p ** (mv.n - 1)
        for m in range(1, ram.N**2 + 1):
            expect = math.sqrt(phiN) if m % ram.N == ram.b else 0.0
            ok = ok and abs(abs(lambda_prime(m, ram)) - expect) < PROGRESSION_TOL
    _line(5, ok, "exhaustive m mod N^2 for N in {3, 5, 15}")
    assert ok


def test_criterion_6_que_normalization():
    from minvec.que import distinguished, que_period, vol_KT
    ok = True
    for p in (3, 5, 7):
        for n in (1, 2):
            rep = que_period(TorusSpec(p, n))
            ok = ok and Fraction(p ** (2 * n)) * vol_KT(p, n) == Fraction(p, p - 1)
            ok = ok and rep.normalized == pytest.approx(p / (p - 1), abs=0)
            for a3 in (0, 1, 2):
                ok = ok and distinguished(a3, n) == (a3 % 2 == 0)
    _line(6, ok, "q^{2n} H = q/(q-1) exact over {3,5,7} x {1,2}; parity matches")
    assert ok


def test_criterion_7_supnorm_exponent(mv31, mv51):
    t0 = time.monotonic()
    src = CoefficientSource.sato_tate(seed=0)
    reports = {}
    sup_ok = True
    for k in (12, 20, 40):
        arch = ArchParams("holomorphic", k=k)
        for N in (1, 3, 5):
            if N == 1:
                ram = RamifiedData.unramified()
            elif N == 3:
                ram = RamifiedData.build([mv31])
            else:
                ram = RamifiedData.build([mv51])
            rep = scan_supnorm(ram, src, arch)
            reports[(k, N)] = rep
            sup_ok = sup_ok and rep.sup >= rep.witness
    wr = [rep.witness_ratio for rep in reports.values()]
    spread = max(wr) / min(wr)
    slopes = {}
    for k in (12, 20, 40):
        logC = [math.log(reports[(k, N)].conductor) for N in (3, 5)]
        logS = [math.log(reports[(k, N)].sup) for N in (3, 5)]
        # include the unramified point through the k-dependent intercept
        logC = [0.0] + logC
        logS = [math.log(reports[(k, 1)].sup)] + logS
        slopes[k] = float(np.polyfit(logC, logS, 1)[0])
    elapsed = time.monotonic() - t0
    slope_ok = all(abs(s - 0.125) <= SLOPE_WINDOW for s in slopes.values())
    ok = (spread <= WITNESS_SPREAD_MAX and slope_ok and sup_ok
          and elapsed < SCAN_BUDGET)
    _line(7, ok, f"witness spread {spread:.3f} <= 20, slopes "
                 f"{ {k: round(s, 3) for k, s in slopes.items()} }, {elapsed:.1f}s")
    assert ok


def test_criterion_7_weight_exponent(mv51):
    """The weight half of C^(1/8) k^(1/4): at fixed level the slope of log sup
    against log k is 1/4, for N = 1, 5 and 9 (depth 2, C = 3^8)."""
    spec32 = TorusSpec(3, 2)
    mv32 = MinimalVectorSpec.build(spec32, enumerate_theta(spec32)[0])
    rams = {1: RamifiedData.unramified(), 5: RamifiedData.build([mv51]),
            9: RamifiedData.build([mv32])}
    weights = (12, 48, 192, 480)
    slopes, ratios, sup_ok = {}, [], True
    for kind, src in (("sato-tate", CoefficientSource.sato_tate(seed=0)),
                      ("all-ones", CoefficientSource.all_ones())):
        for N, ram in rams.items():
            sups = []
            for k in weights:
                rep = scan_supnorm(ram, src, ArchParams("holomorphic", k=k), rows_per_decade=64)
                sup_ok = sup_ok and rep.sup >= rep.witness
                ratios.append(rep.witness_ratio)
                sups.append(rep.sup)
            slopes[(kind, N)] = float(np.polyfit(np.log(weights), np.log(sups), 1)[0])
    spread = max(ratios) / min(ratios)
    slope_ok = all(abs(s - 0.25) <= SLOPE_WINDOW for s in slopes.values())
    ok = spread <= WITNESS_SPREAD_MAX and slope_ok and sup_ok
    _line(7, ok, f"weight slopes { {key: round(s, 3) for key, s in slopes.items()} }, "
                 f"witness spread {spread:.3f} <= 20")
    assert ok


def _asymptotic_K(t: float, x: float) -> float:
    # large-x expansion with the first two corrections; nu^2 = (it)^2 = -t^2
    nu2 = -t * t
    a1 = 4 * nu2 - 1
    a2 = (4 * nu2 - 1) * (4 * nu2 - 9)
    return math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (
        1 + a1 / (8 * x) + a2 / (2 * (8 * x) ** 2))


def test_criterion_8_numerics(mv31):
    ok = True
    for t in (0.0, 0.5, 1.0, 2.0):
        for x in (0.5, 1.0, 5.0, 20.0):
            v1 = bessel_K_imag(t, x, rel_tol=1e-12)
            v2 = bessel_K_imag(t, x, rel_tol=1e-14)
            ok = ok and abs(v2 - v1) <= BESSEL_REFINE_TOL * abs(v2)
        ratio = bessel_K_imag(t, 40.0) / _asymptotic_K(t, 40.0)
        ok = ok and abs(ratio - 1.0) < BESSEL_ASYMP_TOL
    arch = ArchParams("holomorphic", k=12)
    src = CoefficientSource.all_ones()
    for ram in (RamifiedData.unramified(), RamifiedData.build([mv31])):
        v = evaluate_phi(0.0, 1.0, ram, src, arch, check_stability=True)
        ok = ok and abs(v) > 0
    _line(8, ok, "Bessel refinement < 1e-10, asymptotic < 1e-3 at x = 40, "
                 "cutoff doubling stable < 1e-8")
    assert ok


def _member_pool(N: int, D: int, size: int = 30):
    rnd = random.Random(N)
    pool = [np.array([[1, N], [0, 1]]), np.array([[1, 0], [N, 1]])]
    while len(pool) < size:
        a, b, c, d = (rnd.randint(-12, 12) for _ in range(4))
        if a * d - b * c != 1:
            continue
        if (a - d) % N or (c + b * D) % N:
            continue
        pool.append(np.array([[a, b], [c, d]]))
    return pool


def test_criterion_9_classical_translation(mv31, mv51):
    from minvec.global_whittaker import build_D
    ok = True
    for mv in (mv31, mv51):
        N = mv.p**mv.n
        mvs = [mv]
        pool = _member_pool(N, build_D(mvs))
        rnd = random.Random(1)
        for _ in range(1000):
            g1 = rnd.choice(pool) @ rnd.choice(pool)
            g2 = rnd.choice(pool) @ rnd.choice(pool)
            m1, c1 = gamma_TD(g1, mvs)
            m2, c2 = gamma_TD(g2, mvs)
            m3, c3 = gamma_TD(g1 @ g2, mvs)
            ok = ok and m1 and m2 and m3 and (c1 * c2).r == c3.r
        N2 = N * N
        for g in ([[1, N2], [0, 1]], [[1, 0], [N2, 1]]):
            member, chi = gamma_TD(g, mvs)
            ok = ok and member and chi.is_one
    _line(9, ok, "multiplicative on 1000 sampled pairs, trivial on "
                 "principal-congruence generators, N in {3, 5}")
    assert ok
