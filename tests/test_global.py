import math
import random

import numpy as np
import pytest

from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.errors import ConfigError, NumericalError
from minvec.global_whittaker import (X_STEPS_PER_PERIOD, Y_MIN, ArchParams,
                                     CoefficientSource, RamifiedData, _cutoff,
                                     _ramanujan_bound, _row_coefficients,
                                     _signed_progression, build_D, c_infty,
                                     evaluate_phi, gamma_TD, kappa,
                                     kernel_peak_ratio, lambda_prime,
                                     lambda_prime_fast, log_c_infty, log_kappa,
                                     scan_supnorm)
from minvec.matgroups import Mat2Local, TorusSpec


@pytest.fixture(scope="module")
def mv31():
    spec = TorusSpec(3, 1)
    return MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])


@pytest.fixture(scope="module")
def mv51():
    spec = TorusSpec(5, 1)
    return MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])


# the minimal vectors (theta index 0) behind each level N of the scan tests
LEVEL_PRIMES = {1: [], 3: [(3, 1)], 15: [(3, 1), (5, 1)], 21: [(3, 1), (7, 1)]}


@pytest.fixture(scope="module")
def rams():
    mvs = {}
    for p, n in {pn for pns in LEVEL_PRIMES.values() for pn in pns}:
        spec = TorusSpec(p, n)
        mvs[(p, n)] = MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])
    return {N: RamifiedData.build([mvs[pn] for pn in pns]) if pns else RamifiedData.unramified()
            for N, pns in LEVEL_PRIMES.items()}


# -- archimedean layer --------------------------------------------------------

def test_arch_params_validation():
    with pytest.raises(ConfigError):
        ArchParams("holomorphic", k=11)
    with pytest.raises(ConfigError):
        ArchParams("maass")
    assert ArchParams("holomorphic", k=12).T == 12
    assert ArchParams("maass", t=3.0).T == 4.0


def test_kappa_holomorphic_peak_and_decay():
    arch = ArchParams("holomorphic", k=12)
    ypk = 12 / (4 * math.pi)
    assert kappa(ypk, arch) > 0
    ys = np.linspace(ypk, 10 * ypk, 50)
    vals = [kappa(float(y), arch) for y in ys]
    assert all(a >= b for a, b in zip(vals, vals[1:]))  # monotone past the peak


@pytest.mark.parametrize("k", [2, 12, 40, 120])
def test_kappa_array_route_matches_scalar(k):
    arch = ArchParams("holomorphic", k=k)
    ys = np.logspace(-3, 3, 241)
    scalar = np.array([kappa(float(y), arch) for y in ys])
    np.testing.assert_allclose(kappa(ys, arch), scalar, rtol=1e-13, atol=0)
    assert not kappa(ys, arch, sign=-1).any()
    signs = np.where(np.arange(len(ys)) % 2 == 0, 1, -1)
    mixed = kappa(ys, arch, sign=signs)
    assert not mixed[signs < 0].any()
    np.testing.assert_allclose(mixed[signs > 0], scalar[signs > 0], rtol=1e-13, atol=0)


def test_kappa_array_route_rejects_nonpositive_y():
    with pytest.raises(ValueError):
        kappa(np.array([1.0, 0.0]), ArchParams("holomorphic", k=12))
    with pytest.raises(ValueError):
        kappa(np.array([1.0, 2.0]), ArchParams("maass", t=1.0))


def test_kappa_maass_specialization():
    from minvec.bessel import bessel_K_imag
    arch = ArchParams("maass", t=0.0)
    y = 0.7
    assert kappa(y, arch) == pytest.approx(math.sqrt(y) * bessel_K_imag(0.0, 2 * math.pi * y))


def test_c_infty_holomorphic_exact():
    assert math.log(c_infty(ArchParams("holomorphic", k=12))) == pytest.approx(
        0.5 * math.lgamma(12) - 6 * math.log(4 * math.pi))
    assert c_infty(ArchParams("holomorphic", k=2)) > 0


def test_c_infty_maass_sanity():
    c = c_infty(ArchParams("maass", t=1.0))
    assert c > 0.05 * math.exp(-math.pi / 2)


def test_kernel_peak_tracks_h_value():
    for k in (12, 20, 40):
        arch = ArchParams("holomorphic", k=k)
        ratio = kernel_peak_ratio(arch) / arch.h_value
        assert 0.3 < ratio < 3.0


# -- coefficients --------------------------------------------------------------

def test_all_ones_source():
    src = CoefficientSource.all_ones()
    assert src.value(10) == 1.0
    assert src.check_ramanujan(100)


def test_sato_tate_hecke_and_ramanujan():
    src = CoefficientSource.sato_tate(seed=7)
    assert src.check_ramanujan(300)
    # Hecke recursion at p^2: lambda(p)^2 - 1
    for p in (2, 3, 7):
        assert src.value(p * p) == pytest.approx(src.value(p) ** 2 - 1)
    # multiplicativity
    assert src.value(6) == pytest.approx(src.value(2) * src.value(3))
    # sieve agrees with direct evaluation
    vals = src.values_upto(60)
    for m in range(1, 61):
        assert vals[m] == pytest.approx(src.value(m))


def test_sato_tate_deterministic():
    a = CoefficientSource.sato_tate(seed=3).values_upto(50)
    b = CoefficientSource.sato_tate(seed=3).values_upto(50)
    assert np.array_equal(a, b)


def test_file_source_roundtrip(tmp_path):
    path = tmp_path / "coeffs.tsv"
    src0 = CoefficientSource.sato_tate(seed=1)
    with path.open("w") as fh:
        fh.write("# delta 0.0\n")
        for m in range(1, 40):
            fh.write(f"{m}\t{src0.value(m)!r}\n")
    src = CoefficientSource.from_file(str(path))
    assert src.value(12) == pytest.approx(src0.value(12))


def test_file_source_rejects_ramanujan_violation(tmp_path):
    path = tmp_path / "bad.tsv"
    for record in ("6\t9.5", "0\t0.0", "-3\t1.0"):
        path.write_text(f"# delta 0.0\n{record}\n")
        with pytest.raises(ConfigError):
            CoefficientSource.from_file(str(path))


def test_ramanujan_bound_divisor_count():
    top = 5000
    d = [0] * (top + 1)
    for k in range(1, top + 1):
        for m in range(k, top + 1, k):
            d[m] += 1
    for m in range(1, top + 1):
        assert _ramanujan_bound(m, 0.0) == d[m], m
    assert _ramanujan_bound(12, 0.5) == 6 * 12**0.5


def _per_m_sieve(src, limit):
    """values_upto as a per-m recursion lambda(m) = lambda(p^e) lambda(m / p^e),
    p the smallest prime of m: the reference for the prime-power sieve, which
    must give the same bits."""
    if src.kind == "all-ones":
        return np.ones(limit + 1)
    out = np.ones(limit + 1)
    if src.kind == "file":
        for m in range(1, limit + 1):
            out[m] = src.value(m)
        return out
    smallest = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if smallest[p] == 0:
            smallest[p::p] = np.where(smallest[p::p] == 0, p, smallest[p::p])
    for m in range(2, limit + 1):
        p = int(smallest[m])
        e, r = 0, m
        while r % p == 0:
            r //= p
            e += 1
        out[m] = src._lambda_ppow(p, e) * out[r]
    return out


@pytest.mark.parametrize("seed", range(4))
def test_values_upto_matches_per_m_sieve(seed):
    for limit in (1, 2, 60, 13729, 20000):
        got = CoefficientSource.sato_tate(seed=seed).values_upto(limit)
        assert np.array_equal(got, _per_m_sieve(CoefficientSource.sato_tate(seed=seed), limit))


def test_values_upto_matches_per_m_sieve_other_kinds(tmp_path):
    src = CoefficientSource.all_ones()
    assert np.array_equal(src.values_upto(500), _per_m_sieve(src, 500))
    path = tmp_path / "coeffs.tsv"
    st = CoefficientSource.sato_tate(seed=2)
    path.write_text("".join(f"{m}\t{st.value(m)!r}\n" for m in range(1, 61)))
    src = CoefficientSource.from_file(str(path))
    assert np.array_equal(src.values_upto(60), _per_m_sieve(src, 60))


# -- ramified data and lambda' -------------------------------------------------

def test_lambda_prime_law_exhaustive(mv31, mv51):
    for mvs in ([mv31], [mv51], [mv31, mv51]):
        ram = RamifiedData.build(mvs)
        phiN = 1
        for mv in mvs:
            phiN *= (mv.p - 1) * mv.p ** (mv.n - 1)
        for m in range(1, ram.N**2 + 1):
            lp = lambda_prime(m, ram)
            expect = math.sqrt(phiN) if m % ram.N == ram.b else 0.0
            assert abs(abs(lp) - expect) < 1e-12


def test_lambda_prime_crt_consistency(mv31, mv51):
    ram3 = RamifiedData.build([mv31])
    ram5 = RamifiedData.build([mv51])
    ram15 = RamifiedData.build([mv31, mv51])
    # local residues pick up the square of the complementary modulus
    assert ram15.b % 3 == ram3.b * pow(5, 2, 3) % 3
    assert ram15.b % 5 == ram5.b * pow(3, 2, 5) % 5


def test_lambda_prime_fast_matches_exact(mv31):
    k = Mat2Local.from_rationals(3, (2, 1, 1, 1), mv31.torus.precision + 2)
    ram = RamifiedData.build([mv31], [k])
    ms = np.concatenate([np.arange(-40, 0), np.arange(1, 41)])
    fast = lambda_prime_fast(ms, ram)
    slow = np.array([lambda_prime(int(m), ram) for m in ms])
    assert np.abs(fast - slow).max() < 1e-12


# -- evaluation ----------------------------------------------------------------

def test_evaluate_phi_zero_source(mv31):
    ram = RamifiedData.build([mv31])
    src = CoefficientSource("all-ones", 0.0)
    v = evaluate_phi(0.2, 1.0, ram, src, ArchParams("holomorphic", k=12))
    z = evaluate_phi(0.2, 1.0, ram, CoefficientSource("file", 0.0,
                     explicit={m: 0.0 for m in range(1, 10**4)}),
                     ArchParams("holomorphic", k=12))
    assert z == 0.0 and v != 0.0


def test_evaluate_phi_real_at_x0_N1():
    v = evaluate_phi(0.0, 1.0, RamifiedData.unramified(),
                     CoefficientSource.all_ones(), ArchParams("holomorphic", k=12))
    assert abs(v.imag) < 1e-14 and v.real > 0


def test_evaluate_phi_translation_invariance(mv31):
    ram = RamifiedData.build([mv31])
    src = CoefficientSource.sato_tate(seed=2)
    arch = ArchParams("holomorphic", k=12)
    a = evaluate_phi(0.37, 1.1, ram, src, arch)
    b = evaluate_phi(0.37 + 9.0, 1.1, ram, src, arch)  # period N^2 = 9
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_evaluate_phi_cutoff_stability(mv31):
    ram = RamifiedData.build([mv31])
    v = evaluate_phi(0.0, 1.0, ram, CoefficientSource.all_ones(),
                     ArchParams("holomorphic", k=12), check_stability=True)
    assert abs(v) > 0


def test_evaluate_phi_too_small_cutoff_is_numerical_error():
    with pytest.raises(NumericalError, match="tail instability"):
        evaluate_phi(0.1, 1.0, RamifiedData.unramified(), CoefficientSource.all_ones(),
                     ArchParams("holomorphic", k=12), cutoff=2, check_stability=True)


def test_cutoff_past_the_cap_raises():
    # the tail at y = 3e-7 needs more than 10^7 terms
    with pytest.raises(NumericalError, match="tail cutoff"):
        evaluate_phi(0.1, 3e-7, RamifiedData.unramified(), CoefficientSource.all_ones(),
                     ArchParams("holomorphic", k=12))


def test_evaluate_phi_maass_runs():
    v = evaluate_phi(0.1, 1.3, RamifiedData.unramified(),
                     CoefficientSource.all_ones(delta=7 / 64),
                     ArchParams("maass", t=1.0))
    assert np.isfinite(abs(v))


# -- scan -----------------------------------------------------------------------

def test_scan_basic_properties(mv31):
    arch = ArchParams("holomorphic", k=12)
    rep = scan_supnorm(RamifiedData.unramified(), CoefficientSource.all_ones(),
                       arch, keep_rows=True)
    assert rep.sup >= rep.witness
    # argmax y near the kernel peak scale k/(4 pi)
    assert rep.argmax[1] < 4 * 12 / (4 * math.pi)
    assert rep.conductor == 1
    assert len(rep.rows) > 100


def test_scan_grid_value_matches_pointwise(mv31):
    ram = RamifiedData.build([mv31])
    src = CoefficientSource.sato_tate(seed=5)
    arch = ArchParams("holomorphic", k=12)
    rep = scan_supnorm(ram, src, arch)
    x, y = rep.argmax
    direct = evaluate_phi(x, y, ram, src, arch,
                          cutoff=10 * max(8, int(12 * 9 / y)))
    assert abs(direct) == pytest.approx(rep.sup, rel=1e-6)


@pytest.mark.parametrize("N", [15, 21])
def test_phi_modulus_has_period_N(rams, N):
    # the terms sit on m = b (mod N), so x -> x + N multiplies phi by e(b/N)
    ram = rams[N]
    src = CoefficientSource.sato_tate(seed=4)
    arch = ArchParams("holomorphic", k=12)
    for x, y in [(0.3, 1.0), (2.7, 1.5), (7.1, 3.0), (11.0, 0.9)]:
        a = abs(evaluate_phi(x, y, ram, src, arch))
        b = abs(evaluate_phi(x + N, y, ram, src, arch))
        assert b == pytest.approx(a, rel=1e-12)


def test_signed_progression_matches_filter(mv31, mv51):
    for ram in (RamifiedData.unramified(), RamifiedData.build([mv31]),
                RamifiedData.build([mv51]), RamifiedData.build([mv31, mv51]),
                RamifiedData(15, 0, 1.0, [])):
        for R in (1, 2, 14, 15, 16, 100):
            for holo in (True, False):
                all_m = np.arange(1, R + 1) if holo else np.arange(-R, R + 1)
                expect = all_m[(all_m != 0) & (all_m % ram.N == ram.b % ram.N)]
                assert np.array_equal(_signed_progression(ram, R, holo), expect)


def _full_length_row(ram, arch, y, lam_all):
    """One scan row by the full-length transform: every term added into a
    length-X array, X = X_STEPS_PER_PERIOD N^2 2^i > 2R + 1, and one inverse
    FFT of length X.  Returns (row sup, x of its first maximum, terms, X)."""
    N2 = ram.N**2
    lc = log_c_infty(arch)
    R = _cutoff(ram.N, arch, y, lc)
    ms = _signed_progression(ram, R, arch.case == "holomorphic")
    c = _row_coefficients(ms, y, ram, arch, lam_all, lc)
    X = X_STEPS_PER_PERIOD * N2
    while X <= 2 * R + 1:
        X *= 2
    F = np.zeros(X, dtype=complex)
    np.add.at(F, ms % X, c)
    av = np.abs(np.fft.ifft(F) * X)
    jx = int(np.argmax(av))
    return float(av[jx]), jx * N2 / X, len(ms), X


def _source(kind, seed):
    if kind == "sato-tate":
        return CoefficientSource.sato_tate(seed=seed)
    return CoefficientSource.all_ones()


@pytest.mark.parametrize("N", [3, 15, 21])
@pytest.mark.parametrize("kind", ["sato-tate", "all-ones"])
def test_scan_rows_match_full_length_transform(rams, N, kind):
    ram = rams[N]
    arch = ArchParams("holomorphic", k=40)
    rep = scan_supnorm(ram, _source(kind, 3), arch, rows_per_decade=64, keep_rows=True)
    lam_all = _source(kind, 3).values_upto(_cutoff(N, arch, Y_MIN, log_c_infty(arch)))
    ref_sup, ref_argmax = -1.0, None
    terms = fft_points = 0
    for y, row_sup, _ in rep.rows:
        sup, x, n_terms, X = _full_length_row(ram, arch, y, lam_all)
        if sup > 1e-290:
            assert row_sup == pytest.approx(sup, rel=1e-12)
        if sup > ref_sup:
            ref_sup, ref_argmax = sup, (x, y)
        terms += n_terms
        fft_points += X // N
    assert (rep.terms, rep.fft_points) == (terms, fft_points)
    assert rep.sup == pytest.approx(ref_sup, rel=1e-12)
    if rep.argmax != ref_argmax:
        # a tie within rounding: |phi| at the new argmax is the reference sup
        direct = abs(evaluate_phi(*rep.argmax, ram, _source(kind, 3), arch))
        assert direct == pytest.approx(ref_sup, rel=1e-12)


@pytest.mark.parametrize("N", [1, 3, 15, 21])
@pytest.mark.parametrize("k", [12, 120])
@pytest.mark.parametrize("kind", ["sato-tate", "all-ones"])
def test_scan_row_sup_bounds_row_witness(rams, N, k, kind):
    # discrete Parseval: the largest |G| is at least the largest |c_m|
    rep = scan_supnorm(rams[N], _source(kind, 1), ArchParams("holomorphic", k=k),
                       rows_per_decade=64, keep_rows=True)
    assert rep.rows
    assert all(row_sup >= row_witness for _, row_sup, row_witness in rep.rows)
    assert rep.sup >= rep.witness > 0


def test_scan_progression_support_instrumented(mv31):
    # nonzero terms are exactly m = b mod N
    ram = RamifiedData.build([mv31])
    ms = np.arange(1, 200)
    lp = lambda_prime_fast(ms, ram)
    nz = ms[np.abs(lp) > 0]
    assert np.all(nz % 3 == ram.b)
    assert len(nz) == len(ms[ms % 3 == ram.b])


# -- classical congruence group -------------------------------------------------

def _member_pool(N, D, size=25):
    random.seed(N)
    pool = [np.array([[1, N], [0, 1]]), np.array([[1, 0], [N, 1]])]
    tries = 0
    while len(pool) < size and tries < 10**6:
        tries += 1
        a = random.randint(-12, 12)
        b = random.randint(-12, 12)
        c = random.randint(-12, 12)
        d = random.randint(-12, 12)
        if a * d - b * c != 1:
            continue
        if (a - d) % N or (c + b * D) % N:
            continue
        pool.append(np.array([[a, b], [c, d]]))
    return pool


@pytest.mark.parametrize("pn", [(3, 1), (5, 1)])
def test_gamma_TD_multiplicative_and_trivial_on_principal(pn):
    p, n = pn
    spec = TorusSpec(p, n)
    mvs = [MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])]
    N = p**n
    D = build_D(mvs)
    member, chi = gamma_TD(np.eye(2, dtype=int), mvs)
    assert member and chi.is_one
    N2 = N * N
    for g in ([[1, N2], [0, 1]], [[1, 0], [N2, 1]]):
        member, chi = gamma_TD(g, mvs)
        assert member and chi.is_one
    pool = _member_pool(N, D)
    random.seed(0)
    for _ in range(150):
        g1 = random.choice(pool) @ random.choice(pool)
        g2 = random.choice(pool) @ random.choice(pool)
        m1, c1 = gamma_TD(g1, mvs)
        m2, c2 = gamma_TD(g2, mvs)
        m3, c3 = gamma_TD(g1 @ g2, mvs)
        assert m1 and m2 and m3
        assert (c1 * c2).r == c3.r


def test_gamma_TD_nonmember(mv31):
    member, chi = gamma_TD([[1, 1], [0, 1]], [mv31])
    assert not member and chi is None


def test_gamma_TD_requires_det_one(mv31):
    with pytest.raises(ConfigError):
        gamma_TD([[2, 0], [0, 1]], [mv31])
