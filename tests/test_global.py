import math
import random
import re

import numpy as np
import pytest

from minvec.bessel import bessel_K_imag
from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.errors import ConfigError, NoSolution, NumericalError
from minvec.global_whittaker import (PREF, X_STEPS_PER_PERIOD, Y_MIN, ArchParams,
                                     CoefficientSource, RamifiedData, ScanReport,
                                     _bessel_support_bound, _cutoff,
                                     _progression_factors, _ramanujan_bound,
                                     _row_coefficients, _signed_progression,
                                     build_D, c_infty, evaluate_phi, gamma_TD,
                                     kappa, kernel_peak_ratio, lambda_prime,
                                     lambda_prime_fast, log_c_infty, log_kappa,
                                     scan_supnorm)
from minvec.matgroups import Mat2Local, TorusSpec
from test_bessel import reference_row


@pytest.fixture(scope="module")
def mv31():
    spec = TorusSpec(3, 1)
    return MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])


@pytest.fixture(scope="module")
def mv51():
    spec = TorusSpec(5, 1)
    return MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])


# the minimal vectors (theta index 0) behind each level N of the scan tests
LEVEL_PRIMES = {1: [], 3: [(3, 1)], 5: [(5, 1)], 15: [(3, 1), (5, 1)], 21: [(3, 1), (7, 1)]}


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
    vals = kappa(np.linspace(ypk, 10 * ypk, 50), arch)
    assert vals[0] > 0
    assert np.all(vals[:-1] >= vals[1:])  # monotone past the peak


@pytest.mark.parametrize("arch", [ArchParams("holomorphic", k=k) for k in (2, 12, 40, 120, 600)]
                         + [ArchParams("maass", t=1.0)],
                         ids=lambda a: str(a.k) if a.case == "holomorphic" else f"maass-{a.t:g}")
def test_kappa_array_route_matches_scalar(arch):
    ys = np.logspace(-3, 3, 241)
    scalar = np.array([math.exp(log_kappa(float(y), arch)) for y in ys])
    # log_kappa is log |kappa|: the Maass kernel changes sign as y -> 0
    np.testing.assert_allclose(np.abs(kappa(ys, arch)), scalar, rtol=1e-13, atol=0)


def test_kappa_array_route_rejects_nonpositive_y():
    for arch in (ArchParams("holomorphic", k=12), ArchParams("maass", t=1.0)):
        with pytest.raises(ValueError):
            kappa(np.array([1.0, 0.0]), arch)


def test_kappa_maass_specialization():
    arch = ArchParams("maass", t=0.0)
    y = 0.7
    assert kappa(np.array([y]), arch)[0] == pytest.approx(
        math.sqrt(y) * bessel_K_imag(0.0, 2 * math.pi * y) / c_infty(arch))


def test_c_infty_holomorphic_exact():
    assert math.log(c_infty(ArchParams("holomorphic", k=12))) == pytest.approx(
        0.5 * math.lgamma(12) - 6 * math.log(4 * math.pi))
    assert c_infty(ArchParams("holomorphic", k=2)) > 0


def test_c_infty_holomorphic_overflow_is_numerical_error():
    assert c_infty(ArchParams("holomorphic", k=520)) < math.inf
    for k in (540, 600, 2000):
        with pytest.raises(NumericalError, match=f"k = {k} overflows"):
            c_infty(ArchParams("holomorphic", k=k))
        assert math.isfinite(log_c_infty(ArchParams("holomorphic", k=k)))


@pytest.mark.parametrize("t", [0.5, 2.0, 5.0, 10.0, 20.0])
def test_c_infty_maass_matches_mpmath(t):
    # c_inf^2 = 2 int_0^inf kappa(y)^2 dy/y = 2 int_0^inf K_{it}(2 pi y)^2 dy,
    # by quadrature at a working precision that survives the e^{-pi t} cancellation
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50 if t > 10 else 30):
        integral = mpmath.quad(lambda y: mpmath.besselk(1j * t, 2 * mpmath.pi * y).real ** 2,
                               [0, 0.25, 0.5, 1, 2, 4, mpmath.inf])
        ref = float(mpmath.sqrt(2 * integral))
    arch = ArchParams("maass", t=t)
    assert c_infty(arch) == pytest.approx(ref, rel=1e-12)
    assert log_c_infty(arch) == math.log(c_infty(arch))


def test_c_infty_maass_underflow_raises_without_bessel(monkeypatch):
    def no_bessel(t, x):
        raise AssertionError("c_infty must not call the Bessel quadrature")
    monkeypatch.setattr("minvec.global_whittaker.bessel_K_imag", no_bessel)
    for t in (500.0, -500.0, math.inf):
        with pytest.raises(NumericalError, match=f"t = {t:g}"):
            c_infty(ArchParams("maass", t=t))
        with pytest.raises(NumericalError):
            log_c_infty(ArchParams("maass", t=t))
    assert c_infty(ArchParams("maass", t=400.0)) > 0


@pytest.mark.parametrize("t", [2.0, 5.0, 10.0])
def test_maass_kappa_is_one_row_call(monkeypatch, t):
    # the Maass kernel takes its whole array through bessel_K_imag_row, never
    # one scalar quadrature per y, and stays bit-identical to that loop
    arch = ArchParams("maass", t=t)
    ys = np.exp(np.linspace(math.log(Y_MIN), math.log(12.0), 50))
    ys_peak = np.exp(np.linspace(math.log(1e-3), math.log(_bessel_support_bound(t) + 1), 400))

    def no_scalar(*args):
        raise AssertionError("kappa called the scalar Bessel quadrature")
    monkeypatch.setattr("minvec.global_whittaker.bessel_K_imag", no_scalar)
    monkeypatch.setattr("minvec.bessel.bessel_K_imag", no_scalar)
    expected = np.sqrt(ys) * reference_row(t, 2.0 * math.pi * ys) / c_infty(arch)
    assert np.array_equal(kappa(ys, arch), expected)
    try:
        peak = float(np.max(np.abs(np.sqrt(ys_peak) * reference_row(t, 2.0 * math.pi * ys_peak)
                                   / c_infty(arch))))
    except NoSolution as err:
        # K_{10i}(2 pi 10^-3) is below the quadrature's reach
        with pytest.raises(NoSolution, match=re.escape(str(err))):
            kernel_peak_ratio(arch)
    else:
        assert kernel_peak_ratio(arch) == peak


def test_kernel_peak_tracks_h_value():
    for k in (12, 20, 40, 600, 2000):
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


def reference_lambda_p(seed, p):
    """The Sato-Tate lambda(p) by a one-prime bisection in math: the reference
    for CoefficientSource's array draws, which must give the same bits."""
    u = np.random.default_rng(seed * 1_000_003 + p).uniform()
    lo, hi = 0.0, math.pi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cdf = (mid - 0.5 * math.sin(2 * mid)) / math.pi
        if cdf < u:
            lo = mid
        else:
            hi = mid
    return 2.0 * math.cos(0.5 * (lo + hi))


def _primes_upto(limit):
    return [p for p in range(2, limit + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _assert_draws_match_reference(src, primes):
    assert sorted(src.prime_values) == primes
    bad = [p for p in primes if src.prime_values[p] != reference_lambda_p(src.seed, p)]
    assert not bad, f"{len(bad)} draws differ from the scalar bisection, first at p = {bad[0]}"


@pytest.mark.parametrize("seed", range(4))
def test_sato_tate_draws_match_scalar_bisection(seed):
    src = CoefficientSource.sato_tate(seed=seed)
    src.values_upto(10**5)
    _assert_draws_match_reference(src, _primes_upto(10**5))


def test_sato_tate_draws_extend_a_partial_cache():
    # value(m) draws one prime at a time; values_upto then draws only the rest
    src = CoefficientSource.sato_tate(seed=1)
    for m in (2 * 3 * 97, 499, 7**3):
        src.value(m)
    assert sorted(src.prime_values) == [2, 3, 7, 97, 499]
    _assert_draws_match_reference(src, [2, 3, 7, 97, 499])
    got = src.values_upto(500)
    _assert_draws_match_reference(src, _primes_upto(500))
    assert np.array_equal(got, CoefficientSource.sato_tate(seed=1).values_upto(500))


def test_sato_tate_draws_at_the_smallest_limits():
    src = CoefficientSource.sato_tate(seed=2)
    assert np.array_equal(src.values_upto(1), np.ones(2)) and src.prime_values == {}
    src.value(2)
    for limit in (1, 2):
        # no prime <= limit is left to draw
        got = src.values_upto(limit)
        assert np.array_equal(got, CoefficientSource.sato_tate(seed=2).values_upto(limit))
        _assert_draws_match_reference(src, [2])
    assert src.values_upto(2)[2] == reference_lambda_p(2, 2)


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


def test_evaluate_phi_cancellation_below_rounding_floor(rams):
    # at k = 120 the 629 terms, sum |c_m| = 13.8, cancel to 1e-14 at this
    # point: rounding noise, below the floor eps sqrt(#terms) sum |c_m| =
    # 7.7e-14; at k = 40 the same point gives 2.9e-7, far above its floor
    ram, src = rams[21], CoefficientSource.all_ones()
    with pytest.raises(NumericalError, match="rounding floor"):
        evaluate_phi(1.9, 0.9, ram, src, ArchParams("holomorphic", k=120))
    assert abs(evaluate_phi(1.9, 0.9, ram, src, ArchParams("holomorphic", k=40))) > 1e-8


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
    R = _cutoff(ram.N, arch, y)
    ms = _signed_progression(ram, R, arch.case == "holomorphic")
    c = _row_coefficients(ms, y, ram, arch, lam_all, *_progression_factors(ms, ram))
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
    lam_all = _source(kind, 3).values_upto(_cutoff(N, arch, Y_MIN))
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


def reference_scan(ram, coeffs, arch, rows_per_decade):
    """scan_supnorm with keep_rows, assembling every row from scratch: lambda'
    and sqrt|m| on the row's own progression, the coefficients as
    PREF lambda lambda' kappa / sqrt|m| in that order.  The reference for the
    per-scan factors, which must give the same bits."""
    N = ram.N
    N2 = N * N
    y_max = max(2.0, N2 * arch.T)
    n_rows = max(2, int(rows_per_decade * math.log10(y_max / Y_MIN)) + 1)
    ys = np.exp(np.linspace(math.log(Y_MIN), math.log(y_max), n_rows))
    holo = arch.case == "holomorphic"
    base_X = X_STEPS_PER_PERIOD * max(N2, 1)
    lam_all = coeffs.values_upto(_cutoff(N, arch, Y_MIN))
    sup, argmax = -1.0, (0.0, ys[0])
    witness, witness_m = -1.0, 0
    rows = []
    terms = fft_points = 0
    for yv in ys:
        R = _cutoff(N, arch, float(yv))
        ms = _signed_progression(ram, R, holo)
        if len(ms) == 0:
            continue
        am = np.abs(ms)
        lam = lam_all[am]
        kap = kappa(am * yv / N2, arch)
        c = PREF * lam * lambda_prime_fast(ms, ram) * kap / np.sqrt(am)
        mags = np.abs(c)
        j = int(np.argmax(mags))
        if mags[j] > witness:
            witness, witness_m = float(mags[j]), int(ms[j])
        X = base_X
        while X <= 2 * R + 1:
            X *= 2
        L = X // N
        F = np.zeros(L, dtype=complex)
        F[(ms // N) % L] = c
        av = np.abs(np.fft.ifft(F, norm="forward"))
        jx = int(np.argmax(av))
        row_sup = float(av[jx])
        if row_sup > sup:
            sup, argmax = row_sup, (jx * N2 / X, float(yv))
        rows.append((float(yv), row_sup, float(mags[j])))
        terms += len(ms)
        fft_points += L
    C = max(N, 1) ** 4
    scale = C ** (1.0 / 8.0) * arch.h_value
    return ScanReport(N, arch, sup, argmax, witness, witness_m, C, sup / scale,
                      witness / scale, rows, terms=terms, fft_points=fft_points)


SCAN_FIELDS = ("sup", "argmax", "witness", "witness_m", "rows", "terms", "fft_points")


def _assert_scans_equal(ram, kind, arch):
    got = scan_supnorm(ram, _source(kind, 3), arch, rows_per_decade=64, keep_rows=True)
    ref = reference_scan(ram, _source(kind, 3), arch, 64)
    for name in SCAN_FIELDS:
        assert getattr(got, name) == getattr(ref, name), name


@pytest.mark.parametrize("N", [1, 3, 5, 15, 21])
@pytest.mark.parametrize("k", [12, 120])
@pytest.mark.parametrize("kind", ["sato-tate", "all-ones"])
def test_holomorphic_scan_is_bit_identical_to_per_row_assembly(rams, N, k, kind):
    _assert_scans_equal(rams[N], kind, ArchParams("holomorphic", k=k))


@pytest.mark.parametrize("N, t", [(1, 2.0), (3, 2.0), (5, 5.0), (1, 10.0)])
def test_maass_scan_is_bit_identical_to_per_row_assembly(rams, N, t):
    _assert_scans_equal(rams[N], "sato-tate", ArchParams("maass", t=t))


def test_maass_scan_past_the_sieve_raises_as_per_row_assembly(rams):
    # a row at N = 3, t = 5 has a larger cutoff than the bottom row, and both
    # routes fail at its sieve read with the same IndexError
    arch = ArchParams("maass", t=5.0)
    with pytest.raises(IndexError) as ref:
        reference_scan(rams[3], _source("sato-tate", 3), arch, 64)
    with pytest.raises(IndexError, match=re.escape(str(ref.value))):
        scan_supnorm(rams[3], _source("sato-tate", 3), arch, rows_per_decade=64)


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


@pytest.mark.parametrize("N", [1, 15])
def test_scan_at_large_weight(rams, N):
    # at k = 600 kappa overflows and c_inf^{-1} underflows as separate factors;
    # the normalized kernel keeps every term finite
    mpmath = pytest.importorskip("mpmath")
    ram, src, k = rams[N], CoefficientSource.all_ones(), 600
    arch = ArchParams("holomorphic", k=k)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        rep = scan_supnorm(ram, src, arch, rows_per_decade=64, keep_rows=True)
    assert rep.sup >= rep.witness > 0 and math.isfinite(rep.ratio)
    assert abs(evaluate_phi(*rep.argmax, ram, src, arch)) == pytest.approx(rep.sup, rel=1e-6)
    # the witness term PREF |lambda'| kappa(m y / N^2) / (c_inf sqrt m), in mpmath
    y_row = next(y for y, _, w in rep.rows if w == rep.witness)
    m = rep.witness_m
    with mpmath.workdps(40):
        u = mpmath.mpf(m) * mpmath.mpf(y_row) / N**2
        log_c = mpmath.loggamma(k) / 2 - k * mpmath.log(4 * mpmath.pi) / 2
        ref = (mpmath.mpf(PREF) * mpmath.mpf(ram.amplitude) / mpmath.sqrt(m)
               * mpmath.exp(k * mpmath.log(u) / 2 - 2 * mpmath.pi * u - log_c))
    assert rep.witness == pytest.approx(float(ref), rel=1e-12)


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
