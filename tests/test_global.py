import cmath
import dataclasses
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minvec.bessel import bessel_K_imag
from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.errors import ConfigError, NumericalError
from minvec import bessel, global_whittaker
from minvec.global_whittaker import (_SCAN_BLOCK_ELEMENTS, PREF, X_STEPS_PER_PERIOD, Y_MIN,
                                     ArchParams, CoefficientSource, RamifiedData, ScanReport,
                                     _bessel_support_bound, _cutoff, _cutoffs,
                                     _ramanujan_bound, _row_coefficients,
                                     _row_progressions, _row_spans,
                                     build_D, c_infty, evaluate_phi, gamma_TD,
                                     kappa, kernel_peak_ratio, lambda_prime,
                                     lambda_prime_fast, log_c_infty, log_kappa,
                                     scan_supnorm)
from minvec.matgroups import TorusSpec
from test_bessel import oscillation_floor, reference_K_imag, reference_row, signed_progression


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


def test_arch_params_rejects_nan_t():
    # an infinite t is a form whose normalization underflows (NumericalError)
    with pytest.raises(ConfigError, match="spectral parameter t, got nan"):
        ArchParams("maass", t=math.nan)


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
    # one scalar quadrature per y, and agrees with that loop up to rounding
    arch = ArchParams("maass", t=t)
    ys = np.exp(np.linspace(math.log(Y_MIN), math.log(12.0), 50))
    ys_peak = np.exp(np.linspace(math.log(1e-3), math.log(_bessel_support_bound(t) + 1), 400))

    def per_y(ys):
        xs = 2.0 * math.pi * ys
        ks = np.array([bessel_K_imag(t, x) for x in xs.tolist()])
        return np.sqrt(ys) * ks / c_infty(arch), np.sqrt(ys) * oscillation_floor(t, xs) / c_infty(arch)
    expected, floor = per_y(ys)
    # at t = 10 the peak grid starts at K_{10i}(2 pi 10^-3), out of the
    # Simpson reference's reach
    peak = float(np.max(np.abs(per_y(ys_peak)[0])))

    def no_scalar(*args):
        raise AssertionError("kappa called the scalar Bessel quadrature")
    monkeypatch.setattr("minvec.global_whittaker.bessel_K_imag", no_scalar)
    monkeypatch.setattr("minvec.bessel.bessel_K_imag", no_scalar)
    assert np.all(np.abs(kappa(ys, arch) - expected) <= 1e-14 * np.maximum(np.abs(expected), floor))
    assert kernel_peak_ratio(arch) == pytest.approx(peak, rel=1e-14)


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
    must give the same bits.  A Sato-Tate source gets its lambda(p) from the
    scalar reference_lambda_p, not from the array draws under test."""
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
            src.prime_values[p] = reference_lambda_p(src.seed, p)
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
    # 48 to 50, 120, 121 and 169 put a prime on either side of isqrt(limit),
    # the edge between the one-scatter primes and the prime-power walk
    for limit in (1, 2, 48, 49, 50, 60, 120, 121, 169, 13729, 20000):
        for source in (lambda: CoefficientSource.sato_tate(seed=seed), CoefficientSource.all_ones):
            assert np.array_equal(source().values_upto(limit), _per_m_sieve(source(), limit))


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
    # value(m) draws only the primes of m; values_upto then draws only the rest
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


def _primes_between(lo, hi):
    return [p for p in range(max(lo, 2), hi) if all(p % q for q in range(2, math.isqrt(p) + 1))]


# seeds whose entropy seed 1_000_003 + p carries across 2^32 words: past 2^64
# from p = 350687, up to just below 2^128 at p <= 1_003_028, and past 2^128
# from p = 3026, where each prime gets its own Generator
ENTROPY_EDGES = {2**64 // 1_000_003: _primes_between(350_000, 351_400),
                 2**128 // 1_000_003 - 1: _primes_between(1_002_000, 1_003_100),
                 2**128 // 1_000_003: _primes_between(2_900, 3_200)}


@pytest.mark.parametrize("seed", sorted(ENTROPY_EDGES))
def test_sato_tate_draws_match_default_rng_at_entropy_word_edges(seed):
    src = CoefficientSource.sato_tate(seed=seed)
    src._draw(ENTROPY_EDGES[seed])
    _assert_draws_match_reference(src, ENTROPY_EDGES[seed])


def test_sato_tate_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        CoefficientSource.sato_tate(seed=-1)


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
def test_sato_tate_rejects_a_non_integer_seed(seed):
    # at once, not as a TypeError from the first draw
    with pytest.raises(ConfigError, match="seed must be an integer"):
        CoefficientSource.sato_tate(seed=seed)


def test_sato_tate_takes_a_numpy_integer_seed():
    src = CoefficientSource.sato_tate(seed=np.int64(3))
    assert type(src.seed) is int
    assert np.array_equal(src.values_upto(200), CoefficientSource.sato_tate(seed=3).values_upto(200))


def _array_draw_sizes(monkeypatch):
    """The prime counts of _draw's array route, one per call, as they happen."""
    sizes, first_uniforms = [], global_whittaker._first_uniforms

    def spy(words):
        sizes.append(len(words[0]))
        return first_uniforms(words)

    monkeypatch.setattr(global_whittaker, "_first_uniforms", spy)
    return sizes


def test_sato_tate_draw_routes_meet_at_the_threshold(monkeypatch):
    # a set below _ARRAY_DRAW_PRIMES is drawn one prime at a time, a set at or
    # above it in one array pass; both equal the scalar reference bit for bit
    sizes = _array_draw_sizes(monkeypatch)
    n = global_whittaker._ARRAY_DRAW_PRIMES
    primes = _primes_between(1_000, 10_000)
    for seed in range(4):
        for count in (n - 1, n, n + 1):
            src = CoefficientSource.sato_tate(seed=seed)
            src._draw(primes[:count])
            _assert_draws_match_reference(src, primes[:count])
    assert sizes == [n, n + 1] * 4


def test_sato_tate_single_prime_draws_match_the_reference(monkeypatch):
    # value(m) draws the new primes of m alone, one prime at a time
    sizes = _array_draw_sizes(monkeypatch)
    src = CoefficientSource.sato_tate(seed=5)
    for p in (2, 3, 97, 7919, 99_991, 1_000_003):
        src.value(p)
        src.value(p * p)
    _assert_draws_match_reference(src, [2, 3, 97, 7919, 99_991, 1_000_003])
    assert sizes == []


def test_sato_tate_draws_past_2_128_take_one_generator_per_prime(monkeypatch):
    # the entropy rule routes a set of any size past 2^128 one prime at a
    # time, the ENTROPY_EDGES set and a wider one beyond the threshold alike
    sizes = _array_draw_sizes(monkeypatch)
    seed = 2**128 // 1_000_003
    wide = _primes_between(2_900, 3_600)
    assert len(wide) > global_whittaker._ARRAY_DRAW_PRIMES
    for primes in (ENTROPY_EDGES[seed], wide):
        src = CoefficientSource.sato_tate(seed=seed)
        src._draw(primes)
        _assert_draws_match_reference(src, primes)
    assert sizes == []


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
        assert abs(ram.amplitude - math.sqrt(phiN)) < 1e-12
        for m in range(1, ram.N**2 + 1):
            # at the identity translate every local phase is 1: the value is
            # the amplitude itself on the progression
            assert lambda_prime(m, ram) == (ram.amplitude if m % ram.N == ram.b else 0.0)


def test_lambda_prime_crt_consistency(mv31, mv51):
    ram3 = RamifiedData.build([mv31])
    ram5 = RamifiedData.build([mv51])
    ram15 = RamifiedData.build([mv31, mv51])
    # local residues pick up the square of the complementary modulus
    assert ram15.b % 3 == ram3.b * pow(5, 2, 3) % 3
    assert ram15.b % 5 == ram5.b * pow(3, 2, 5) % 5


def test_lambda_prime_rejects_a_translate(mv31):
    # lambda_prime evaluates the minimal vectors at a(m/N^2), the identity
    # translate: on a translate built with another b (2 -> 1 at the library's
    # PSI_SIGN) it would silently read the identity's class, so it refuses
    ram = RamifiedData.build([mv31])
    for other in (dataclasses.replace(ram, b=ram.b - 1),
                  RamifiedData(3, ram.b, ram.amplitude, [])):
        with pytest.raises(ConfigError, match="identity translate"):
            lambda_prime(ram.b, other)
    assert lambda_prime(ram.b, dataclasses.replace(ram, b=ram.b + 3)) == ram.amplitude


def test_ramified_data_rejects_a_modulus_below_one():
    for N in (0, -3):
        with pytest.raises(ConfigError, match="modulus N must be >= 1"):
            RamifiedData(N, 1, 1.0, [])


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(N=st.sampled_from([1, 3, 5, 15, 21]), b=st.integers(),
       amp=st.floats(0.1, 10.0))
def test_any_integer_b_names_its_class(N, b, amp):
    # b is reduced mod N once, at construction: every reader (lambda', the
    # Fourier expansion and the scan) sees the class, not the integer
    ram, ref = RamifiedData(N, b, amp, []), RamifiedData(N, b % N, amp, [])
    assert ram.b == ref.b == b % N
    ms = np.arange(-N * N, N * N + 1)
    assert np.array_equal(lambda_prime_fast(ms, ram), lambda_prime_fast(ms, ref))
    arch = ArchParams("holomorphic", k=12)
    for x, y in [(0.3, 1.0), (2.7, 1.5), (7.1, 3.0)]:
        assert (evaluate_phi(x, y, ram, CoefficientSource.sato_tate(seed=1), arch)
                == evaluate_phi(x, y, ref, CoefficientSource.sato_tate(seed=1), arch))
    got, want = (scan_supnorm(r, CoefficientSource.sato_tate(seed=1), arch,
                              rows_per_decade=16, keep_rows=True) for r in (ram, ref))
    for name in SCAN_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


def test_lambda_prime_fast_matches_exact():
    # the amplitude on m = b (mod N) is the product of the closed-form local
    # values to the last bit, over m in [-N^2, N^2], theta indices 0 and 1;
    # that product is real, so the fast route is float64 (the scan's real FFT
    # relies on it)
    for pns in ([(3, 1)], [(5, 1)], [(3, 2)], [(3, 1), (5, 1)]):
        for index in (0, 1):
            mvs = [MinimalVectorSpec.build(TorusSpec(p, n), enumerate_theta(TorusSpec(p, n))[index])
                   for p, n in pns]
            ram = RamifiedData.build(mvs)
            ms = np.arange(-ram.N**2, ram.N**2 + 1)
            slow = np.array([lambda_prime(int(m), ram) for m in ms], dtype=complex)
            fast = lambda_prime_fast(ms, ram)
            assert fast.dtype == np.float64, (pns, index)
            assert not slow.imag.any(), (pns, index)
            assert np.array_equal(fast, slow.real), (pns, index)


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


@pytest.mark.parametrize("k, y, why", [
    (12, 1e-7, "log of the omitted term is -11.4, not yet -30"),
    (12, 5e-7, "the tail needs R = 12990881"),
    (10**8, Y_MIN, "the starting cutoff R = 18377716 itself passes it")])
def test_cutoff_cap_message_says_why(k, y, why):
    # the cap is checked before the term: past it, the term may be short of
    # e^-30, or below it at a grown R or already at the starting R
    with pytest.raises(NumericalError) as exc:
        _cutoff(1, ArchParams("holomorphic", k=k), y)
    assert str(exc.value).endswith("; " + why)


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
                     CoefficientSource.all_ones(),
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


def test_signed_progression_matches_filter():
    # the one progression builder (_row_spans expanded by _row_progressions),
    # as evaluate_phi and the scan plan call it, against arange and a mask,
    # for every class b in [-2N, 3N) and rows around multiples of N
    Rs = np.array([1, 2, 7, 8, 14, 15, 16, 100, 1001])
    for N in (1, 3, 5, 7, 9, 15, 21):
        for b in range(-2 * N, 3 * N):
            ram = RamifiedData(N, b, 1.0, [])
            for arch in (ArchParams("holomorphic", k=12), ArchParams("maass", t=2.0)):
                holo = arch.case == "holomorphic"
                ms, row, _, _ = _row_progressions(ram, arch, *_row_spans(ram, arch, Rs))
                for r, R in enumerate(Rs.tolist()):
                    assert np.array_equal(ms[row == r], signed_progression(N, b, R, holo)), \
                        (N, b, R, holo)


def _scan_ys(N, arch, rows_per_decade):
    """The y of every scan_supnorm row."""
    y_max = max(2.0, N * N * arch.T)
    n_rows = max(2, int(rows_per_decade * math.log10(y_max / Y_MIN)) + 1)
    return np.exp(np.linspace(math.log(Y_MIN), math.log(y_max), n_rows))


@pytest.mark.parametrize("rows_per_decade", [64, 256])
def test_cutoffs_equal_the_scalar_cutoff_on_every_scan_row(rows_per_decade):
    # the holo-scan levels and weights (and k = 600), and the five maass-scan jobs
    archs = [(N, ArchParams("holomorphic", k=k)) for N in (1, 3, 5, 15, 21)
             for k in (12, 40, 120, 600)]
    archs += [(N, ArchParams("maass", t=t)) for N, t in
              [(1, 2.0), (3, 2.0), (5, 5.0), (3, 5.0), (1, 10.0)]]
    cutoffs = {}
    for N, arch in archs:
        ys = _scan_ys(N, arch, rows_per_decade)
        cutoffs[N, arch] = _cutoffs(N, arch, ys).tolist()
        assert cutoffs[N, arch] == [_cutoff(N, arch, float(y)) for y in ys], (N, arch)
    # the N = 3, t = 5 row whose cutoff passes the bottom row's 60
    assert max(cutoffs[3, ArchParams("maass", t=5.0)]) == 67


@pytest.mark.parametrize("scalar_done", [True, False])
def test_cutoffs_let_the_scalar_probe_decide_in_the_guard_band(monkeypatch, scalar_done):
    # a kernel whose probes at the starting R land within _GUARD of -30 on
    # opposite sides, the array one and the scalar one; past that R both
    # read -31.  _cutoffs follows the scalar probe, as _cutoff does, and
    # would follow the array one without the guard band.
    y = 2.0
    arch = ArchParams("holomorphic", k=12)
    R0 = _cutoff(1, arch, y)
    side = 0.1 * global_whittaker._GUARD
    scalar, array = (-30 - side, -30 + side) if scalar_done else (-30 + side, -30 - side)

    def fake_log_kappa(u, arch):          # at N = 1, u = m y
        return 0.5 * math.log(u / y) + (scalar if u / y < R0 + 0.5 else -31.0)

    def fake_kappa(u, arch):
        return np.exp(0.5 * np.log(u / y) + np.where(u / y < R0 + 0.5, array, -31.0))

    monkeypatch.setattr(global_whittaker, "log_kappa", fake_log_kappa)
    monkeypatch.setattr(global_whittaker, "kappa", fake_kappa)
    step = math.ceil(1.3 * R0)
    assert _cutoff(1, arch, y) == (R0 if scalar_done else step)
    assert _cutoffs(1, arch, np.array([y])).tolist() == [R0 if scalar_done else step]
    monkeypatch.setattr(global_whittaker, "_GUARD", 0.0)
    assert _cutoffs(1, arch, np.array([y])).tolist() == [step if scalar_done else R0]


@pytest.mark.parametrize("k, y", [(12, 1e-7), (12, 4e-7), (12, 5e-7), (10**8, Y_MIN)])
def test_cutoffs_raise_the_scalar_cap_error(k, y):
    # among the rows past the cap, the first is reported; the row 10^4 y
    # stays below it, and at k = 12 the row y / 2 passes it in fewer steps
    # than the row y.  At y = 4e-7 one look-ahead window holds the last two
    # steps below the cap and the first past it, where the term is still
    # above e^-30: the error must name that step, not a later one.  The row
    # straddle passes at its last step below the cap, the next one past it
    # (at k = 12 in a window that also runs past the cap), so it is not
    # reported
    arch = ArchParams("holomorphic", k=k)
    straddle = {12: 7e-7, 10**8: 2.0}[k]
    assert _cutoff(1, arch, 1e4 * y) < 10**7
    R = _cutoff(1, arch, straddle)
    assert R <= 10**7 < math.ceil(1.3 * R)
    with pytest.raises(NumericalError) as ref:
        _cutoff(1, arch, y)
    with pytest.raises(NumericalError, match=re.escape(str(ref.value))):
        _cutoffs(1, arch, np.array([1e4 * y, straddle, y, y / 2]))


@pytest.mark.parametrize("arch", [ArchParams("holomorphic", k=12), ArchParams("maass", t=2.0)])
def test_row_plan_progressions_match_signed_progression(mv31, mv51, monkeypatch, arch):
    # each plan row's progression is the filtered signed progression at its
    # R, and rows with an empty one are left out; N = 1 and the last ram have
    # b = 0, where Maass skips m = 0
    Rs = np.array([1, 2, 8, 14, 15, 16, 100])
    monkeypatch.setattr(global_whittaker, "_cutoffs", lambda N, arch, ys: Rs.copy())
    ys = np.arange(1.0, len(Rs) + 1)
    holo = arch.case == "holomorphic"
    for ram in (RamifiedData.unramified(), RamifiedData.build([mv31]),
                RamifiedData.build([mv51]), RamifiedData.build([mv31, mv51]),
                RamifiedData(15, 0, 1.0, [])):
        expect = [signed_progression(ram.N, ram.b, int(R), holo) for R in Rs]
        y_plan, start, lens, _ = global_whittaker._row_blocks(ram, arch, ys)
        ms, row, _, _ = global_whittaker._row_progressions(ram, arch, start, lens)
        assert y_plan.tolist() == [y for y, e in zip(ys, expect) if len(e)]
        assert np.array_equal(ms, np.concatenate(expect))
        assert np.array_equal(row, np.repeat(np.arange(len(y_plan)), [len(e) for e in expect if len(e)]))


def _full_length_row(ram, arch, y, lam_all):
    """One scan row by the full-length transform: every term added into a
    length-X array, X = X_STEPS_PER_PERIOD N^2 2^i > 2R + 1, and one inverse
    FFT of length X.  Returns (row sup, x of its first maximum, terms, X)."""
    N2 = ram.N**2
    R = _cutoff(ram.N, arch, y)
    ms = signed_progression(ram.N, ram.b, R, arch.case == "holomorphic")
    c = _row_coefficients(ms, y, ram, arch, lam_all)
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


def _assert_rows_match_full_length_transform(ram, arch, kind, rows_per_decade):
    """Every row sup, the terms and transform points, the sup and its argmax
    of a scan against _full_length_row, row by row; a different argmax must
    be a tie within rounding."""
    N = ram.N
    rep = scan_supnorm(ram, _source(kind, 3), arch, rows_per_decade=rows_per_decade,
                       keep_rows=True)
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


@pytest.mark.parametrize("N", [3, 15, 21])
@pytest.mark.parametrize("kind", ["sato-tate", "all-ones"])
def test_scan_rows_match_full_length_transform(rams, N, kind):
    _assert_rows_match_full_length_transform(rams[N], ArchParams("holomorphic", k=40), kind, 64)


@pytest.mark.parametrize("N, t", [(3, 2.0), (1, 2.0)])
def test_maass_scan_rows_match_full_length_transform(rams, N, t):
    # signed progressions; at N = 1, b = 0 and the progression steps over m = 0
    _assert_rows_match_full_length_transform(rams[N], ArchParams("maass", t=t), "sato-tate", 64)


def test_scan_rows_match_full_length_transform_at_the_cli_density(rams):
    # 256 rows per decade, the CLI density; this scan's argmax x and the
    # full-length transform's differ by a multiple of N, a tie within rounding
    _assert_rows_match_full_length_transform(rams[15], ArchParams("holomorphic", k=12),
                                              "sato-tate", 256)


@pytest.mark.parametrize("arch", [ArchParams("holomorphic", k=12), ArchParams("maass", t=2.0)],
                         ids=["holomorphic", "maass"])
@pytest.mark.parametrize("kind", ["sato-tate", "all-ones"])
@pytest.mark.parametrize("N", [1, 3, 15])
def test_phi_modulus_is_mirror_symmetric_on_the_grid(rams, N, kind, arch):
    # real coefficients on m = b + N j give phi(N - x) = e(b / N) conj phi(x),
    # the symmetry that lets the scan read each row's half spectrum
    ram = rams[N]
    for y in (1.0, 2.5):
        for j in (1, 5, 17, 31, 32 * N - 3):
            x = j / X_STEPS_PER_PERIOD      # on every row grid x = j' N^2 / X
            here = abs(evaluate_phi(x, y, ram, _source(kind, 3), arch))
            there = abs(evaluate_phi(N - x, y, ram, _source(kind, 3), arch))
            assert there == pytest.approx(here, rel=1e-12), (x, y)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_argmax_lies_in_the_first_half_period(rams, seed):
    # each row's first maximum is read from j = 0..L/2 of its half spectrum,
    # so x = j N / L <= N/2
    jobs = [(N, ArchParams("holomorphic", k=k), kind) for N in rams for k in (12, 40)
            for kind in ("sato-tate", "all-ones")]
    jobs += [(N, ArchParams("maass", t=2.0), kind) for N in (1, 3)
             for kind in ("sato-tate", "all-ones")]
    for N, arch, kind in jobs:
        rep = scan_supnorm(rams[N], _source(kind, seed), arch, rows_per_decade=64)
        assert 0 <= rep.argmax[0] <= N / 2, (N, arch, kind, rep.argmax)


def reference_scan(ram, coeffs, arch, rows_per_decade):
    """scan_supnorm with keep_rows, assembling every row from scratch: lambda'
    and sqrt|m| on the row's own progression, the coefficients as
    PREF lambda lambda' kappa / sqrt|m| in that order, and |G| from the row's
    own real FFT.  The reference for the per-scan factors and the block
    transform, which must give the same bits."""
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
        ms = signed_progression(N, ram.b, R, holo)
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
        F = np.zeros(L)
        F[(ms // N) % L] = c
        av = np.abs(np.fft.rfft(F))
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


@pytest.mark.parametrize("N, t", [(1, 2.0), (3, 2.0), (5, 5.0)])
def test_maass_scan_matches_the_simpson_reference(rams, monkeypatch, N, t):
    # the maass-scan jobs within reach of the real-axis Simpson quadrature,
    # scanned once with it in place of the contour route
    arch = ArchParams("maass", t=t)
    got = scan_supnorm(rams[N], _source("sato-tate", 1), arch, rows_per_decade=64, keep_rows=True)
    monkeypatch.setattr("minvec.global_whittaker.bessel_K_imag", reference_K_imag)
    monkeypatch.setattr("minvec.global_whittaker.bessel_K_imag_row", reference_row)
    ref = scan_supnorm(rams[N], _source("sato-tate", 1), arch, rows_per_decade=64, keep_rows=True)
    assert got.sup == pytest.approx(ref.sup, rel=1e-11)
    assert got.witness == pytest.approx(ref.witness, rel=1e-11)
    assert (got.argmax, got.witness_m, got.terms) == (ref.argmax, ref.witness_m, ref.terms)
    assert [y for y, _, _ in got.rows] == [y for y, _, _ in ref.rows]
    np.testing.assert_allclose(np.array(got.rows), np.array(ref.rows), rtol=1e-11, atol=0)


@pytest.mark.parametrize("N", [1, 3, 5])
@pytest.mark.parametrize("t", [10.0, 20.0, 30.0])
def test_maass_scans_at_large_t_finish(rams, N, t):
    # the CLI grid (all-ones, default rows per decade), where the real-axis
    # quadrature ran out of digits
    arch = ArchParams("maass", t=t)
    rep = scan_supnorm(rams[N], _source("all-ones", 1), arch)
    assert rep.sup >= rep.witness > 0
    direct = abs(evaluate_phi(*rep.argmax, rams[N], _source("all-ones", 1), arch))
    assert abs(direct - rep.sup) <= 1e-6 * rep.sup


def test_maass_scan_past_the_sieve_raises_as_per_row_assembly(rams):
    # a row at N = 3, t = 5 has a larger cutoff than the bottom row, and both
    # routes fail at its sieve read with the same IndexError
    arch = ArchParams("maass", t=5.0)
    with pytest.raises(IndexError) as ref:
        reference_scan(rams[3], _source("sato-tate", 3), arch, 64)
    with pytest.raises(IndexError, match=re.escape(str(ref.value))):
        scan_supnorm(rams[3], _source("sato-tate", 3), arch, rows_per_decade=64)


def _scan_with_blocks(monkeypatch, ram, kind, arch, rows_per_decade=256):
    """scan_supnorm (by default at the CLI's 256 rows per decade), the
    (L, rows) of every block it transforms, read from the shape of each rfft
    input, and the (terms, rows) of every chunk it assembles, one
    _row_coefficients call each (its rows have distinct y)."""
    blocks, chunks = [], []
    rfft, row_coefficients = np.fft.rfft, global_whittaker._row_coefficients

    def spy_rfft(F, axis=-1):
        blocks.append((F.shape[1], F.shape[0]))
        return rfft(F, axis=axis)

    def spy_chunk(ms, y, *args):
        chunks.append((len(ms), len(np.unique(y))))
        return row_coefficients(ms, y, *args)

    with monkeypatch.context() as patch:
        patch.setattr(np.fft, "rfft", spy_rfft)
        patch.setattr(global_whittaker, "_row_coefficients", spy_chunk)
        rep = scan_supnorm(ram, _source(kind, 3), arch, rows_per_decade=rows_per_decade,
                           keep_rows=True)
    return rep, blocks, chunks


def _assert_blocks_split_at_the_cap(blocks, rows, cap=_SCAN_BLOCK_ELEMENTS):
    assert sum(n for _, n in blocks) == rows
    assert all(L * n <= cap or n == 1 for L, n in blocks)
    # some run of one transform length goes on past a full block
    assert any(L == L_next and L * (n + 1) > cap
               for (L, n), (L_next, _) in zip(blocks, blocks[1:]))


def _assert_chunks_split_at_the_cap(chunks, ref, cap=_SCAN_BLOCK_ELEMENTS // 2):
    assert sum(n for n, _ in chunks) == ref.terms
    assert sum(r for _, r in chunks) == len(ref.rows)
    assert all(n <= cap or r == 1 for n, r in chunks)


def _assert_same_report(got, ref):
    for name in SCAN_FIELDS:
        assert getattr(got, name) == getattr(ref, name), name


# at k <= 120 every row of these scans has the shortest transform length
# X_STEPS_PER_PERIOD N; at k = 600 the bottom rows need longer ones
@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("k", [12, 120, 600])
@pytest.mark.parametrize("kind", ["sato-tate", "all-ones"])
def test_scan_blocks_are_bit_identical_to_per_row_assembly(rams, monkeypatch, N, k, kind):
    arch = ArchParams("holomorphic", k=k)
    got, blocks, chunks = _scan_with_blocks(monkeypatch, rams[N], kind, arch)
    ref = reference_scan(rams[N], _source(kind, 3), arch, 256)
    _assert_same_report(got, ref)
    _assert_blocks_split_at_the_cap(blocks, len(ref.rows))
    _assert_chunks_split_at_the_cap(chunks, ref)
    lengths = [L for L, _ in blocks]
    assert (lengths[0] > lengths[-1]) == (k == 600)


def test_maass_scan_blocks_are_bit_identical_to_per_row_assembly(rams, monkeypatch):
    arch = ArchParams("maass", t=2.0)
    got, blocks, chunks = _scan_with_blocks(monkeypatch, rams[3], "sato-tate", arch)
    ref = reference_scan(rams[3], _source("sato-tate", 3), arch, 256)
    _assert_same_report(got, ref)
    _assert_blocks_split_at_the_cap(blocks, len(ref.rows))
    _assert_chunks_split_at_the_cap(chunks, ref)


@pytest.mark.parametrize("N, arch", [(1, ArchParams("holomorphic", k=12)),
                                     (3, ArchParams("holomorphic", k=120)),
                                     (1, ArchParams("maass", t=2.0)),
                                     (3, ArchParams("maass", t=2.0))],
                         ids=["holomorphic-1", "holomorphic-3", "maass-1", "maass-3"])
def test_scan_with_small_chunks_is_bit_identical_to_per_row_assembly(rams, monkeypatch,
                                                                      N, arch):
    # a block cap of 128 elements, so chunks of at most 64 terms: many
    # chunks, blocks of at most two rows at N = 1 and of one row at N = 3
    monkeypatch.setattr(global_whittaker, "_SCAN_BLOCK_ELEMENTS", 128)
    got, blocks, chunks = _scan_with_blocks(monkeypatch, rams[N], "sato-tate", arch, 64)
    ref = reference_scan(rams[N], _source("sato-tate", 3), arch, 64)
    _assert_same_report(got, ref)
    _assert_blocks_split_at_the_cap(blocks, len(ref.rows), 128)
    _assert_chunks_split_at_the_cap(chunks, ref, 64)
    assert len(chunks) > 4


def test_scan_memory_stays_within_the_block_cap(rams):
    # the CLI-default scan at N = 21, k = 120: 1226 rows (759 with the psi
    # sign flipped, which moves b), all of transform length 1344; as one
    # real (rows, L) array they would take 8 to 13 MB, and their half spectra
    # as much again
    tracemalloc.start()
    try:
        rep = scan_supnorm(rams[21], CoefficientSource.all_ones(),
                           ArchParams("holomorphic", k=120), keep_rows=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.rows) > 700
    # a block of 2^14 real elements (128 KiB) with its half spectrum and its
    # modulus (192 KiB), and everything else, within 16 2^14 + 2 MiB; the
    # peak is about 1350 KiB
    assert peak <= 16 * 2**14 + 2 * 2**20


def test_maass_scan_memory_stays_within_the_quadrature_pass_cap(rams):
    # the CLI-default Maass scan at N = 5, t = 5: 574 rows, whose kernels go
    # into one Bessel quadrature per block
    tracemalloc.start()
    try:
        rep = scan_supnorm(rams[5], CoefficientSource.all_ones(), ArchParams("maass", t=5.0),
                           keep_rows=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.rows) > 500
    # eight float arrays of one quadrature pass, and 2 MiB for everything else
    assert peak <= 8 * 8 * bessel._PASS_ELEMENTS + 2 * 2**20


def test_maass_scan_makes_one_row_quadrature_per_chunk(rams, monkeypatch):
    # the Maass kernel of a chunk is one bessel_K_imag_row call, and each
    # kappa call of the cutoff probe one more: never one per row or block
    stage, entered, row_calls, probe_steps = [None], [], [], []
    row_quadrature, kernel = global_whittaker.bessel_K_imag_row, global_whittaker.kappa

    def staged(name, f):
        def call(*args):
            entered.append(name)
            stage.append(name)
            try:
                return f(*args)
            finally:
                stage.pop()
        return call

    def counting_row(t, xs):
        row_calls.append(stage[-1])
        return row_quadrature(t, xs)

    def counting_kernel(y, arch):
        if stage[-1] == "cutoffs":
            probe_steps.append(len(y))
        return kernel(y, arch)

    monkeypatch.setattr(global_whittaker, "bessel_K_imag_row", counting_row)
    monkeypatch.setattr(global_whittaker, "kappa", counting_kernel)
    monkeypatch.setattr(global_whittaker, "_cutoffs", staged("cutoffs", global_whittaker._cutoffs))
    monkeypatch.setattr(global_whittaker, "_row_coefficients",
                        staged("chunk", global_whittaker._row_coefficients))
    rep = scan_supnorm(rams[3], _source("sato-tate", 3), ArchParams("maass", t=2.0), keep_rows=True)
    chunks = entered.count("chunk")
    assert row_calls.count("chunk") == chunks
    assert row_calls.count("cutoffs") == len(probe_steps) > 0
    assert len(row_calls) == chunks + len(probe_steps)
    assert len(rep.rows) > 4 * chunks
    # one probe call for the rows' starts, then one per _LOOK_AHEAD x1.3
    # steps of the rows still open: at 64 rows per decade a row of this
    # plan needs 7 steps past its start, so one call per step would make 8
    row_calls.clear()
    scan_supnorm(rams[3], _source("sato-tate", 3), ArchParams("maass", t=2.0), 64)
    assert 0 < row_calls.count("cutoffs") <= 3
    # with chunks of at most 64 terms there are many chunks, and still one
    # quadrature each
    monkeypatch.setattr(global_whittaker, "_SCAN_BLOCK_ELEMENTS", 128)
    row_calls.clear()
    entered.clear()
    scan_supnorm(rams[3], _source("sato-tate", 3), ArchParams("maass", t=2.0), 64)
    assert row_calls.count("chunk") == entered.count("chunk") > 4


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


def _ramanujan_tau(limit):
    """tau(1..limit) from q prod_n (1 - q^n)^24, in Python ints; index 0 unused."""
    prod = [1] + [0] * (limit - 1)      # prod (1 - q^n)^24 up to q^(limit - 1)
    for n in range(1, limit):
        for _ in range(24):
            for i in range(limit - 1, n - 1, -1):
                prod[i] -= prod[i - n]
    return [0] + prod


def _delta(z):
    """Ramanujan's Delta(z) = q prod_n (1 - q^n)^24, q = e(z), in complex
    floats: an oracle that shares no code with the library."""
    q = cmath.exp(2j * math.pi * z)
    out, qn = q, q
    while abs(qn) > 1e-30:
        out *= (1 - qn) ** 24
        qn *= q
    return out


@pytest.fixture(scope="module")
def delta_source(tmp_path_factory):
    """Delta through the file source: lambda(m) = tau(m) / m^(11/2), m <= 200,
    under '# delta 0', so its Ramanujan check tests Deligne's bound."""
    tau = _ramanujan_tau(200)
    assert tau[1:6] == [1, -24, 252, -1472, 4830]
    path = tmp_path_factory.mktemp("delta") / "delta.txt"
    path.write_text("# delta 0\n" + "".join(f"{m}\t{tau[m] / m**5.5!r}\n"
                                             for m in range(1, 201)))
    return CoefficientSource.from_file(str(path))


DELTA_ARCH = ArchParams("holomorphic", k=12)


@pytest.mark.parametrize("x, y", [(0.5, math.sqrt(3) / 2), (0.1, 0.9), (0.3, 1.2), (0.0, 1.0),
                                  (0.25, 2.0), (0.45, 1.5)])
def test_level_one_phi_is_the_normalized_delta(delta_source, x, y):
    # at N = 1, k = 12 the expansion is PREF / c_inf y^6 Delta(x + i y)
    got = evaluate_phi(x, y, RamifiedData.unramified(), delta_source, DELTA_ARCH)
    expect = PREF / c_infty(DELTA_ARCH) * y**6 * _delta(complex(x, y))
    assert abs(got - expect) <= 1e-12 * abs(expect)


@pytest.mark.parametrize("rows_per_decade", [64, 256])
def test_level_one_scan_finds_delta_at_rho(delta_source, rows_per_decade):
    # y^6 |Delta| is largest at rho = (1 + i sqrt 3) / 2, a grid point of
    # every scan: the bottom row y = Y_MIN, x = 1/2
    rep = scan_supnorm(RamifiedData.unramified(), delta_source, DELTA_ARCH,
                       rows_per_decade=rows_per_decade)
    rho = complex(0.5, math.sqrt(3) / 2)
    expect = abs(PREF / c_infty(DELTA_ARCH) * rho.imag**6 * _delta(rho))
    assert expect == pytest.approx(2.2917131644453, rel=1e-12)
    assert rep.sup == pytest.approx(expect, rel=1e-12)
    assert rep.argmax == (0.5, math.sqrt(3) / 2)


@pytest.mark.parametrize("rows_per_decade", [0, -3, 2.5])
def test_scan_rows_per_decade_must_be_a_positive_integer(rams, rows_per_decade):
    with pytest.raises(ConfigError, match="rows_per_decade must be"):
        scan_supnorm(rams[1], CoefficientSource.all_ones(), ArchParams("holomorphic", k=12),
                     rows_per_decade=rows_per_decade)


@pytest.mark.parametrize("cutoff", [-5, 2.5, 0])
def test_evaluate_phi_cutoff_must_be_a_positive_integer(rams, cutoff):
    with pytest.raises(ConfigError, match="cutoff must be"):
        evaluate_phi(0.1, 1.0, rams[1], CoefficientSource.all_ones(),
                     ArchParams("holomorphic", k=12), cutoff=cutoff)


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
