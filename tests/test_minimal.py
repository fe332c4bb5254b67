import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from minvec import minimal
from minvec.characters import ChiEvaluator, MinimalVectorSpec, enumerate_theta
from minvec.cosets import entry_columns, kt_membership_mask, kt_support, random_kt_elements
from minvec.errors import ConfigError, NumericalError, PrecisionError, SizeGuard
from minvec.matgroups import Mat2Local, TorusSpec, a_mat, decompose_B1T, n_mat
from minvec.minimal import (convolution_check, coefficient_density,
                            matrix_coefficient, oracle_window, support_profile,
                            whittaker_closed, whittaker_oracle,
                            whittaker_support_scan, whittaker_unit_sweep)
from minvec.residues import LocalElement, psi
from test_acceptance import RATIO_TOL
from test_matgroups import torus_matrix


def _mv(p, n):
    spec = TorusSpec(p, n)
    return MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])


@pytest.fixture(scope="module")
def mv31():
    return _mv(3, 1)


@pytest.fixture(scope="module")
def mv51():
    return _mv(5, 1)


@pytest.fixture(scope="module")
def mv32():
    return _mv(3, 2)


def test_matrix_coefficient_identity_and_outside(mv31):
    assert matrix_coefficient(mv31, Mat2Local.identity(3, 8)) == 1.0
    g = Mat2Local.from_rationals(3, (1, 1, 0, 1), 8)
    assert matrix_coefficient(mv31, g) == 0.0


def test_matrix_coefficient_magnitude_one_on_support(mv31):
    t = torus_matrix(mv31.torus, 2, 1)
    assert abs(abs(matrix_coefficient(mv31, t)) - 1.0) < 1e-15


def test_density_values():
    assert coefficient_density(MinimalVectorSpec.build(
        TorusSpec(3, 1), enumerate_theta(TorusSpec(3, 1))[0])) == Fraction(1, 6)


def test_convolution_exhaustive_31(mv31):
    rep = convolution_check(mv31, "exhaustive")
    assert rep.ok
    assert rep.density == Fraction(1, 6)
    assert rep.norm_square == Fraction(1, 6)
    assert rep.pairs_checked == 648 * 648


def test_convolution_random_32(mv32):
    rep = convolution_check(mv32, "random", pairs=2000, seed=3)
    assert rep.ok and rep.pairs_checked == 2000


@pytest.mark.parametrize("pairs, error", [(0, "must be >= 1"), (-5, "must be >= 1"),
                                          (2.5, "must be an integer")])
def test_random_scan_rejects_a_pair_count_that_is_not_positive(mv32, monkeypatch, pairs, error):
    def no_draws(*args):
        raise AssertionError("the pair count must be checked before anything is drawn")
    monkeypatch.setattr(minimal, "random_kt_elements", no_draws)
    with pytest.raises(ConfigError, match=error):
        convolution_check(mv32, "random", pairs=pairs)


@pytest.mark.parametrize("mode, seed, error", [("random", -1, "seed must be >= 0"),
                                                ("random", 1.5, "seed must be an integer"),
                                                ("sampled", 0, "mode must be")])
def test_scan_rejects_a_bad_seed_or_mode_before_any_table(mv32, monkeypatch, mode, seed, error):
    def no_work(*args):
        raise AssertionError("the seed and mode must be checked before any table or draw")
    monkeypatch.setattr(minimal, "random_kt_elements", no_work)
    monkeypatch.setattr(minimal, "kt_support", no_work)
    monkeypatch.setattr(ChiEvaluator, "exponents", no_work)
    with pytest.raises(ConfigError, match=error):
        convolution_check(mv32, mode, pairs=50, seed=seed)


def test_random_scan_takes_a_numpy_integer_pair_count(mv32):
    rep = convolution_check(mv32, "random", pairs=np.int64(50), seed=1)
    assert rep.ok and rep.pairs_checked == 50 and type(rep.pairs_checked) is int


def test_exhaustive_scan_beyond_the_bound_raises_at_once(mv32, monkeypatch):
    def no_tables(*args):
        raise AssertionError("the size guard must raise before any table is built")
    monkeypatch.setattr(minimal, "kt_support", no_tables)
    monkeypatch.setattr(ChiEvaluator, "build", classmethod(no_tables))
    with pytest.raises(SizeGuard):
        convolution_check(mv32, "exhaustive")


# -- the scans can fail: a wrong character or a draw outside the support -------

def _shift_chi_at(monkeypatch, target):
    """Make ChiEvaluator.exponents off by one at the matrix `target` (mod p^(2n))."""
    exponents = ChiEvaluator.exponents

    def shifted(self, a, b, c, d):
        out = exponents(self, a, b, c, d).copy()
        pm = self.mv.p ** (2 * self.mv.n)
        mats = np.stack(np.broadcast_arrays(a, b, c, d), axis=1)
        hit = (mats % pm == target.reshape(4) % pm).all(axis=1)
        out[hit] = (out[hit] + 1) % self.L
        return out
    monkeypatch.setattr(ChiEvaluator, "exponents", shifted)


def test_exhaustive_scan_reports_a_wrong_exponent(mv31, monkeypatch):
    _shift_chi_at(monkeypatch, kt_support(mv31.torus)[5])
    rep = convolution_check(mv31, "exhaustive")
    assert rep.multiplicativity_violations > 0 and rep.closure_violations == 0
    assert rep.pairs_checked == 648 * 648


def test_random_scan_reports_a_wrong_exponent(mv32, monkeypatch):
    first_draw = random_kt_elements(mv32.torus, 2000, np.random.default_rng(3))[0]
    _shift_chi_at(monkeypatch, first_draw)
    rep = convolution_check(mv32, "random", pairs=2000, seed=3)
    assert rep.multiplicativity_violations > 0 and rep.closure_violations == 0


def test_random_scan_reports_a_planted_non_member(mv32, monkeypatch):
    outside = np.array([[1, 1], [0, 1]])     # c + alpha b = alpha, a unit
    assert not kt_membership_mask(mv32.torus, *entry_columns(outside[None])).any()
    draws = minimal.random_kt_elements

    def planted(spec, size, rng):
        mats = draws(spec, size, rng)
        mats[0] = outside
        return mats
    monkeypatch.setattr(minimal, "random_kt_elements", planted)
    rep = convolution_check(mv32, "random", pairs=2000, seed=3)
    assert rep.closure_violations > 0 and not rep.ok


# -- the random scan in blocks of pairs -----------------------------------------

BLOCK = 64
BLOCKED_PAIRS = 3 * BLOCK + 5


def test_random_scan_counts_every_pair_across_blocks(mv32, monkeypatch):
    monkeypatch.setattr(minimal, "RANDOM_PAIR_BLOCK", BLOCK)
    rep = convolution_check(mv32, "random", pairs=BLOCKED_PAIRS, seed=3)
    assert rep.ok and rep.pairs_checked == BLOCKED_PAIRS


def test_random_scan_counts_a_non_member_in_every_block(mv32, monkeypatch):
    # planted at the head of every draw, left and right: outside @ outside =
    # [[1, 2], [0, 1]] is outside too, one closure violation per block
    monkeypatch.setattr(minimal, "RANDOM_PAIR_BLOCK", BLOCK)
    outside = np.array([[1, 1], [0, 1]])
    draws, sizes = minimal.random_kt_elements, []

    def planted(spec, size, rng):
        sizes.append(size)
        mats = draws(spec, size, rng)
        mats[0] = outside
        return mats
    monkeypatch.setattr(minimal, "random_kt_elements", planted)
    rep = convolution_check(mv32, "random", pairs=BLOCKED_PAIRS, seed=3)
    assert sizes == [BLOCK] * 6 + [5, 5]
    assert rep.closure_violations == 4 and rep.multiplicativity_violations == 0


def test_random_scan_reports_a_wrong_exponent_in_the_last_block(mv32, monkeypatch):
    # a block draws its left factors, then its right ones, from one stream
    rng = np.random.default_rng(3)
    for _ in range(2 * 3):
        random_kt_elements(mv32.torus, BLOCK, rng)
    _shift_chi_at(monkeypatch, random_kt_elements(mv32.torus, 5, rng)[0])
    monkeypatch.setattr(minimal, "RANDOM_PAIR_BLOCK", BLOCK)
    rep = convolution_check(mv32, "random", pairs=BLOCKED_PAIRS, seed=3)
    assert rep.multiplicativity_violations > 0 and rep.closure_violations == 0


def test_random_scan_memory_does_not_grow_with_the_pair_count(mv32):
    block = minimal.RANDOM_PAIR_BLOCK
    convolution_check(mv32, "random", pairs=8, seed=0)    # tables built outside the trace
    peaks = []
    for pairs in (block, 8 * block):
        tracemalloc.start()
        try:
            assert convolution_check(mv32, "random", pairs=pairs, seed=1).ok
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= minimal.PAIR_BLOCK_BYTES
    assert peaks[1] <= 1.5 * peaks[0]


def test_whittaker_closed_on_diagonal(mv31):
    p, n = 3, 1
    M = 12
    b = mv31.support_unit()
    w = whittaker_closed(mv31, a_mat(LocalElement(p, -2, b, M)))
    assert w.in_support and abs(w.magnitude**2 - (p - 1)) < 1e-12 and w.phase.is_one
    # other unit class: zero
    w2 = whittaker_closed(mv31, a_mat(LocalElement(p, -2, (b + 1) % 3 or 1, M)))
    assert not w2.in_support
    # wrong valuation: zero
    for v in (-3, -1, 0, 1):
        assert not whittaker_closed(mv31, a_mat(LocalElement(p, v, b, M))).in_support


def test_whittaker_left_psi_equivariance(mv31):
    M = 12
    b = mv31.support_unit()
    g = a_mat(LocalElement(3, -2, b, M))
    x = LocalElement.from_rational(3, Fraction(2, 9), M)
    w1 = whittaker_closed(mv31, n_mat(x) * g)
    w0 = whittaker_closed(mv31, g)
    from minvec.residues import psi
    assert w1.in_support
    assert (w1.phase / w0.phase).r == psi(x).r


def test_whittaker_right_eigenvector_law(mv31):
    random.seed(2)
    M = 12
    spec = mv31.torus
    for _ in range(25):
        y = LocalElement(3, random.randint(-3, 0), random.choice([1, 2, 4, 5, 7, 8]), M)
        k = Mat2Local.from_rationals(3, [random.randrange(27) for _ in range(4)], M)
        if k.det.is_zero or k.det.v != 0:
            continue
        g = a_mat(y) * k
        t = torus_matrix(spec, random.choice([1, 2, 4]), random.randrange(9))
        w_g = whittaker_closed(mv31, g)
        w_gt = whittaker_closed(mv31, g * t)
        assert w_g.in_support == w_gt.in_support
        if w_g.in_support:
            assert (w_gt.phase / w_g.phase).r == mv31.theta_at((t.a, t.b)).r


def test_oracle_on_diagonal_support_constant(mv31):
    M = 12
    b = mv31.support_unit()
    vals = []
    for u in (b, b + 3, b + 6):
        w = whittaker_oracle(mv31, a_mat(LocalElement(3, -2, u % 9, M)), level=3)
        vals.append(w)
    assert max(abs(v - vals[0]) for v in vals) < 1e-12
    assert abs(vals[0]) > 0.1


def test_oracle_zero_at_unit_diagonal(mv31):
    M = 12
    assert abs(whittaker_oracle(mv31, a_mat(LocalElement(3, 0, 1, M)), level=3)) < 1e-12


def test_oracle_matches_closed_up_to_global_scalar(mv31):
    random.seed(4)
    M = 14
    ratios = []
    for _ in range(400):
        y = LocalElement(3, random.randint(-3, 0), random.choice([1, 2, 4, 5, 7, 8]), M)
        x = LocalElement.from_rational(3, Fraction(random.randint(-15, 15), 3 ** random.randint(0, 2)), M)
        k = Mat2Local.from_rationals(3, [random.randrange(27) for _ in range(4)], M)
        if k.det.is_zero or k.det.v != 0:
            continue
        g = n_mat(x) * a_mat(y) * k
        wc = whittaker_closed(mv31, g)
        if not wc.in_support:
            continue
        ratios.append(whittaker_oracle(mv31, g, level=3) / wc.to_complex())
    assert len(ratios) > 10
    r0 = ratios[0]
    assert max(abs(r / r0 - 1) for r in ratios) < 1e-9


def test_oracle_refinement_stability(mv31):
    M = 14
    b = mv31.support_unit()
    g = a_mat(LocalElement(3, -2, b, M))
    w3 = whittaker_oracle(mv31, g, level=3)
    w4 = whittaker_oracle(mv31, g, level=4)
    assert abs(w4 - w3) <= 1e-12 * abs(w3)


def test_support_profile_matches_scan(mv31):
    random.seed(9)
    M = 12
    for _ in range(20):
        k = Mat2Local.from_rationals(3, [random.randrange(27) for _ in range(4)], M)
        if k.det.is_zero or k.det.v != 0:
            continue
        b = support_profile(mv31, k)
        assert whittaker_support_scan(mv31, k) == [b]


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)])
def test_identity_support_class_is_the_support_unit(p, n):
    # RamifiedData.build reads the class at the identity as mv.support_unit(),
    # and the CLI's whittaker table is the unit-class sweep at k = 1, whose
    # values are those at a(y) itself, of size phi(p^n) on the support
    spec = TorusSpec(p, n)
    M = spec.precision + 2 * n
    for theta in enumerate_theta(spec)[:3]:
        mv = MinimalVectorSpec.build(spec, theta)
        assert support_profile(mv, Mat2Local.identity(p, spec.precision + 2)) == mv.support_unit()
        sweep = whittaker_unit_sweep(mv, Mat2Local.identity(p, M))
        assert sweep == [(u, whittaker_closed(mv, a_mat(LocalElement(p, -2 * n, u, M))))
                         for u in range(1, p**n) if u % p]
        assert [u for u, w in sweep if w.in_support] == [mv.support_unit()]
        assert mv.magnitude_squared == (p - 1) * p ** (n - 1)


# -- the vectorized oracle against the scalar transform ---------------------------

def _scalar_oracle(mv, g, level, low):
    """The transform one point at a time through LocalElement arithmetic: the
    reference for whittaker_oracle, which evaluates the window in one pass."""
    p, n = mv.p, mv.n
    M = max(mv.torus.precision, 2 * n + level + low + 6)
    c = LocalElement.from_rational(p, Fraction(p ** (2 * n), mv.support_unit()), M)
    ac = a_mat(c)
    total = 0.0 + 0.0j
    weight = float(Fraction(1, p**level))
    for xi in range(p ** (level + low)):
        x = LocalElement.from_rational(p, Fraction(xi, p**low), M)
        val = matrix_coefficient(mv, ac * n_mat(x) * g)
        if val != 0.0:
            total += weight * val * psi(-x).to_complex()
    return total


def _default_window(mv, g):
    _, m, _ = decompose_B1T(g, mv.torus)
    return -int(m.v) if not m.is_zero and m.v < -mv.n else mv.n


def _criterion4_samples(mv, count, seed, windows=None, M=16):
    """g = n(x) a(y) k as in acceptance criterion 4: k with unit determinant and
    entries below p^(2n+1), y in the support class of k at valuation -2n, x with
    denominator p^0, p^1 or p^2; kept when the default window lies in `windows`."""
    p, n = mv.p, mv.n
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = Mat2Local.from_rationals(p, [rng.randrange(p ** (2 * n + 1)) for _ in range(4)], M)
        if k.det.is_zero or k.det.v != 0:
            continue
        b = support_profile(mv, k)
        y = LocalElement(p, -2 * n, (b + p**n * rng.randrange(p**n)) % p ** (2 * n), M)
        x = LocalElement.from_rational(p, Fraction(rng.randint(-15, 15), p ** rng.randint(0, 2)), M)
        g = n_mat(x) * a_mat(y) * k
        if windows is None or _default_window(mv, g) in windows:
            out.append(g)
    return out


def test_oracle_window_matches_the_decomposition(mv31, mv51, mv32):
    for mv, count, seed in ((mv31, 250, 131), (mv51, 150, 151), (mv32, 100, 132)):
        windows = set()
        for g in _criterion4_samples(mv, count, seed):
            low = _default_window(mv, g)
            assert oracle_window(mv, g) == low
            windows.add(low)
        assert len(windows) > 1, (mv.p, mv.n, windows)


def test_oracle_window_is_n_when_m_vanishes(mv31, mv51, mv32):
    # ac + alpha*bd = 0 on diagonal matrices and on the torus, so m = 0
    M = 16
    for mv in (mv31, mv51, mv32):
        p, n, spec = mv.p, mv.n, mv.torus
        gs = [Mat2Local.from_rationals(p, (Fraction(2, p**3), 0, 0, 1), M),
              Mat2Local.from_rationals(p, (1, 0, 0, p), M),
              a_mat(LocalElement(p, -2 * n, mv.support_unit(), M)),
              torus_matrix(spec, 1, 1, M),
              torus_matrix(spec, Fraction(1, p), 2, M).scale_by_power(-1)]
        for g in gs:
            _, m, _ = decompose_B1T(g, spec)
            assert m.is_zero
            assert oracle_window(mv, g) == _default_window(mv, g) == n
            assert whittaker_oracle(mv, g) == whittaker_oracle(mv, g, low=n)


def _assert_matches_scalar(mv, g, level=None, low=None):
    L = level if level is not None else mv.n + 2
    want = _scalar_oracle(mv, g, L, low if low is not None else _default_window(mv, g))
    got = whittaker_oracle(mv, g, level=level, low=low)
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)
    assert abs(want) > 0.1


def test_oracle_matches_scalar_reference_31(mv31):
    gs = _criterion4_samples(mv31, 12, seed=5)
    for g in gs:
        _assert_matches_scalar(mv31, g)
    for level, low in ((3, 2), (4, 2), (3, 3)):
        _assert_matches_scalar(mv31, gs[0], level=level, low=low)


def test_oracle_matches_scalar_reference_51(mv51):
    gs = _criterion4_samples(mv51, 4, seed=6)
    for g in gs[:3]:
        _assert_matches_scalar(mv51, g)
    _assert_matches_scalar(mv51, gs[3], level=2)


def test_oracle_matches_scalar_reference_32(mv32):
    gs = _criterion4_samples(mv32, 2, seed=7, windows={2})
    _assert_matches_scalar(mv32, gs[0])
    _assert_matches_scalar(mv32, gs[1], level=3, low=2)


def test_oracle_matches_scalar_reference_nonintegral_rows(mv31):
    # x below p^(-2n) makes h0 non-integral on part of the window
    M = 16
    k = Mat2Local.from_rationals(3, (1, 2, 4, 3), M)
    y = LocalElement(3, -2, support_profile(mv31, k), M)
    for x in (Fraction(1, 27), Fraction(5, 27), Fraction(1, 81)):
        _assert_matches_scalar(mv31, n_mat(LocalElement.from_rational(3, x, M)) * a_mat(y) * k)


def test_oracle_zero_cases_match_scalar(mv31):
    M = 12
    k = Mat2Local.from_rationals(3, (1, 2, 0, 1), M)
    odd = a_mat(LocalElement(3, -1, 1, M)) * k          # det valuation -1
    assert whittaker_oracle(mv31, odd) == 0
    assert _scalar_oracle(mv31, odd, 3, 1) == 0
    unit = a_mat(LocalElement(3, 0, 1, M))
    assert abs(whittaker_oracle(mv31, unit, level=3)) < 1e-12
    assert abs(_scalar_oracle(mv31, unit, 3, 1)) < 1e-12


def test_oracle_raises_when_digits_run_out(mv32, monkeypatch):
    g16 = _criterion4_samples(mv32, 1, seed=8)[0]
    g = Mat2Local(*(LocalElement(3, e.v, e.u, 2) for e in g16.entries()))

    def scalar_route(mv, h):
        raise AssertionError("the precision guard must raise before the spot check")
    monkeypatch.setattr(minimal, "matrix_coefficient", scalar_route)
    with pytest.raises(PrecisionError):
        whittaker_oracle(mv32, g)


def test_oracle_spot_check_catches_a_wrong_route(mv31, monkeypatch):
    g = _criterion4_samples(mv31, 1, seed=9)[0]
    monkeypatch.setattr(minimal, "matrix_coefficient", lambda mv, h: 1.0 + 0.0j)
    with pytest.raises(NumericalError):
        whittaker_oracle(mv31, g)


# -- the spot check's matrix a(c) n(x0) g, read from its entries ------------------

def _entry_digits(h):
    return [(e.v, e.u, e.M) for e in h.entries()]


def _assert_carries_its_det(h):
    """h carries a det, and ad - bc of its entries has the same valuation and
    agrees with it mod p^M at the precision M both know."""
    assert "det" in vars(h)
    carried, computed = h.det, h.a * h.d - h.b * h.c
    assert carried.is_zero == computed.is_zero
    if not carried.is_zero:
        M = min(carried.M, computed.M)
        assert carried.v == computed.v
        assert carried.scale_by_power(-carried.v).residue(M) == \
            computed.scale_by_power(-computed.v).residue(M)


def test_spot_check_matrix_is_the_product_read_from_its_entries(mv31, mv51, mv32, monkeypatch):
    seen = []
    translate = Mat2Local.left_translate

    def recording(g, c, x0):
        h = translate(g, c, x0)
        seen.append((g, c, x0, h))
        return h
    monkeypatch.setattr(Mat2Local, "left_translate", recording)
    for mv, gs in ((mv31, _criterion4_samples(mv31, 40, seed=141)),
                   (mv51, _criterion4_samples(mv51, 20, seed=151)),
                   (mv32, _criterion4_samples(mv32, 8, seed=132, windows={2, 3, 4}))):
        seen.clear()
        for g in gs:
            whittaker_oracle(mv, g)
        assert [s[0] for s in seen] == gs
        for g, c, x0, h in seen:
            assert _entry_digits(h) == _entry_digits(a_mat(c) * n_mat(x0) * g)
            _assert_carries_its_det(h)


def test_left_translate_on_the_zero_and_odd_valuation_cases(mv31):
    # the matrices of test_oracle_zero_cases_match_scalar, at every x of two
    # windows: zero entries, x = 0, and precisions above and below the
    # entries'; then entries of mixed precision, where a.M and b.M cap the
    # bottom row below min(M, c.M) and min(M, d.M)
    M = 12
    k = Mat2Local.from_rationals(3, (1, 2, 0, 1), M)
    mixed = Mat2Local(LocalElement(3, 0, 1, 8), LocalElement(3, 1, 2, 9),
                      LocalElement(3, -1, 1, 16), LocalElement(3, 0, 4, 16))
    gs = [a_mat(LocalElement(3, -1, 1, M)) * k, a_mat(LocalElement(3, 0, 1, M)), mixed]
    assert [g.det.v for g in gs] == [-1, 0, 0]
    for level, low in ((3, 1), (4, 2)):
        Ms = max(mv31.torus.precision, 2 + level + low + 6)
        c = LocalElement.from_rational(3, Fraction(9, mv31.support_unit()), Ms)
        for g in gs:
            for xi in range(3 ** (level + low)):
                x0 = LocalElement.from_rational(3, Fraction(xi, 3**low), Ms)
                h = g.left_translate(c, x0)
                assert _entry_digits(h) == _entry_digits(a_mat(c) * n_mat(x0) * g)
                _assert_carries_its_det(h)


def test_spot_check_reads_at_most_one_det_from_entries(mv31, monkeypatch):
    computed = []
    det = Mat2Local.det.func
    monkeypatch.setattr(Mat2Local.det, "func", lambda h: computed.append(h) or det(h))
    per_call = []
    coefficient = minimal.matrix_coefficient

    def counting(mv, h):
        before = len(computed)
        out = coefficient(mv, h)
        per_call.append(len(computed) - before)
        return out
    monkeypatch.setattr(minimal, "matrix_coefficient", counting)
    gs = _criterion4_samples(mv31, 20, seed=9)
    for g in gs:
        whittaker_oracle(mv31, g)
    assert len(per_call) == len(gs) and max(per_call) <= 1
    # a matrix built without a det: chi_value reads it once, and g0 carries it
    for g in gs:
        fresh = Mat2Local(*g.entries())
        before = len(computed)
        coefficient(mv31, fresh)
        assert len(computed) - before == 1


@pytest.mark.parametrize("pn", [(3, 1), (5, 1), (3, 2)])
def test_chi_evaluator_theta_table(pn):
    # theta_cd holds theta at the torus factor (x, y) = (d, -c/alpha) of
    # [[a, b], [c, d]], at c*pm + d
    spec = TorusSpec(*pn)
    pm = spec.p ** (2 * spec.n)
    thetas = enumerate_theta(spec)
    for theta in (thetas[0], thetas[-1]):
        ev = ChiEvaluator.build(MinimalVectorSpec.build(spec, theta))
        want = np.full(pm * pm, -1, dtype=np.int64)
        units = np.flatnonzero(theta.presentation.log_table[:, 0] >= 0)
        for z in (divmod(c, pm) for c in units.tolist()):
            r = theta.value(z).r * ev.L
            assert r.denominator == 1  # L is a multiple of theta's order
            x, y = z
            want[(-spec.alpha * y % pm) * pm + x] = int(r)
        assert np.array_equal(ev.theta_cd, want)


def _ratio_spread(mv, gs):
    ratios = []
    for g in gs:
        wc = whittaker_closed(mv, g)
        assert wc.in_support
        ratios.append(whittaker_oracle(mv, g) / wc.to_complex())
    r0 = ratios[0]
    assert abs(r0) > 0
    return max(abs(r / r0 - 1) for r in ratios)


def test_oracle_matches_closed_criterion4_51(mv51):
    assert _ratio_spread(mv51, _criterion4_samples(mv51, 200, seed=51)) < RATIO_TOL


def test_oracle_matches_closed_criterion4_32(mv32):
    gs = _criterion4_samples(mv32, 100, seed=32, windows={2, 3, 4})
    assert {_default_window(mv32, g) for g in gs} == {2, 3, 4}
    assert _ratio_spread(mv32, gs) < RATIO_TOL
