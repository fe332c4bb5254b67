import ast
import inspect
import math
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from minvec.characters import (ChiEvaluator, MinimalVectorSpec, ThetaChar, chi_value,
                               enumerate_theta, quad_unit_presentation, solve_a_theta,
                               verify_a_theta)
from minvec import characters, minimal
from minvec.cosets import (all_distinct, entry_columns, inverse_table, kt_membership_mask,
                           kt_support, mat_keys, mod, mul_mod, product_keys,
                           random_kt_elements)
from minvec.errors import NoSolution, NotInSupport, SizeGuard
from minvec.matgroups import Mat2Local, TorusSpec
from minvec.residues import UnitRoot, factorize, psi_numerator
from test_matgroups import torus_matrix


def test_quad_unit_presentation_structure():
    # units of the quadratic extension mod p: cyclic of order p^2 - 1, and the
    # second factor (the 1-units) is trivial
    pres = quad_unit_presentation(3, 1, -1)
    assert pres.orders == [8, 1]
    pres2 = quad_unit_presentation(3, 2, -1)
    assert pres2.orders == [24, 3] and pres2.exponent == 24
    # the 72 unit codes x*9 + y (x or y prime to 3) are the rows with a log, each whole
    units = np.flatnonzero(pres2.log_table[:, 0] >= 0)
    assert len(units) == 72
    assert units.tolist() == [c for c in range(81) if c // 9 % 3 or c % 9 % 3]
    assert ((pres2.log_table >= 0) == (pres2.log_table[:, :1] >= 0)).all()


def _group_pow(g, k, mul, one):
    out, base = one, g
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def _element_order(g, mul, one, n, primes):
    e = n
    for q in primes:
        while e % q == 0 and _group_pow(g, e // q, mul, one) == one:
            e //= q
    return e


def _min_named_structure_gens(elements, mul, one):
    """The generic invariant-factor search, a reference for
    quad_unit_presentation: over the ascending elements of any finite abelian
    group, g1 is the least element of the largest order, each coset of <g1> is
    named by the minimum over all its elements, the quotient is searched the
    same way, and each of its generators x of order d is lifted to
    x g1^(-c/d), where x^d = g1^c."""
    n = len(elements)
    if n == 1:
        return [], []
    primes = [q for q, _ in factorize(n)]
    orders = [_element_order(g, mul, one, n, primes) for g in elements]
    d1 = max(orders)
    g1 = elements[orders.index(d1)]
    powers = [one]
    for _ in range(d1 - 1):
        powers.append(mul(powers[-1], g1))
    pow_index = {g: k for k, g in enumerate(powers)}
    rep = {}
    for x in elements:
        if x not in rep:
            coset = [mul(x, pk) for pk in powers]
            rep.update(dict.fromkeys(coset, min(coset)))
    q_gens, q_orders = _min_named_structure_gens(sorted(set(rep.values())),
                                                 lambda a, b: rep[mul(a, b)], rep[one])
    gens, orders = [g1], [d1]
    for x, d in zip(q_gens, q_orders):
        c = pow_index[_group_pow(x, d, mul, one)]
        gens.append(mul(x, _group_pow(g1, (-(c // d)) % d1, mul, one)))
        orders.append(d)
    return gens, orders


def _quad_mul(pm, delta):
    return lambda z, w: ((z[0] * w[0] + delta * z[1] * w[1]) % pm,
                         (z[0] * w[1] + z[1] * w[0]) % pm)


# the quadratic unit groups mod p^m at (p, m), with the canonical torus's delta
@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (3, 4), (11, 2)],
                         ids=["quad(3,2)", "quad(5,2)", "quad(7,2)", "quad(3,4)", "quad(11,2)"])
def test_coset_naming_matches_min_over_coset(p, m):
    # generators, orders and every unit's log equal the generic search's
    delta, pm = TorusSpec(p, 1).delta, p**m
    mul = _quad_mul(pm, delta)
    units = [(x, y) for x in range(pm) for y in range(pm) if x % p or y % p]
    gens, orders = _min_named_structure_gens(units, mul, (1, 0))
    want = np.full((pm * pm, len(gens)), -1)
    want[pm] = 0                               # the unit (1, 0)
    for i, (g, d) in enumerate(zip(gens, orders)):
        for z in [divmod(int(c), pm) for c in np.flatnonzero(want[:, 0] >= 0)]:
            e = want[z[0] * pm + z[1]]
            for k in range(1, d):
                z = mul(z, g)
                want[z[0] * pm + z[1]] = e
                want[z[0] * pm + z[1], i] = k
    pres = quad_unit_presentation(p, m, delta)
    # the generators are the codes whose logs are (1, 0) and (0, 1)
    pres_gens = [divmod(int(np.flatnonzero((pres.log_table == row).all(axis=1))[0]), pm)
                 for row in ((1, 0), (0, 1))]
    assert (pres_gens, pres.orders) == (gens, orders)
    assert np.array_equal(pres.log_table, want)


# every buildable torus: p^(4n) <= ENUMERATION_BOUND and a unit group of at
# most STRUCTURE_BOUND elements
_BUILDABLE = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (3, 2)]


@pytest.fixture(scope="module")
def presentations():
    return {(p, n): quad_unit_presentation(p, 2 * n, TorusSpec(p, n).delta)
            for p, n in _BUILDABLE}


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(pn=st.sampled_from(_BUILDABLE), seed=st.integers(0, 2**32 - 1))
def test_log_is_a_homomorphism(presentations, pn, seed):
    # log(zw) = log z + log w mod the orders, on 256 random pairs of units
    pres, delta = presentations[pn], TorusSpec(*pn).delta
    pm = pres.modulus
    units = np.flatnonzero(pres.log_table[:, 0] >= 0)
    z, w = np.random.default_rng(seed).choice(units, size=(2, 256))
    (zx, zy), (wx, wy) = divmod(z, pm), divmod(w, pm)
    zw = (zx * wx + delta * zy * wy) % pm * pm + (zx * wy + zy * wx) % pm
    assert (pres.log_table[z] >= 0).all()
    assert np.array_equal((pres.log_table[z] + pres.log_table[w]) % pres.orders,
                          pres.log_table[zw])


@pytest.mark.parametrize("p,m,delta", [(5, 2, 4), (3, 2, 1), (7, 2, 2), (11, 2, 3)])
def test_square_delta_has_no_presentation(p, m, delta):
    with pytest.raises(NoSolution):
        quad_unit_presentation(p, m, delta)


@pytest.mark.parametrize("p,n,text", [
    (19, 1, "group of order 129960 exceeds the structure bound"),
    (3, 3, "group of order 472392 exceeds the structure bound"),
    (101, 1, "unit enumeration for p=101, m=2 exceeds configured bound"),
], ids=["structure-19-1", "structure-3-3", "enumeration-101-1"])
def test_size_guards_fire_before_any_array(p, n, text, monkeypatch):
    def no_arrays(*args, **kwargs):
        raise AssertionError("an array was built before the size guards")

    monkeypatch.setattr(characters, "_pow", no_arrays)
    monkeypatch.setattr(characters.np, "full", no_arrays)
    with pytest.raises(SizeGuard) as err:
        enumerate_theta(TorusSpec(p, n))
    assert str(err.value) == text


def test_theta_counts():
    assert len(enumerate_theta(TorusSpec(3, 1))) == 8
    assert len(enumerate_theta(TorusSpec(5, 1))) == 24
    assert len(enumerate_theta(TorusSpec(3, 2))) == 72


def test_theta_trivial_on_scalars_and_exact_depth():
    spec = TorusSpec(3, 1)
    for th in enumerate_theta(spec):
        for s in (1, 2, 4, 5, 7, 8):
            assert th.value((s % 9, 0)).is_one
        assert not th.value((1, 3)).is_one
        with pytest.raises(ValueError, match="not a unit"):
            th.value((3, 6))


# -- theta's scalar route, independent of its table -----------------------------

def _fraction_sum_theta(theta, z):
    """theta(z) as the sum of Fractions w_i k_i / d_i over the log (k_i) of z:
    the formula ThetaChar.value's integer sum replaced, kept as a reference."""
    pres = theta.presentation
    e = pres.log_table[z[0] * pres.modulus + z[1]].tolist()
    return UnitRoot(sum(Fraction(w * k, d) for w, k, d in zip(theta.weights, e, pres.orders)))


def test_theta_value_reads_no_table():
    # value is the scalar route that test_chi_evaluator_theta_table checks
    # the table against, so it must not be built from it
    tree = ast.parse(textwrap.dedent(inspect.getsource(ThetaChar.value)))
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "table" not in names


@pytest.mark.parametrize("pn", [(3, 1), (5, 1), (3, 2)])
def test_theta_value_matches_the_fraction_sum_on_every_unit(pn, monkeypatch):
    def no_table(self, L):
        raise AssertionError("ThetaChar.value read ThetaChar.table")
    monkeypatch.setattr(ThetaChar, "table", no_table)
    thetas = enumerate_theta(TorusSpec(*pn))
    for theta in (thetas[0], thetas[len(thetas) // 2], thetas[-1]):
        pres = theta.presentation
        units = np.flatnonzero(pres.log_table[:, 0] >= 0).tolist()
        assert len(units) == pres.modulus**2 - (pres.modulus // pn[0]) ** 2
        for z in (divmod(code, pres.modulus) for code in units):
            got, want = theta.value(z), _fraction_sum_theta(theta, z)
            assert type(got.r) is Fraction and got.r == want.r


def test_a_theta_unique_and_verified():
    for p, n in [(3, 1), (5, 1)]:
        spec = TorusSpec(p, n)
        for th in enumerate_theta(spec):
            a = solve_a_theta(th, spec)
            assert verify_a_theta(th, a, spec)
            # uniqueness: no other unit candidate verifies
            others = [b for b in range(1, p**n) if b % p != 0 and b != a]
            assert not any(verify_a_theta(th, b, spec) for b in others)


def test_chi_is_character_on_random_pairs():
    spec = TorusSpec(3, 1)
    mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[2])
    rng = np.random.default_rng(5)
    mats = random_kt_elements(spec, 200, rng)
    M = spec.precision
    for i in range(0, 200, 2):
        g1 = Mat2Local.from_rationals(3, [int(v) for v in mats[i].ravel()], M)
        g2 = Mat2Local.from_rationals(3, [int(v) for v in mats[i + 1].ravel()], M)
        assert (chi_value(mv, g1) * chi_value(mv, g2)).r == chi_value(mv, g1 * g2).r


def test_chi_restricts_to_theta_on_torus():
    spec = TorusSpec(3, 1)
    mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])
    for (x, y) in [(1, 1), (2, 3), (4, 5), (1, 8)]:
        t = torus_matrix(spec, x, y)
        assert chi_value(mv, t).r == mv.theta.value((x % 9, y % 9)).r


def test_chi_central_normalization():
    spec = TorusSpec(3, 1)
    mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])
    g = Mat2Local.identity(3, 8).scale_by_power(1)   # scalar p
    assert chi_value(mv, g).is_one


def test_chi_not_in_support_raises():
    spec = TorusSpec(3, 1)
    mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])
    g = Mat2Local.from_rationals(3, (1, 1, 0, 1), 8)  # c + alpha*b = 1, not in p
    with pytest.raises(NotInSupport):
        chi_value(mv, g)
    with pytest.raises(NotInSupport):
        chi_value(mv, Mat2Local.from_rationals(3, (3, 0, 0, 1), 8))  # odd det valuation


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_fast_evaluator_matches_slow(p, n):
    spec = TorusSpec(p, n)
    mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[1])
    ev = ChiEvaluator.build(mv)
    rng = np.random.default_rng(7)
    mats = random_kt_elements(spec, 80, rng)
    assert kt_membership_mask(spec, *entry_columns(mats)).all()
    exps = ev.exponents(*entry_columns(mats))
    for i in range(80):
        g = Mat2Local.from_rationals(p, [int(v) for v in mats[i].ravel()], spec.precision)
        assert chi_value(mv, g).r == Fraction(int(exps[i]), ev.L) % 1


def test_support_is_group_closed():
    spec = TorusSpec(3, 1)
    supp = kt_support(spec)
    assert len(supp) == 648
    # closed under inverse: adjugate over determinant stays in the set
    pm = 9
    a, b = supp[:, 0, 0], supp[:, 0, 1]
    c, d = supp[:, 1, 0], supp[:, 1, 1]
    det_inv = inverse_table(pm, 3)[(a * d - b * c) % pm]
    inv_mats = np.stack([d * det_inv % pm, (-b) * det_inv % pm,
                         (-c) * det_inv % pm, a * det_inv % pm], axis=-1).reshape(-1, 2, 2)
    assert kt_membership_mask(spec, *entry_columns(inv_mats)).all()


# -- the det/u2/m2 chain the closed-form evaluator replaced, kept as a reference --

def _chain_exponents(mv, mats):
    """chi exponents in Z/L through the left factorization written out step by
    step: det, u2 = (c^2 + alpha d^2)/(alpha det), m2 = -(ac + alpha bd)/(alpha det),
    the torus factor (x, y) = (u2 a + m2 c, u2 b + m2 d) and m = -m2/u2."""
    p, n, alpha = mv.p, mv.n, mv.torus.alpha
    pm, pn = p ** (2 * n), p**n
    L = math.lcm(mv.theta.presentation.exponent, pn)
    theta_table, inv = mv.theta.table(L).astype(np.int32), inverse_table(pm, p)
    a, b = mats[:, 0, 0] % pm, mats[:, 0, 1] % pm
    c, d = mats[:, 1, 0] % pm, mats[:, 1, 1] % pm
    det = (a * d - b * c) % pm
    den_inv = inv[(alpha * det) % pm]
    u2 = (c * c + alpha * (d * d % pm)) % pm * den_inv % pm
    m2 = (-(a * c + alpha * (b * d % pm))) % pm * den_inv % pm
    x = (u2 * a + m2 * c) % pm
    y = (u2 * b + m2 * d) % pm
    m = (-m2) % pm * inv[u2] % pm
    th = theta_table[x * pm + y]
    psi_e = psi_numerator(-mv.a_theta * alpha * (m // pn)) % pn * (L // pn)
    return (th + psi_e) % L


def _assert_matches_chain(mv, mats):
    ev = ChiEvaluator.build(mv)
    for m in (mats, mats.astype(np.int64)):
        got, want = ev.exponents(*entry_columns(m)), _chain_exponents(mv, m)
        assert got.dtype == want.dtype == m.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p,n,every_theta", [(3, 1, True), (5, 1, True), (7, 1, False),
                                             (3, 2, False)])
def test_closed_form_matches_chain_on_the_whole_support(p, n, every_theta):
    spec = TorusSpec(p, n)
    thetas = enumerate_theta(spec)
    supp = kt_support(spec)
    for theta in (thetas if every_theta else (thetas[0], thetas[-1])):
        _assert_matches_chain(MinimalVectorSpec.build(spec, theta), supp)


@pytest.mark.parametrize("p,n", [(11, 1), (13, 1)])
def test_closed_form_matches_chain_on_random_draws(p, n):
    spec = TorusSpec(p, n)
    thetas = enumerate_theta(spec)
    draws = random_kt_elements(spec, 20000, np.random.default_rng(p))
    for theta in (thetas[0], thetas[len(thetas) // 2], thetas[-1]):
        _assert_matches_chain(MinimalVectorSpec.build(spec, theta), draws)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_closed_form_refactors_every_support_row(p, n):
    # [[u, m], [0, 1]] t(d, -c/alpha) = g mod p^(2n), with u = alpha det / q a
    # unit and p^n | m, for m read from the evaluator's tables
    spec = TorusSpec(p, n)
    alpha, pm, pn = spec.alpha, p ** (2 * n), p**n
    ev = ChiEvaluator.build(MinimalVectorSpec.build(spec, enumerate_theta(spec)[0]))
    supp = kt_support(spec).astype(np.int64)
    a, b, c, d = (supp[:, i, j] for i in (0, 1) for j in (0, 1))
    cd = c * pm + d
    m = (a * ev.m_a[cd] + b * ev.m_b[cd]) % pm
    inv = inverse_table(pm, p)
    q = (c * c + alpha * d * d) % pm
    assert (q % p != 0).all()
    u = alpha * ((a * d - b * c) % pm) % pm * inv[q] % pm
    assert (u % p != 0).all() and (m % pn == 0).all()
    x, y = d, -c * pow(alpha, -1, pm) % pm
    torus = (x, y, -alpha * y % pm, x)
    assert np.array_equal(np.stack(mul_mod((u, m, 0, 1), torus, pm)), np.stack([a, b, c, d]))


def test_all_distinct_matches_unique():
    rng = np.random.default_rng(5)
    for size, top in ((0, 1), (1, 1), (50, 10), (50, 10**6), (2000, 10**4)):
        v = rng.integers(0, top, size=size)
        assert all_distinct(v) == (np.unique(v).size == v.size)
    assert not all_distinct(np.array([[3, 1], [2, 3]]))


# -- the einsum products the entrywise kernels replaced, kept as references ----

def _einsum_factors(spec, tx, ty, aa, bb):
    """The torus factors [[x, y], [-alpha y, x]] and the block factors
    [[1 + p^n a, p^n b], [0, 1]] mod p^(2n), as (., 2, 2) arrays."""
    pm, pn = spec.p ** (2 * spec.n), spec.p**spec.n
    t = np.stack([tx, ty, (-spec.alpha * ty) % pm, tx], axis=-1).reshape(-1, 2, 2)
    b = np.stack([(1 + pn * aa) % pm, (pn * bb) % pm,
                  np.zeros_like(aa), np.ones_like(aa)], axis=-1).reshape(-1, 2, 2)
    return t, b


def _einsum_support(spec):
    p, pm, pn = spec.p, spec.p ** (2 * spec.n), spec.p**spec.n
    xs, ys = np.meshgrid(np.arange(pm), np.arange(pm), indexing="ij")
    unit = (xs % p != 0) | (ys % p != 0)
    aa, bb = np.meshgrid(np.arange(pn), np.arange(pn), indexing="ij")
    t, b = _einsum_factors(spec, xs[unit].astype(np.int64), ys[unit].astype(np.int64),
                           aa.ravel().astype(np.int64), bb.ravel().astype(np.int64))
    return (np.einsum("sij,tjk->stik", t, b) % pm).reshape(-1, 2, 2)


def _support_count(spec):
    """|J| = (p^2 - 1) p^(2(2n-1)) p^(2n): the unit pairs (a, b) mod p^(2n)
    times r, s < p^n."""
    p, n = spec.p, spec.n
    return (p * p - 1) * p ** (2 * (2 * n - 1)) * p ** (2 * n)


def _reference_draws(spec, size, rng):
    """random_kt_elements' stream in int64: one index u below |J|, read as its
    digits s, r < p^n, b1, a1 < p^(2n-1) and k < p^2 - 1, lowest first; then
    (a0, b0) = divmod(k + 1, p), a = p a1 + a0, b = p b1 + b0,
    c = (-alpha b mod p^n) + p^n r and d = (a mod p^n) + p^n s."""
    p, pn, ph = spec.p, spec.p**spec.n, spec.p ** (2 * spec.n - 1)
    u = rng.integers(0, _support_count(spec), size=size, dtype=np.int64)
    u, s = np.divmod(u, pn)
    u, r = np.divmod(u, pn)
    u, b1 = np.divmod(u, ph)
    k, a1 = np.divmod(u, ph)
    a0, b0 = np.divmod(k + 1, p)
    a, b = p * a1 + a0, p * b1 + b0
    c, d = (-spec.alpha * b) % pn + pn * r, a % pn + pn * s
    return np.stack([a, b, c, d], axis=-1).reshape(-1, 2, 2)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_kt_support_matches_einsum_reference(p, n):
    spec = TorusSpec(p, n)
    got, want = kt_support(spec), _einsum_support(spec)
    assert got.dtype == np.int32 and np.array_equal(got, want)


# (53,1) and (7,2) sit just below the int32 bound p^(4n) <= ENUMERATION_BOUND,
# and their |J| is beyond int32, so they take the int64 index; the others the int32 one
@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (53, 1), (7, 2)])
def test_random_draws_and_pair_products_match_einsum_reference(p, n):
    spec = TorusSpec(p, n)
    pm = p ** (2 * n)
    wide = (p, n) in ((53, 1), (7, 2))
    assert _support_count(spec) > 2**31 if wide else _support_count(spec) <= 2**31
    rng = _CountingIndices()
    random_kt_elements(spec, 10, rng)
    assert rng.calls[0][3] == np.dtype(np.int64 if wide else np.int32)
    for seed in (0, 1, 2):
        got = random_kt_elements(spec, 1000, np.random.default_rng(seed))
        want = _reference_draws(spec, 1000, np.random.default_rng(seed))
        assert got.shape == want.shape and got.dtype == np.int32
        assert np.array_equal(got, want)
        prod = np.stack(mul_mod(got.reshape(-1, 4).T, got[::-1].reshape(-1, 4).T, pm),
                        axis=-1).reshape(-1, 2, 2)
        assert np.array_equal(prod, np.einsum("sij,sjk->sik", want, want[::-1]) % pm)


# -- the congruence description random_kt_elements draws from ----------------

@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_congruences_describe_the_torus_block_support(p, n):
    # every (a, b, r, s): a, b mod p^(2n) not both divisible by p, r, s < p^n
    spec = TorusSpec(p, n)
    pm, pn = p ** (2 * n), p**n
    a, b, r, s = (g.ravel() for g in np.meshgrid(*(np.arange(k, dtype=np.int64)
                                                   for k in (pm, pm, pn, pn)), indexing="ij"))
    unit = (a % p != 0) | (b % p != 0)
    mats = np.stack([a, b, (-spec.alpha * b) % pn + pn * r, a % pn + pn * s],
                    axis=-1)[unit].reshape(-1, 2, 2)
    got, want = mat_keys(mats, pm), mat_keys(kt_support(spec).astype(np.int64), pm)
    assert len(got) == len(want) and all_distinct(got)
    assert np.array_equal(np.sort(got), np.sort(want))


def test_random_draws_are_uniform_on_the_support():
    # 200 expected hits per support element at (3,1); the chi-square bound is
    # its mean plus six standard deviations over 647 degrees of freedom
    spec, pm = TorusSpec(3, 1), 9
    keys = np.sort(mat_keys(kt_support(spec), pm))
    draws = np.concatenate([random_kt_elements(spec, 200 * 648 // 4, np.random.default_rng(seed))
                            for seed in range(4)])
    drawn = mat_keys(draws, pm)
    cell = np.searchsorted(keys, drawn)
    assert (keys[np.minimum(cell, len(keys) - 1)] == drawn).all()
    counts = np.bincount(cell, minlength=len(keys))
    assert (counts > 0).all()
    chi_square = float(((counts - 200.0) ** 2 / 200.0).sum())
    assert chi_square < 647 + 6 * math.sqrt(2 * 647)


# (53,1) and (7,2) sit just below the int32 bound p^(4n) <= ENUMERATION_BOUND
@pytest.mark.parametrize("p,n", [(53, 1), (7, 2)])
def test_random_draws_at_the_int32_edge_are_support_elements(p, n):
    spec = TorusSpec(p, n)
    pm = p ** (2 * n)
    mats = random_kt_elements(spec, 20000, np.random.default_rng(p))
    assert mats.dtype == np.int32 and mats.shape == (20000, 2, 2)
    assert all(mats[:, i, j].flags.c_contiguous for i in (0, 1) for j in (0, 1))
    assert mats.min() >= 0 and mats.max() < pm
    assert kt_membership_mask(spec, *entry_columns(mats)).all()
    wide = mats.astype(np.int64)
    det = wide[:, 0, 0] * wide[:, 1, 1] - wide[:, 0, 1] * wide[:, 1, 0]
    assert (det % p != 0).all()


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_no_random_draws_give_an_empty_array(p, n):
    mats = random_kt_elements(TorusSpec(p, n), 0, np.random.default_rng(0))
    assert mats.shape == (0, 2, 2) and mats.dtype == np.int32


class _CountingIndices:
    """A generator stand-in whose integers() returns 0, 1, ..., size - 1 in the
    requested dtype and records each call as (low, high, size, dtype)."""

    def __init__(self):
        self.calls = []

    def integers(self, low, high=None, size=None, dtype=np.int64):
        if high is None:
            low, high = 0, low
        self.calls.append((low, high, size, np.dtype(dtype)))
        return np.arange(size, dtype=dtype)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_index_map_is_a_bijection_onto_the_support(p, n):
    # every index below |J| once gives every support element once
    spec, pm = TorusSpec(p, n), p ** (2 * n)
    count = _support_count(spec)
    rng = _CountingIndices()
    keys = mat_keys(random_kt_elements(spec, count, rng), pm)
    assert rng.calls == [(0, count, count, np.dtype(np.int32))]
    assert len(keys) == count and all_distinct(keys)
    assert np.array_equal(np.sort(keys), np.sort(mat_keys(kt_support(spec), pm)))
    # one bounded draw of exactly `size` indices, with no oversampling
    for size in (0, 1, 1000):
        rng = _CountingIndices()
        assert random_kt_elements(spec, size, rng).shape == (size, 2, 2)
        assert rng.calls == [(0, count, size, np.dtype(np.int32))]


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1)])
def test_block_keys_match_einsum_reference(p, n):
    pm = p ** (2 * n)
    supp = kt_support(TorusSpec(p, n))
    block = minimal.PAIR_BLOCK_BYTES // (len(supp) * 4)
    left = supp[len(supp) // 2:][:block]
    want = mat_keys(np.einsum("aij,bjk->abik", left, supp) % pm, pm).reshape(len(left), -1)
    got = product_keys(left.astype(np.int32), supp.astype(np.int32), pm)
    assert np.array_equal(got, want)


class _NoDraws:
    """A generator stand-in that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError("the size guard must raise before anything is drawn")


@pytest.mark.parametrize("p,n", [(59, 1), (3, 4), (11, 2)])
def test_random_draws_beyond_the_int32_bound_raise_at_once(p, n):
    # p^(4n) > ENUMERATION_BOUND: int32 could not hold the entry products
    with pytest.raises(SizeGuard):
        random_kt_elements(TorusSpec(p, n), 10, _NoDraws())


_LAYOUT_SPECS = [(3, 1), (5, 1), (7, 1), (3, 2)]


@pytest.fixture(scope="module")
def layout_mvs():
    return {(p, n): MinimalVectorSpec.build(TorusSpec(p, n), enumerate_theta(TorusSpec(p, n))[1])
            for p, n in _LAYOUT_SPECS}


@pytest.mark.parametrize("p,n", _LAYOUT_SPECS)
def test_support_arrays_are_int32_entry_major(p, n, layout_mvs):
    spec = TorusSpec(p, n)
    for mats in (kt_support(spec), random_kt_elements(spec, 50, np.random.default_rng(0))):
        assert mats.dtype == np.int32 and mats.shape[1:] == (2, 2)
        assert all(mats[:, i, j].flags.c_contiguous for i in (0, 1) for j in (0, 1))
        assert layout_mvs[p, n].chi_evaluator.exponents(*entry_columns(mats)).dtype == np.int32


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(pn=st.sampled_from(_LAYOUT_SPECS), seed=st.integers(0, 2**32 - 1),
       size=st.integers(1, 12))
def test_exponents_agree_across_layouts_dtypes_and_the_scalar_route(layout_mvs, pn, seed, size):
    p, n = pn
    mv = layout_mvs[pn]
    ev = mv.chi_evaluator
    mats = random_kt_elements(mv.torus, size, np.random.default_rng(seed))
    got = ev.exponents(*entry_columns(mats))
    row_major = np.array(mats, dtype=np.int64, order="C")
    assert row_major.flags.c_contiguous
    assert np.array_equal(ev.exponents(*entry_columns(row_major)), got)
    for g, e in zip(row_major, got):
        h = Mat2Local.from_rationals(p, [int(v) for v in g.ravel()], mv.torus.precision)
        assert chi_value(mv, h).r == Fraction(int(e), ev.L) % 1


# -- mod, the floor-division residue of the pair kernels ------------------------

_MOD_SPECS = [(3, 1), (5, 1), (3, 2)]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(x=hnp.arrays(st.sampled_from([np.int16, np.int32, np.int64]),
                    hnp.array_shapes(max_dims=2, max_side=40)),
       pn=st.sampled_from(_MOD_SPECS), data=st.data())
def test_mod_is_the_remainder_in_the_input_dtype(layout_mvs, x, pn, data):
    # the kernels' moduli p^k, k <= 2n, and the exponent modulus L, on
    # whole-range entries (negative ones and the dtype's extremes included),
    # read contiguously or through a strided view
    p, n = pn
    m = data.draw(st.sampled_from([p**k for k in range(1, 2 * n + 1)]
                                  + [layout_mvs[pn].chi_evaluator.L]))
    x = x[::-1, ::2] if x.ndim == 2 and data.draw(st.booleans()) else x
    got = mod(x, m)
    assert got.dtype == x.dtype and got.shape == x.shape
    assert np.array_equal(got, x % m)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_membership_mask_matches_remainder_reference_on_every_matrix_mod_9(dtype):
    # all 9^4 matrices mod 9 at (3,1): off the support, singular, and 2916
    # of them with a - d < 0
    spec = TorusSpec(3, 1)
    mats = np.stack(np.meshgrid(*[np.arange(9, dtype=dtype)] * 4, indexing="ij"),
                    axis=-1).reshape(-1, 2, 2)
    a, b, c, d = (mats[:, i, j].astype(np.int64) for i in (0, 1) for j in (0, 1))
    want = ((a - d) % 3 == 0) & ((c + spec.alpha * b) % 3 == 0)
    got = kt_membership_mask(spec, *entry_columns(mats))
    assert len(mats) == 6561 and (a < d).sum() == 2916
    assert np.array_equal(got, want) and got.sum() == 729
    assert np.isin(mat_keys(kt_support(spec), 9), mat_keys(mats[got], 9)).all()
