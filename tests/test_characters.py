import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minvec.characters import (AbelianPresentation, ChiEvaluator,
                               MinimalVectorSpec, abelian_structure, chi_value,
                               enumerate_theta, quad_unit_mul,
                               quad_unit_presentation, solve_a_theta,
                               verify_a_theta)
from minvec import characters, minimal
from minvec.cosets import (kt_membership_mask, kt_support, mat_keys, mul_mod, product_keys,
                           random_kt_elements)
from minvec.errors import NoSolution, NotInSupport, SizeGuard
from minvec.matgroups import Mat2Local, TorusSpec
from minvec.residues import UnitRoot, factorize
from test_matgroups import torus_matrix


def test_abelian_structure_cyclic():
    els = list(range(12))
    pres = abelian_structure(els, lambda a, b: (a + b) % 12, 0)
    assert sorted(pres.orders, reverse=True) == [12]
    assert pres.dlog[5] != pres.dlog[7]
    assert len(pres.dlog) == 12


def test_abelian_structure_product():
    els = [(a, b) for a in range(4) for b in range(2)]
    pres = abelian_structure(els, lambda x, y: ((x[0] + y[0]) % 4, (x[1] + y[1]) % 2), (0, 0))
    assert sorted(pres.orders) == [2, 4]
    assert pres.exponent == 4 and len(pres.dlog) == 8


def test_abelian_structure_bound():
    with pytest.raises(SizeGuard):
        abelian_structure(list(range(11)), lambda a, b: (a + b) % 11, 0, bound=10)


def test_quad_unit_presentation_structure():
    # units of the quadratic extension mod p: cyclic of order p^2 - 1
    pres = quad_unit_presentation(3, 1, -1)
    assert pres.orders == [8]
    pres2 = quad_unit_presentation(3, 2, -1)
    assert len(pres2.dlog) == 72 and pres2.exponent == 24
    # dlog is a homomorphism table
    mul = quad_unit_mul(3, 2, -1)
    els = list(pres2.dlog)
    rng = np.random.default_rng(0)
    for _ in range(50):
        z, w = els[rng.integers(len(els))], els[rng.integers(len(els))]
        ez, ew = pres2.dlog[z], pres2.dlog[w]
        expect = tuple((a + b) % d for a, b, d in zip(ez, ew, pres2.orders))
        assert pres2.dlog[mul(z, w)] == expect


def _min_named_structure_gens(elements, mul, one):
    """Reference for characters._structure_gens: each coset of <g1> is named by
    the minimum over all its elements, |G| * ord(g1) multiplications."""
    n = len(elements)
    if n == 1:
        return [], []
    primes = [q for q, _ in factorize(n)]
    best, best_ord = None, 0
    for g in elements:
        o = characters._element_order(g, mul, one, n, primes)
        if o > best_ord or (o == best_ord and g < best):
            best, best_ord = g, o
    g1, d1 = best, best_ord
    powers = [one]
    for _ in range(d1 - 1):
        powers.append(mul(powers[-1], g1))
    pow_index = {g: k for k, g in enumerate(powers)}
    rep = {x: min(mul(x, pk) for pk in powers) for x in elements}
    q_gens, q_orders = _min_named_structure_gens(sorted(set(rep.values())),
                                                 lambda a, b: rep[mul(a, b)], rep[one])
    gens, orders = [g1], [d1]
    for x, d in zip(q_gens, q_orders):
        c = pow_index[characters._group_pow(x, d, mul, one)]
        gens.append(mul(x, characters._group_pow(g1, (-(c // d)) % d1, mul, one)))
        orders.append(d)
    return gens, orders


def _cyclic_product(*ds):
    els = list(itertools.product(*(range(d) for d in ds)))
    return abelian_structure(els, lambda x, y: tuple((a + b) % d for a, b, d in zip(x, y, ds)),
                             (0,) * len(ds))


# the quadratic unit groups mod p^m at (p, m), with the canonical torus's delta
@pytest.mark.parametrize("present", [
    *(lambda p=p, m=m: quad_unit_presentation(p, m, TorusSpec(p, 1).delta)
      for p, m in [(3, 2), (5, 2), (7, 2), (3, 4)]),
    lambda: _cyclic_product(12), lambda: _cyclic_product(4, 2), lambda: _cyclic_product(4, 4, 2),
], ids=["quad(3,2)", "quad(5,2)", "quad(7,2)", "quad(3,4)", "Z/12", "Z/4xZ/2", "Z/4xZ/4xZ/2"])
def test_coset_naming_matches_min_over_coset(present, monkeypatch):
    fast = present()
    monkeypatch.setattr(characters, "_structure_gens", _min_named_structure_gens)
    ref = present()
    assert (fast.generators, fast.orders, fast.dlog) == (ref.generators, ref.orders, ref.dlog)


def test_theta_counts():
    assert len(enumerate_theta(TorusSpec(3, 1))) == 8
    assert len(enumerate_theta(TorusSpec(5, 1))) == 24
    assert len(enumerate_theta(TorusSpec(3, 2))) == 72


def test_theta_trivial_on_scalars_and_exact_depth():
    spec = TorusSpec(3, 1)
    for th in enumerate_theta(spec):
        for s in (1, 2, 4, 5, 7, 8):
            assert th.is_trivial_on((s % 9, 0))
        assert not th.is_trivial_on((1, 3))


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
    assert kt_membership_mask(mats, spec).all()
    exps = ev.exponents(mats)
    for i in range(80):
        g = Mat2Local.from_rationals(p, [int(v) for v in mats[i].ravel()], spec.precision)
        assert chi_value(mv, g).r == Fraction(int(exps[i]), ev.L) % 1


def test_support_is_group_closed():
    spec = TorusSpec(3, 1)
    supp = kt_support(spec)
    assert len(supp) == 648
    mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])
    ev = ChiEvaluator.build(mv)
    # closed under inverse: adjugate over determinant stays in the set
    pm = 9
    a, b = supp[:, 0, 0], supp[:, 0, 1]
    c, d = supp[:, 1, 0], supp[:, 1, 1]
    det_inv = ev.inv[(a * d - b * c) % pm]
    inv_mats = np.stack([d * det_inv % pm, (-b) * det_inv % pm,
                         (-c) * det_inv % pm, a * det_inv % pm], axis=-1).reshape(-1, 2, 2)
    assert kt_membership_mask(inv_mats, spec).all()


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


def _einsum_draws(spec, size, rng):
    """random_kt_elements' draws, multiplied out by einsum."""
    p, pm, pn = spec.p, spec.p ** (2 * spec.n), spec.p**spec.n
    tx, ty = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        cx = rng.integers(0, pm, size=2 * (size - filled) + 8, dtype=np.int64)
        cy = rng.integers(0, pm, size=len(cx), dtype=np.int64)
        good = (cx % p != 0) | (cy % p != 0)
        take = min(int(good.sum()), size - filled)
        tx[filled:filled + take] = cx[good][:take]
        ty[filled:filled + take] = cy[good][:take]
        filled += take
    aa = rng.integers(0, pn, size=size, dtype=np.int64)
    bb = rng.integers(0, pn, size=size, dtype=np.int64)
    t, b = _einsum_factors(spec, tx, ty, aa, bb)
    return np.einsum("sij,sjk->sik", t, b) % pm


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_kt_support_matches_einsum_reference(p, n):
    spec = TorusSpec(p, n)
    got, want = kt_support(spec), _einsum_support(spec)
    assert got.dtype == np.int32 and np.array_equal(got, want)


# (53,1) and (7,2) sit just below the int32 bound p^(4n) <= ENUMERATION_BOUND
@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (53, 1), (7, 2)])
def test_random_draws_and_pair_products_match_einsum_reference(p, n):
    spec = TorusSpec(p, n)
    pm = p ** (2 * n)
    for seed in (0, 1, 2):
        got = random_kt_elements(spec, 1000, np.random.default_rng(seed))
        want = _einsum_draws(spec, 1000, np.random.default_rng(seed))
        assert got.shape == want.shape and got.dtype == np.int32
        assert np.array_equal(got, want)
        prod = np.stack(mul_mod(got.reshape(-1, 4).T, got[::-1].reshape(-1, 4).T, pm),
                        axis=-1).reshape(-1, 2, 2)
        assert np.array_equal(prod, np.einsum("sij,sjk->sik", want, want[::-1]) % pm)


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
        assert layout_mvs[p, n].chi_evaluator.exponents(mats).dtype == np.int32


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(pn=st.sampled_from(_LAYOUT_SPECS), seed=st.integers(0, 2**32 - 1),
       size=st.integers(1, 12))
def test_exponents_agree_across_layouts_dtypes_and_the_scalar_route(layout_mvs, pn, seed, size):
    p, n = pn
    mv = layout_mvs[pn]
    ev = mv.chi_evaluator
    mats = random_kt_elements(mv.torus, size, np.random.default_rng(seed))
    got = ev.exponents(mats)
    row_major = np.array(mats, dtype=np.int64, order="C")
    assert row_major.flags.c_contiguous
    assert np.array_equal(ev.exponents(row_major), got)
    for g, e in zip(row_major, got):
        h = Mat2Local.from_rationals(p, [int(v) for v in g.ravel()], mv.torus.precision)
        assert chi_value(mv, h).r == Fraction(int(e), ev.L) % 1
