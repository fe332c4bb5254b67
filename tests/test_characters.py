import math
from fractions import Fraction

import numpy as np
import pytest

from minvec.characters import (AbelianPresentation, ChiEvaluator,
                               MinimalVectorSpec, abelian_structure, chi_value,
                               enumerate_theta, quad_unit_mul,
                               quad_unit_presentation, solve_a_theta,
                               verify_a_theta)
from minvec.cosets import kt_membership_mask, kt_support, random_kt_elements
from minvec.errors import NoSolution, NotInSupport, SizeGuard
from minvec.matgroups import Mat2Local, TorusSpec, torus_embed
from minvec.residues import UnitRoot


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
    assert pres.exponent == 4 and pres.order == 8


def test_abelian_structure_bound():
    with pytest.raises(SizeGuard):
        abelian_structure(list(range(11)), lambda a, b: (a + b) % 11, 0, bound=10)


def test_quad_unit_presentation_structure():
    # units of the quadratic extension mod p: cyclic of order p^2 - 1
    pres = quad_unit_presentation(3, 1, -1)
    assert pres.orders == [8]
    pres2 = quad_unit_presentation(3, 2, -1)
    assert pres2.order == 72 and pres2.exponent == 24
    # dlog is a homomorphism table
    mul = quad_unit_mul(3, 2, -1)
    els = list(pres2.dlog)
    rng = np.random.default_rng(0)
    for _ in range(50):
        z, w = els[rng.integers(len(els))], els[rng.integers(len(els))]
        ez, ew = pres2.dlog[z], pres2.dlog[w]
        expect = tuple((a + b) % d for a, b, d in zip(ez, ew, pres2.orders))
        assert pres2.dlog[mul(z, w)] == expect


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
        t = torus_embed(spec.quad(x, y), spec)
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
