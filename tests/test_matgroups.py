import dataclasses
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import agrees
from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.cosets import entry_columns, kt_membership_mask, random_kt_elements
from minvec.errors import PrecisionError
from minvec.matgroups import (Mat2Local, TorusSpec, canonical_alpha, decompose_B1T,
                              reassemble_B1T, subgroup_member)
from minvec.minimal import oracle_window
from minvec.residues import LocalElement, is_square_mod_p


def torus_matrix(spec, x, y, M=None):
    """x + y*sqrt(-alpha) as the torus matrix [[x, y], [-alpha*y, x]]."""
    return Mat2Local.from_rationals(spec.p, (x, y, -spec.alpha * y, x), M or spec.precision)


def test_canonical_alpha_values():
    assert canonical_alpha(3) == 1
    assert canonical_alpha(5) == 2
    assert canonical_alpha(7) == 1
    for p in (3, 5, 7, 11, 13):
        assert not is_square_mod_p(-canonical_alpha(p) % p, p)


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_torus_spec_needs_an_odd_prime(p):
    # alpha is computed from p, so p itself is what is checked
    with pytest.raises(ValueError, match="odd prime"):
        TorusSpec(p, 1)


@pytest.mark.parametrize("pn", [(5, 1), (3, 2)], ids=["p5n1", "p3n2"])
def test_theta_is_multiplicative_on_torus_pairs(pn):
    # E's product (x1 + y1 s)(x2 + y2 s) = (x1 x2 - alpha y1 y2) + (x1 y2 + x2 y1) s
    # for s^2 = -alpha, which the torus matrices multiply as, on random unit pairs
    spec = TorusSpec(*pn)
    p, alpha, M = spec.p, spec.alpha, spec.precision
    thetas = enumerate_theta(spec)
    rng = random.Random(7)

    def unit_pair():
        while True:
            x, y = rng.randrange(p ** (2 * spec.n)), rng.randrange(p ** (2 * spec.n))
            if x % p or y % p:
                return x, y

    for theta in (thetas[0], thetas[-1]):
        mv = MinimalVectorSpec.build(spec, theta)
        for _ in range(60):
            (x1, y1), (x2, y2) = unit_pair(), unit_pair()
            x, y = x1 * x2 - alpha * y1 * y2, x1 * y2 + x2 * y1
            assert agrees(torus_matrix(spec, x1, y1) * torus_matrix(spec, x2, y2),
                          torus_matrix(spec, x, y))
            t1, t2, t = ((LocalElement.from_rational(p, a, M), LocalElement.from_rational(p, b, M))
                         for a, b in ((x1, y1), (x2, y2), (x, y)))
            assert mv.theta_at(t) == mv.theta_at(t1) * mv.theta_at(t2)


def test_det_is_cached_and_not_a_field():
    g = Mat2Local.from_rationals(3, (2, Fraction(5, 3), 7, 1), 8)
    h = Mat2Local(*g.entries())
    det = g.det
    assert det == g.a * g.d - g.b * g.c
    assert g.det is det
    assert [f.name for f in dataclasses.fields(Mat2Local)] == ["a", "b", "c", "d"]
    # h has not read its det: ==, hash and repr must not depend on it
    assert "det" not in vars(h)
    assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
    assert "det" not in repr(g)


def _digits(e):
    return (e.v, e.u, e.M)


@pytest.mark.parametrize("entries", [(2, Fraction(5, 3), 7, 1), (1, 2, 2, 4), (0, 1, 3, 0),
                                     (Fraction(1, 9), 0, 0, 27)])
def test_scale_by_power_carries_a_read_det(entries):
    # p^(2k) det is exactly ad - bc of the entries scaled by p^k, digit for
    # digit, a cancelled (zero) det included; an unread det is not carried
    g = Mat2Local.from_rationals(3, entries, 8)
    for k in (-2, -1, 1, 3):
        assert "det" not in vars(g.scale_by_power(k))
    g.det
    for k in (-2, -1, 1, 3):
        h = g.scale_by_power(k)
        assert "det" in vars(h)
        assert _digits(h.det) == _digits(Mat2Local(*h.entries()).det)


def _valuation(x: Fraction, p: int) -> float:
    """v_p of an exact rational, math.inf at 0."""
    if x == 0:
        return math.inf
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


@functools.cache
def _minimal_vector(p, n):
    spec = TorusSpec(p, n)
    return MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])


@st.composite
def _invertible_matrices(draw):
    """(p, n) in (3,1), (5,1), (7,1), (3,2) and the entries of an invertible g:
    numerators in [-p^3, p^3] over p^0, p^1 or p^2, so det takes any valuation.
    Tracked at precision 20, above the at most 10 digits that ad - bc or
    ac + alpha bd can cancel with such entries: times p^4 either is an
    integer below (1 + alpha) p^10 < p^11."""
    p, n = draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2)]))
    entries = [Fraction(draw(st.integers(-p**3, p**3)), p ** draw(st.integers(0, 2)))
               for _ in range(4)]
    a, b, c, d = entries
    assume(a * d != b * c)
    return p, n, entries


# side="left" is the one value the keyword accepts; perfbench/workloads.py passes it
@pytest.mark.parametrize("side", ["left"])
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=_invertible_matrices())
def test_decompose_roundtrip_random(side, case):
    p, n, entries = case
    mv = _minimal_vector(p, n)
    spec = mv.torus
    g = Mat2Local.from_rationals(p, entries, 20)
    u, m, (x, y) = decompose_B1T(g, spec, side=side)
    # the torus pair is (d, -c/alpha), and [[u, m], [0, 1]] [[x, y], [-alpha y, x]] = g
    a, b, c, d = entries
    assert x == g.d
    assert agrees(y, LocalElement.from_rational(p, -c / spec.alpha, 20))
    assert agrees(reassemble_B1T(u, m, (x, y), spec), g)
    # m against the exact rational (ac + alpha bd) / (c^2 + alpha d^2)
    m_exact = (a * c + spec.alpha * b * d) / (c * c + spec.alpha * d * d)
    vm = _valuation(m_exact, p)
    assert m.v == vm
    assert agrees(m, LocalElement.from_rational(p, m_exact, 20))
    assert oracle_window(mv, g) == (-vm if vm < -n else n)


def test_decompose_upper_triangular_identity():
    spec = TorusSpec(5, 1)
    g = Mat2Local.from_rationals(5, (3, 7, 0, 1), 8)
    u, m, (x, y) = decompose_B1T(g, spec)
    assert agrees(u, LocalElement.from_rational(5, 3, 8))
    assert agrees(m, LocalElement.from_rational(5, 7, 8))
    assert agrees(x, LocalElement.one(5, 8)) and y.is_zero
    with pytest.raises(ValueError, match="side"):
        decompose_B1T(g, spec, side="right")


@pytest.mark.parametrize("entries", [(0, 0, 0, 0), (1, 2, 3, 6)])
def test_decompose_rejects_a_singular_matrix(entries):
    with pytest.raises(ValueError, match="not invertible"):
        decompose_B1T(Mat2Local.from_rationals(3, entries, 8), TorusSpec(3, 1))


def test_subgroup_predicates():
    spec = TorusSpec(3, 1)
    M = 8
    # a = d, but c + alpha*b = 0 + 1*1 is a unit: out at r = 1, in at r = 0
    k = Mat2Local.from_rationals(3, (1, 1, 0, 1), M)
    assert not subgroup_member(k, spec, 1) and subgroup_member(k, spec, 0)
    # a - d = 3 and c + alpha*b = 9 + 3: in at r = 1, out at r = 2
    kr = Mat2Local.from_rationals(3, (4, 3, 9, 1), M)
    assert subgroup_member(kr, spec, 1) and not subgroup_member(kr, spec, 2)
    # non-unit determinant, non-integral entry
    assert not subgroup_member(kr.scale_by_power(1), spec, 1)
    assert not subgroup_member(Mat2Local.from_rationals(3, (1, Fraction(1, 3), 0, 1), M), spec, 0)


def test_KT_contains_torus_and_block_and_products():
    spec = TorusSpec(3, 1)
    t = torus_matrix(spec, 2, 5)
    assert subgroup_member(t, spec, 1)
    b = Mat2Local.from_rationals(3, (4, 3, 0, 1), 8)
    assert subgroup_member(b, spec, 1)
    assert subgroup_member(t * b, spec, 1)
    assert subgroup_member(b * t, spec, 1)


def test_KT_alpha_takes_the_entries_precision():
    # c + alpha*b = 3^4 has valuation 4 < 5; alpha is an int, so the congruence
    # is decided on the entries' residues mod 3^r, known at precision 12, and
    # no truncated sum can cancel to a spurious exact zero
    spec = TorusSpec(3, 5)
    g = Mat2Local.from_rationals(3, (0, 1, -spec.alpha + 3**4, 3**5), 12)
    assert not subgroup_member(g, spec, 5)
    assert subgroup_member(g, spec, 4)


def test_KT_membership_needs_the_entries_mod_p_r():
    # a = d known only mod 3^2: a - d cancels to an exact zero that claims every
    # digit, but membership at r = 3 reads a mod 3^3, which nobody knows
    spec = TorusSpec(3, 1)
    one, zero = LocalElement(3, 0, 1, 2), LocalElement.zero(3, 2)
    g = Mat2Local(one, zero, zero, one)
    assert subgroup_member(g, spec, 2)
    with pytest.raises(PrecisionError):
        subgroup_member(g, spec, 3)


@st.composite
def _unit_det_matrices(draw):
    """A level among (3,1), (5,1), (3,2) and integer matrices mod p^(2n) with
    a unit determinant: uniform ones by rejection and support draws of
    random_kt_elements, which lie in K_T(p^n)."""
    spec = TorusSpec(*draw(st.sampled_from([(3, 1), (5, 1), (3, 2)])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pm = spec.p ** (2 * spec.n)
    uniform = rng.integers(0, pm, size=(64, 2, 2))
    det = uniform[:, 0, 0] * uniform[:, 1, 1] - uniform[:, 0, 1] * uniform[:, 1, 0]
    mats = np.concatenate([uniform[det % spec.p != 0], random_kt_elements(spec, 8, rng)])
    return spec, mats


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_unit_det_matrices())
def test_KT_membership_agrees_with_the_array_mask(case):
    spec, mats = case
    want = kt_membership_mask(spec, *entry_columns(mats))
    got = [subgroup_member(Mat2Local.from_rationals(spec.p, [int(e) for e in g.ravel()],
                                                    spec.precision), spec, spec.n)
           for g in mats]
    assert got == want.tolist()
    assert want.any() and not want.all()
