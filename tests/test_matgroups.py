import dataclasses
import functools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.matgroups import (Mat2Local, TorusSpec, canonical_alpha, decompose_B1T,
                              reassemble_B1T, subgroup_member, torus_extract)
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


def test_torus_products_extract_and_theta_is_multiplicative():
    spec = TorusSpec(5, 1)
    mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])
    t1, t2 = torus_matrix(spec, 2, 3), torus_matrix(spec, 4, 1)
    x, y = torus_extract(t1 * t2, spec)
    # (2 + 3s)(4 + s) = (8 - 3 alpha) + 14 s for s^2 = -alpha
    assert x.agrees_with(LocalElement.from_int(5, 8 - 3 * spec.alpha, spec.precision))
    assert y.agrees_with(LocalElement.from_int(5, 14, spec.precision))
    assert mv.theta_at(t1 * t2) == mv.theta_at(t1) * mv.theta_at(t2)


def test_theta_at_rejects_a_matrix_off_the_torus():
    spec = TorusSpec(3, 1)
    mv = MinimalVectorSpec.build(spec, enumerate_theta(spec)[0])
    with pytest.raises(ValueError, match="not in the canonical torus"):
        mv.theta_at(Mat2Local.from_rationals(3, (1, 1, 0, 1), spec.precision))


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
    u, m, t = decompose_B1T(g, spec, side=side)
    torus_extract(t, spec)  # t really lies in the torus
    assert reassemble_B1T(u, m, t).agrees_with(g)
    # m against the exact rational (ac + alpha bd) / (c^2 + alpha d^2)
    a, b, c, d = entries
    m_exact = (a * c + spec.alpha * b * d) / (c * c + spec.alpha * d * d)
    vm = _valuation(m_exact, p)
    assert m.v == vm
    assert m.agrees_with(LocalElement.from_rational(p, m_exact, 20))
    assert oracle_window(mv, g) == (-vm if vm < -n else n)


def test_decompose_upper_triangular_identity():
    spec = TorusSpec(5, 1)
    g = Mat2Local.from_rationals(5, (3, 7, 0, 1), 8)
    u, m, t = decompose_B1T(g, spec)
    assert u.agrees_with(LocalElement.from_int(5, 3, 8))
    assert m.agrees_with(LocalElement.from_int(5, 7, 8))
    assert t.agrees_with(Mat2Local.identity(5, 8))
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
    # c + alpha*b = 3^4 has valuation 4 < 5 at the entries' precision 12; alpha
    # must carry that precision, since at precision 4 the sum would cancel to a
    # spurious exact zero
    spec = TorusSpec(3, 5)
    g = Mat2Local.from_rationals(3, (0, 1, -spec.alpha + 3**4, 3**5), 12)
    assert not subgroup_member(g, spec, 5)
    assert subgroup_member(g, spec, 4)
