import math
from fractions import Fraction

import pytest

from minvec.errors import PrecisionError, SizeGuard
from minvec.residues import (LocalElement, QuadElement, UnitRoot, _require_odd_prime,
                             factorize, is_square_mod_p, psi, psi_E, psi_of_rational,
                             unit_enumeration)


def test_from_rational_roundtrip():
    x = LocalElement.from_rational(5, Fraction(50, 7), 6)
    assert x.v == 2
    assert (x.u * 7 - 2) % 5**6 == 0


def test_add_aligns_valuations():
    a = LocalElement.from_int(3, 9, 6)
    b = LocalElement.from_int(3, 2, 6)
    s = a + b
    assert s.v == 0 and s.residue(1) == 2 and s.residue(3) == 11
    assert (s - a).agrees_with(b)


def test_cancellation_drops_precision():
    a = LocalElement.from_int(3, 1 + 3**4, 5)
    b = LocalElement.from_int(3, 1, 5)
    d = a - b
    assert d.v == 4 and d.M == 1


def test_full_cancellation_is_zero_at_precision():
    a = LocalElement.from_int(3, 1, 4)
    b = LocalElement(3, 0, 1 + 3**4, 4)  # same residue mod 3^4
    assert (a - b).is_zero


def test_inverse_and_division():
    x = LocalElement.from_rational(7, Fraction(3, 49), 5)
    assert (x * x.inverse()).agrees_with(LocalElement.one(7, 5))
    assert (x / x).agrees_with(LocalElement.one(7, 5))


def test_in_ideal_and_precision_error():
    x = LocalElement.from_int(3, 27, 2)
    assert x.in_ideal(2)
    with pytest.raises(PrecisionError):
        x.in_ideal(6)


def test_frac_part():
    x = LocalElement.from_rational(3, Fraction(5, 9), 6)
    assert x.frac_part() == Fraction(5, 9)
    assert LocalElement.from_int(3, 12, 4).frac_part() == 0


def test_psi_trivial_on_integers_nontrivial_on_p_inverse():
    assert psi(LocalElement.from_int(3, 7, 4)).is_one
    assert not psi(LocalElement.from_rational(3, Fraction(1, 3), 4)).is_one


def test_psi_of_rational_matches_element_route():
    x = Fraction(7, 45)  # 3^-2 * 7/5
    a = psi_of_rational(3, x)
    b = psi(LocalElement.from_rational(3, x, 8))
    assert a.r == b.r


def test_unit_root_algebra():
    z = UnitRoot(Fraction(1, 3))
    assert (z * z * z).is_one
    assert (z ** 2).r == Fraction(2, 3)
    assert abs(z.to_complex() - complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))) < 1e-15


def test_quad_element_norm_trace_conjugate():
    z = QuadElement.from_pair(3, 2, 5, -1, 6)
    n = z.norm()
    assert n.agrees_with(LocalElement.from_int(3, 4 + 25, 6))
    assert z.trace().agrees_with(LocalElement.from_int(3, 4, 6))
    prod = z * z.conjugate()
    assert prod.b.is_zero and prod.a.agrees_with(n)


def test_quad_inverse():
    z = QuadElement.from_pair(5, 2, 3, -2, 6)
    w = z * z.inverse()
    assert w.a.agrees_with(LocalElement.one(5, 6)) and w.b.is_zero


def test_psi_E_uses_trace():
    z = QuadElement.from_pair(3, Fraction(1, 3), 5, -1, 6)
    assert psi_E(z).r == psi(LocalElement.from_rational(3, Fraction(2, 3), 6)).r


def test_unit_enumeration_counts():
    assert len(unit_enumeration(3, 2)) == 6
    assert len(unit_enumeration(3, 1, quadratic=True, delta=-1)) == 8
    with pytest.raises(SizeGuard):
        unit_enumeration(101, 4)


def test_is_square_mod_p():
    assert is_square_mod_p(4, 7)
    assert not is_square_mod_p(3, 7)


def test_factorize_and_odd_prime_check_against_brute_force():
    top = 5000
    primes = [q for q in range(2, top + 1) if all(q % d for d in range(2, q))]
    expect = {n: [] for n in range(1, top + 1)}
    for q in primes:
        for n in range(q, top + 1, q):
            e, r = 0, n
            while r % q == 0:
                r //= q
                e += 1
            expect[n].append((q, e))
    for n in range(1, top + 1):
        assert factorize(n) == expect[n], n
    odd_primes = set(primes) - {2}
    for p in range(-2, top + 1):
        if p in odd_primes:
            _require_odd_prime(p)
        else:
            with pytest.raises(ValueError):
                _require_odd_prime(p)
    with pytest.raises(ValueError):
        factorize(0)
