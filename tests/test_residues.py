import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import agrees
from minvec.errors import PrecisionError, SizeGuard
from minvec.residues import (LocalElement, UnitRoot, _require_odd_prime, factorize,
                             is_square_mod_p, psi, unit_enumeration)


def test_from_rational_roundtrip():
    x = LocalElement.from_rational(5, Fraction(50, 7), 6)
    assert x.v == 2
    assert (x.u * 7 - 2) % 5**6 == 0


def test_add_aligns_valuations():
    a = LocalElement.from_rational(3, 9, 6)
    b = LocalElement.from_rational(3, 2, 6)
    s = a + b
    assert s.v == 0 and s.residue(1) == 2 and s.residue(3) == 11
    assert agrees(s - a, b)


def test_cancellation_drops_precision():
    a = LocalElement.from_rational(3, 1 + 3**4, 5)
    b = LocalElement.from_rational(3, 1, 5)
    d = a - b
    assert d.v == 4 and d.M == 1


def test_full_cancellation_is_zero_at_precision():
    a = LocalElement.from_rational(3, 1, 4)
    b = LocalElement(3, 0, 1 + 3**4, 4)  # same residue mod 3^4
    assert (a - b).is_zero


def test_inverse_and_division():
    x = LocalElement.from_rational(7, Fraction(3, 49), 5)
    assert agrees(x * x.inverse(), LocalElement.one(7, 5))


def test_frac_part():
    x = LocalElement.from_rational(3, Fraction(5, 9), 6)
    assert x.frac_part() == Fraction(5, 9)
    assert LocalElement.from_rational(3, 12, 4).frac_part() == 0


def test_psi_trivial_on_integers_nontrivial_on_p_inverse():
    assert psi(LocalElement.from_rational(3, 7, 4)).is_one
    assert not psi(LocalElement.from_rational(3, Fraction(1, 3), 4)).is_one


def test_unit_root_algebra():
    z = UnitRoot(Fraction(1, 3))
    assert (z * z * z).is_one
    assert abs(z.to_complex() - complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))) < 1e-15


def test_unit_root_arithmetic_matches_the_normalizing_constructor():
    # exact and * skip __post_init__; each must give the Fraction in [0, 1)
    # that UnitRoot(r) reduces to
    rs = [Fraction(k, d) for d in (1, 2, 3, 9, 40) for k in range(-d, 2 * d + 1)]
    for r in rs:
        z = UnitRoot(r)
        got, want = [UnitRoot.exact(r.numerator, r.denominator)], [z]
        for s in rs[::5]:
            got.append(z * UnitRoot(s))
            want.append(UnitRoot(r + s))
        for u, w in zip(got, want):
            assert type(u.r) is Fraction and 0 <= u.r < 1 and u.r == w.r
    assert UnitRoot.exact(-7, 7).r == 0


def test_unit_enumeration_counts():
    assert len(unit_enumeration(3, 2)) == 6
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


def test_public_constructors_validate():
    with pytest.raises(ValueError):
        LocalElement(3, 1, 6, 4)          # u not a unit
    with pytest.raises(ValueError):
        LocalElement(3, 1, 2, 0)          # M < 1
    for build in (lambda: LocalElement.zero(3, 0), lambda: LocalElement.from_rational(3, 5, 0),
                  lambda: LocalElement.from_rational(3, Fraction(0), 0),
                  lambda: LocalElement.from_rational(3, Fraction(5, 9), 0)):
        with pytest.raises(ValueError):
            build()


@st.composite
def _local_pairs(draw):
    """Two elements over one p in {3, 5, 7} (v in [-6, 6] and M in [1, 8], or exact
    zeros) and a shift k in [-6, 6]."""
    p = draw(st.sampled_from([3, 5, 7]))

    def element():
        M = draw(st.integers(1, 8))
        if draw(st.integers(0, 5)) == 0:
            return LocalElement.zero(p, M)
        u = draw(st.integers(0, p**M - 1)) * p + draw(st.integers(1, p - 1))
        return LocalElement(p, draw(st.integers(-6, 6)), u, M)

    return element(), element(), draw(st.integers(-6, 6))


def _assert_canonical(x):
    """What the validating constructor would build, with v an int or inf and a
    canonical unit residue."""
    assert LocalElement(x.p, x.v, x.u, x.M) == x
    assert x.M >= 1
    if x.is_zero:
        assert x.v == math.inf and x.u == 0
    else:
        assert type(x.v) is int
        assert 0 <= x.u < x.p**x.M and x.u % x.p != 0


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_local_pairs())
def test_arithmetic_results_are_canonical(pair):
    # only the shape of each result is checked; what cancellation should
    # return is not asserted here
    x, y, k = pair
    results = [x * y, y * x, -x, -y, x.scale_by_power(k), y.scale_by_power(k)]
    for op in (lambda: x + y, lambda: y + x, lambda: x - y, lambda: y - x):
        try:
            results.append(op())
        except PrecisionError:
            pass
    for a, b in ((x, y), (y, x)):
        if not b.is_zero:
            results += [b.inverse(), a * b.inverse()]
    for r in results:
        _assert_canonical(r)
