from fractions import Fraction

import pytest

from minvec.characters import MinimalVectorSpec, enumerate_theta
from minvec.errors import ConfigError
from minvec.matgroups import TorusSpec
from minvec.que import QueReport, conductor_pair, distinguished, que_period, vol_KT


def test_conductor_pair_values():
    assert conductor_pair(3, 1) == 81
    assert conductor_pair(5, 1) == 625
    assert conductor_pair(3, 2) == 6561


def test_vol_and_normalization_exact():
    for p in (3, 5, 7):
        for n in (1, 2):
            v = vol_KT(p, n)
            assert v == Fraction(1, p ** (2 * n - 1) * (p - 1))
            assert p ** (2 * n) * v == Fraction(p, p - 1)


def test_que_period_spherical():
    r = que_period(TorusSpec(3, 1))
    assert r.vol_KT == Fraction(1, 6)
    assert r.H == pytest.approx(1 / 6)
    assert r.normalized == pytest.approx(3 / 2)
    r5 = que_period(TorusSpec(5, 1))
    assert r5.H == pytest.approx(1 / 20) and r5.normalized == pytest.approx(5 / 4)


def test_que_period_independent_of_theta():
    # H for the spherical map depends only on (p, n), not which theta: the
    # minimal vectors of every theta at (3, 1) give one H
    spec = TorusSpec(3, 1)
    hs = {que_period(MinimalVectorSpec.build(spec, th).torus).H for th in enumerate_theta(spec)}
    assert hs == {que_period(spec).H}


def test_distinguished_parity():
    assert distinguished(0, 1) is True
    assert distinguished(1, 1) is False
    assert distinguished(2, 1) is True
    with pytest.raises(ConfigError):
        distinguished(3, 1)  # violates 4n >= 2 a3


def test_period_times_conductor_sqrt():
    r = que_period(TorusSpec(3, 1))
    assert r.H == pytest.approx(1 / 6)
    # H * Cond^{1/2} = q^{2n} H = q/(q-1)
    assert r.H * conductor_pair(3, 1) ** 0.5 == pytest.approx(3 / 2)
    r7 = que_period(TorusSpec(7, 1))
    assert r7.H * 49 == pytest.approx(7 / 6)
