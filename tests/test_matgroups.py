import dataclasses
import random
from fractions import Fraction

import pytest

from minvec.errors import DiscriminantMismatch
from minvec.matgroups import (Mat2Local, TorusSpec, a_mat, canonical_alpha,
                              canonicalize_torus, decompose_B1T, hensel_sqrt,
                              left_m_valuation, n_mat, reassemble_B1T, subgroup_member,
                              torus_conjugation_matrix, torus_embed,
                              torus_extract, w_alpha)
from minvec.residues import LocalElement, QuadElement, is_square_mod_p


def test_canonical_alpha_values():
    assert canonical_alpha(3) == 1
    assert canonical_alpha(5) == 2
    assert canonical_alpha(7) == 1
    for p in (3, 5, 7, 11, 13):
        assert not is_square_mod_p(-canonical_alpha(p) % p, p)


def test_torus_embed_multiplicative_and_extract():
    spec = TorusSpec(5, 1)
    z1, z2 = spec.quad(2, 3), spec.quad(4, 1)
    m = torus_embed(z1, spec) * torus_embed(z2, spec)
    assert m.agrees_with(torus_embed(z1 * z2, spec))
    back = torus_extract(torus_embed(z1, spec), spec)
    assert back.a.agrees_with(z1.a) and back.b.agrees_with(z1.b)


def test_w_alpha_squares_to_minus_alpha():
    spec = TorusSpec(7, 1)
    w = w_alpha(spec)
    sq = w * w
    minus_alpha = LocalElement.from_int(7, -spec.alpha, 8)
    assert sq.a.agrees_with(minus_alpha) and sq.d.agrees_with(minus_alpha)
    assert sq.b.is_zero and sq.c.is_zero


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


def test_det_matches_norm():
    spec = TorusSpec(3, 1)
    z = spec.quad(2, 7)
    assert torus_embed(z, spec).det.agrees_with(z.norm())


@pytest.mark.parametrize("side", ["left", "right"])
def test_decompose_roundtrip_random(side):
    random.seed(11)
    spec = TorusSpec(3, 1)
    for _ in range(40):
        ents = [Fraction(random.randint(-40, 40), 3 ** random.randint(0, 1)) for _ in range(4)]
        g = Mat2Local.from_rationals(3, ents, 10)
        if g.det.is_zero:
            continue
        u, m, t = decompose_B1T(g, spec, side)
        torus_extract(t, spec)  # t really lies in the torus
        assert reassemble_B1T(u, m, t, side).agrees_with(g)
        if side == "left":
            assert left_m_valuation(g, spec) == m.v


def test_decompose_upper_triangular_right_identity():
    spec = TorusSpec(5, 1)
    g = Mat2Local.upper(5, 3, 7, 8)
    u, m, t = decompose_B1T(g, spec, "right")
    assert u.agrees_with(LocalElement.from_int(5, 3, 8))
    assert m.agrees_with(LocalElement.from_int(5, 7, 8))
    assert t.agrees_with(Mat2Local.identity(5, 8))


def test_subgroup_predicates():
    spec = TorusSpec(3, 1)
    M = 8
    k = Mat2Local.from_rationals(3, (1, 2, 1, 1), M)
    assert subgroup_member(k, "K", spec)
    assert not subgroup_member(k, "K(r)", spec, 1)
    kr = Mat2Local.from_rationals(3, (4, 3, 9, 7), M)
    assert subgroup_member(kr, "K(r)", spec, 1)
    assert not subgroup_member(kr, "K(r)", spec, 2)
    assert subgroup_member(kr, "K1(r)", spec, 1)
    b1 = Mat2Local.from_rationals(3, (4, 6, 0, 1), M)
    assert subgroup_member(b1, "B1(r)", spec, 1)
    assert not subgroup_member(b1, "B1(r)", spec, 2)


def test_KT_contains_torus_and_block_and_products():
    spec = TorusSpec(3, 1)
    t = torus_embed(spec.quad(2, 5), spec)
    assert subgroup_member(t, "KT(r)", spec, 1)
    b = Mat2Local.from_rationals(3, (4, 3, 0, 1), 8)
    assert subgroup_member(b, "KT(r)", spec, 1)
    assert subgroup_member(t * b, "KT(r)", spec, 1)
    assert subgroup_member(b * t, "KT(r)", spec, 1)
    # center times a member, even determinant valuation
    z = (t * b).scale_by_power(1)
    assert subgroup_member(z, "ZKT(r)", spec, 1)
    # odd determinant valuation cannot be centrally rescaled into the group
    assert not subgroup_member(a_mat(LocalElement(3, 1, 1, 8)) * t, "ZKT(r)", spec, 1)


def test_hensel_sqrt():
    for p in (3, 5, 7):
        for r in range(2, 30):
            if r % p == 0 or not is_square_mod_p(r, p):
                continue
            x = LocalElement.from_int(p, r, 9)
            s = hensel_sqrt(x)
            assert (s * s).agrees_with(x)


def test_canonicalize_torus_conjugates_symmetric_form():
    # delta = beta^2 - 4 alpha gamma must be a unit non-square mod 3
    for (al, be, ga) in [(1, 2, 2), (2, 2, 1), (1, 4, 5), (4, 2, 2)]:
        g, ap = canonicalize_torus(al, be, ga, 3, 8)
        spec = TorusSpec(3, 1, ap)
        tc = torus_embed(QuadElement.from_pair(3, 2, 5, -ap, 8), spec)
        tS = g.inverse() * tc * g
        S = Mat2Local.from_rationals(3, (al, Fraction(be, 2), Fraction(be, 2), ga), 8)
        # tS preserves the form up to its determinant, i.e. lies in the S-torus
        assert (tS.transpose() * S * tS).agrees_with(S.scale(tS.det))


def test_canonicalize_rejects_split_form():
    with pytest.raises(ValueError):
        canonicalize_torus(1, 0, -1, 3, 8)  # delta = 4, a square


def test_torus_conjugation_between_alphas():
    m = torus_conjugation_matrix(2, 8, 5, 8)
    spec8 = TorusSpec(5, 1, 8)
    spec2 = TorusSpec(5, 1, 2)
    z = QuadElement.from_pair(5, 3, 4, -8, 8)
    conj = m * torus_embed(z, spec8) * m.inverse()
    torus_extract(conj, spec2)  # lands in the alpha=2 torus


def test_discriminant_mismatch_raises():
    spec = TorusSpec(5, 1)  # alpha = 2
    z = QuadElement.from_pair(5, 1, 1, -3, 6)
    with pytest.raises(DiscriminantMismatch):
        torus_embed(z, spec)
