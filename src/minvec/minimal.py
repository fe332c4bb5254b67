"""The distinguished matrix coefficient, its convolution idempotency, and the
Whittaker function of a minimal vector: closed form plus an independent
integral-transform oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import ChiEvaluator, MinimalVectorSpec, chi_value
from .cosets import gl2_order, kt_support, mat_keys, random_kt_elements
from .errors import NotInSupport, NumericalError, PrecisionError, SizeGuard
from .matgroups import Mat2Local, a_mat, decompose_B1T, n_mat
from .residues import ENUMERATION_BOUND, LocalElement, UnitRoot, psi, psi_numerator


def matrix_coefficient(mv: MinimalVectorSpec, g: Mat2Local) -> complex:
    """Phi_0(g): chi(g) on the compact-mod-center group, zero elsewhere.

    Normalized so Phi_0(1) = 1.
    """
    try:
        return chi_value(mv, g).to_complex()
    except NotInSupport:
        return 0.0


def coefficient_density(mv: MinimalVectorSpec) -> Fraction:
    """vol of the support inside the maximal compact: exact index computation."""
    p, n = mv.p, mv.n
    supp_size = (p ** (4 * n) - p ** (4 * n - 2)) * p ** (2 * n)  # torus units x block
    return Fraction(supp_size, gl2_order(p, 2 * n))


@dataclass
class ConvolutionReport:
    density: Fraction
    pairs_checked: int
    closure_violations: int
    multiplicativity_violations: int
    norm_square: Fraction  # integral of |Phi_0|^2 over the maximal compact

    @property
    def ok(self) -> bool:
        return self.closure_violations == 0 and self.multiplicativity_violations == 0


def convolution_check(mv: MinimalVectorSpec, mode: str = "exhaustive",
                      pairs: int = 10**5, seed: int = 0,
                      chunk: int = 256) -> ConvolutionReport:
    """Verify the idempotent law (Phi_0 * Phi_0)(h) = delta * Phi_0(h):
    the support is closed under products and chi-exponents add, which makes
    every term of the convolution sum equal, so the law holds with the exact
    density delta = [support : maximal compact].
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    pm = p ** (2 * n)
    ev = ChiEvaluator.build(mv)
    delta = coefficient_density(mv)
    closure_bad = 0
    mult_bad = 0
    if mode == "exhaustive":
        supp = kt_support(spec)
        exps = ev.exponents(supp)
        key_to_exp = np.full(pm**4, -1, dtype=np.int64)
        key_to_exp[mat_keys(supp, pm)] = exps
        S = len(supp)
        checked = 0
        for lo in range(0, S, chunk):
            left = supp[lo:lo + chunk]
            prod = np.einsum("aij,bjk->abik", left, supp) % pm
            pk = key_to_exp[mat_keys(prod, pm)].reshape(len(left), S)
            closure_bad += int((pk < 0).sum())
            want = (exps[lo:lo + chunk, None] + exps[None, :]) % ev.L
            mult_bad += int(((pk != want) & (pk >= 0)).sum())
            checked += len(left) * S
    elif mode == "random":
        rng = np.random.default_rng(seed)
        g1 = random_kt_elements(spec, pairs, rng)
        g2 = random_kt_elements(spec, pairs, rng)
        prod = np.einsum("sij,sjk->sik", g1, g2) % pm
        in_supp = ev.support_mask(prod)
        closure_bad = int((~in_supp).sum())
        want = (ev.exponents(g1) + ev.exponents(g2)) % ev.L
        got = ev.exponents(prod)
        mult_bad = int((got[in_supp] != want[in_supp]).sum())
        checked = pairs
    else:
        raise ValueError("mode must be 'exhaustive' or 'random'")
    # |chi| = 1 on the support, so the L2 mass equals the support volume
    return ConvolutionReport(delta, checked, closure_bad, mult_bad, delta)


# -- Whittaker function ------------------------------------------------------

@dataclass
class WhittakerValue:
    in_support: bool
    magnitude: float
    phase: UnitRoot | None

    def to_complex(self) -> complex:
        if not self.in_support:
            return 0.0
        return self.magnitude * self.phase.to_complex()


def whittaker_closed(mv: MinimalVectorSpec, g: Mat2Local) -> WhittakerValue:
    """Closed form: factor g = [[y, x], [0, 1]] t with t in the torus; the value
    is sqrt((q-1) q^(n-1)) psi(x) theta(t) when y lies in the single coset
    p^(-2n) * b * (1 + p^n) with b = -a_theta * alpha, and zero otherwise.
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    y, x, t = decompose_B1T(g, spec, side="left")
    mag = math.sqrt((p - 1) * p ** (n - 1))
    ys = y.scale_by_power(2 * n)
    if not (ys.is_unit() and y.v == -2 * n):
        return WhittakerValue(False, 0.0, None)
    if (ys.residue(n) - mv.support_unit()) % p**n != 0:
        return WhittakerValue(False, 0.0, None)
    from .matgroups import torus_extract
    z = torus_extract(t, spec)
    phase = psi(x) * mv.theta.value((z.a.residue(2 * n), z.b.residue(2 * n)))
    return WhittakerValue(True, mag, phase)


def whittaker_oracle(mv: MinimalVectorSpec, g: Mat2Local,
                     level: int | None = None, low: int | None = None) -> complex:
    """Independent route: the additive-twist transform of the matrix coefficient,

        W(g) = sum over x in p^(-low) o / p^L o of  p^(-L) Phi_0(a(c) n(x) g) psi(-x),

    with c = p^(2n) / (support unit), computed at truncation `level` L.
    The integrand has compact support in x, so the value is exact once the
    window [p^(-low), p^L] covers it; `low` defaults to a window derived from
    the valuation of the upper-triangular part of g (a truncation hint only —
    the value itself still comes from the transform).

    The window x = xi / p^low, 0 <= xi < p^(L+low), is one integer pass:
    det(a(c) n(x) g) = c det g fixes s = v(det) / 2 for every x, and each entry
    of h0 = p^(-s) a(c) n(x) g is affine in xi.  Scaled by p^E to integral
    coefficients, the entries are known mod p^(E+2n), which decides
    integrality and gives h0 mod p^(2n) for ChiEvaluator.  At the first
    support point the exponent is checked against the scalar
    matrix_coefficient; a mismatch raises NumericalError.
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    if g.det.is_zero:
        return 0j
    L = level if level is not None else n + 2
    if low is None:
        _, m, _ = decompose_B1T(g, spec, side="left")
        low = -int(m.v) if not m.is_zero and m.v < -n else n
    v_det = 2 * n + int(g.det.v)
    if v_det % 2:
        return 0j
    s = v_det // 2
    # (entry of g, power of p, times the unit part of c) for A0, A1, B0, B1, C, D in
    # h0 = [[A0 + A1 xi, B0 + B1 xi], [C, D]]
    terms = [(g.a, 2 * n - s, True), (g.c, 2 * n - s - low, True),
             (g.b, 2 * n - s, True), (g.d, 2 * n - s - low, True),
             (g.c, -s, False), (g.d, -s, False)]
    for e, k, _ in terms:
        if not e.is_zero and e.v + k + e.M < 2 * n:
            raise PrecisionError(f"h0 mod p^{2 * n} undetermined: a term of h0 is known "
                                 f"only mod p^{e.v + k + e.M}")
    E = max([0] + [-(e.v + k) for e, k, _ in terms if not e.is_zero])
    pE, pm, pl = p**E, p ** (2 * n), p**low
    P = pE * pm
    window = p ** (L + low)
    if window > ENUMERATION_BOUND or P * window >= 2**62:
        raise SizeGuard(f"oracle window p^{L + low} at modulus p^{E + 2 * n} exceeds "
                        "the enumeration bound or int64 range")
    cu = pow(mv.support_unit(), -1, P)
    a0, a1, b0, b1, c0, d0 = (0 if e.is_zero else
                              p ** (E + e.v + k) * e.u * (cu if scaled else 1) % P
                              for e, k, scaled in terms)
    if c0 % pE or d0 % pE:
        return 0j
    xi = np.arange(window, dtype=np.int64)
    A, B = (a0 + a1 * xi) % P, (b0 + b1 * xi) % P
    keep = np.flatnonzero((A % pE == 0) & (B % pE == 0))
    mats = np.empty((len(keep), 2, 2), dtype=np.int64)
    mats[:, 0, 0], mats[:, 0, 1] = A[keep] // pE, B[keep] // pE
    mats[:, 1, 0], mats[:, 1, 1] = c0 // pE, d0 // pE
    ev = ChiEvaluator.build(mv)
    in_kt = ev.support_mask(mats)
    keep, mats = keep[in_kt], mats[in_kt]
    if not len(keep):
        return 0j
    exps = ev.exponents(mats)
    # spot check against the scalar route at the first support point
    M = max(spec.precision, 2 * n + L + low + 6)
    c = LocalElement.from_rational(p, Fraction(p ** (2 * n), mv.support_unit()), M)
    x0 = LocalElement.from_rational(p, Fraction(int(keep[0]), pl), M)
    scalar = matrix_coefficient(mv, a_mat(c) * n_mat(x0) * g)
    if abs(scalar - np.exp(2j * np.pi * exps[0] / ev.L)) > 1e-9:
        raise NumericalError(f"vectorized chi exponent {exps[0]}/{ev.L} disagrees with the "
                             f"scalar matrix coefficient {scalar} at x = {x0}")
    Lt = math.lcm(ev.L, pl)
    phase = (exps * (Lt // ev.L) + psi_numerator((-keep) % pl) * (Lt // pl)) % Lt
    return float(Fraction(1, p**L)) * complex(np.exp(2j * np.pi * phase / Lt).sum())


def support_profile(mv: MinimalVectorSpec, k: Mat2Local):
    """For a maximal-compact element k, the diagonal support of y -> W(a(y) k):
    the single unit class b mod p^n (at valuation -2n) where it is nonzero.
    """
    spec = mv.torus
    p, n = mv.p, mv.n
    z, m, t = decompose_B1T(k, spec, side="left")
    zs = z
    if not zs.is_unit():
        # k in the maximal compact always yields a unit here
        raise NotInSupport("unexpected non-unit leading factor")
    b = mv.support_unit() * pow(zs.residue(n), -1, p**n) % p**n
    return b


def whittaker_support_scan(mv: MinimalVectorSpec, k: Mat2Local, level: int | None = None):
    """Oracle for support_profile: sweep all unit classes y = p^(-2n) u and
    report which have a nonzero closed-form Whittaker value at a(y) k."""
    p, n = mv.p, mv.n
    M = mv.torus.precision + 2 * n
    hits = []
    for u in range(1, p**n):
        if u % p == 0:
            continue
        y = LocalElement(p, -2 * n, u, M)
        w = whittaker_closed(mv, a_mat(y) * k)
        if w.in_support:
            hits.append(u)
    return hits
