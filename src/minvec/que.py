"""Local QUE period: exact volumes, conductor normalization, the parity
predicate for distinguished triples, and the Watson local factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError
from .matgroups import TorusSpec


def conductor_pair(p: int, n: int) -> int:
    """Conductor of the pair: q^{4n}."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    return p ** (4 * n)


def vol_KT(p: int, n: int) -> Fraction:
    """Exact volume of the depth-n torus-congruence subgroup in the maximal
    compact (probability Haar): 1 / (q^{2n-1} (q-1))."""
    return Fraction(1, p ** (2 * n - 1) * (p - 1))


def torus_cosets(spec: TorusSpec) -> list[tuple[int, int]]:
    """Coset representatives of the torus units modulo the depth-n kernel:
    unit pairs (x, y) mod p^n."""
    pn = spec.p**spec.n
    return [(x, y) for x in range(pn) for y in range(pn)
            if x % spec.p != 0 or y % spec.p != 0]


@dataclass
class QueReport:
    p: int
    n: int
    vol_KT: Fraction
    H: complex
    normalized: complex      # q^{2n} * H
    distinguished: bool | None = None

    def as_dict(self):
        return {
            "p": self.p, "n": self.n,
            "vol_KT": [self.vol_KT.numerator, self.vol_KT.denominator],
            "H": [self.H.real, self.H.imag],
            "normalized": [self.normalized.real, self.normalized.imag],
            "distinguished": self.distinguished,
        }


def que_period(spec: TorusSpec, torus_mc=None) -> QueReport:
    """The local period H: vol(K_T(n)) times the average of the supplied torus
    matrix coefficient h -> <h u, u> over the torus cosets (probability Haar).

    torus_mc maps coset pairs (x, y) mod p^n to complex; None means the
    constant-1 map (a spherical, torus-fixed u), for which H = vol exactly.
    """
    p, n = spec.p, spec.n
    vol = vol_KT(p, n)
    cosets = torus_cosets(spec)
    if torus_mc is None:
        H = float(vol)
        normalized = float(p ** (2 * n) * vol)
        return QueReport(p, n, vol, H, normalized)
    vals = []
    for z in cosets:
        try:
            vals.append(complex(torus_mc(z)))
        except KeyError as e:
            raise ConfigError(f"torus_mc undefined at coset {z}") from e
    avg = sum(vals) / len(vals)
    H = float(vol) * avg
    return QueReport(p, n, vol, H, p ** (2 * n) * H)


def distinguished(a3: int, n: int) -> bool:
    """Parity predicate: the triple is distinguished iff the third conductor
    exponent a3 is even.  Requires the standing hypothesis 4n >= 2*a3."""
    if a3 < 0:
        raise ConfigError("a3 must be nonnegative")
    if 4 * n < 2 * a3:
        raise ConfigError(f"hypothesis 4n >= 2*a3 violated: n={n}, a3={a3}")
    return a3 % 2 == 0


def watson_Ip(H: complex, L_ratio: complex = 1) -> complex:
    """Watson local factor I_p = H / L_ratio; the default ratio 1 reflects the
    adjoint factor being trivial at the ramified primes."""
    return H / L_ratio
