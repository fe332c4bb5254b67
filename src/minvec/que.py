"""Local QUE period: exact volumes, conductor normalization, and the parity
predicate for distinguished triples.
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


@dataclass
class QueReport:
    p: int
    n: int
    vol_KT: Fraction
    H: complex
    normalized: complex      # q^{2n} * H

    def as_dict(self):
        return {
            "p": self.p, "n": self.n,
            "vol_KT": [self.vol_KT.numerator, self.vol_KT.denominator],
            "H": [self.H.real, self.H.imag],
            "normalized": [self.normalized.real, self.normalized.imag],
        }


def que_period(spec: TorusSpec) -> QueReport:
    """The local period H for a spherical, torus-fixed u: vol(K_T(n)) times the
    average of the constant matrix coefficient h -> <h u, u> = 1 over the torus
    cosets (probability Haar), so H = vol exactly."""
    p, n = spec.p, spec.n
    vol = vol_KT(p, n)
    return QueReport(p, n, vol, float(vol), float(p ** (2 * n) * vol))


def distinguished(a3: int, n: int) -> bool:
    """Parity predicate: the triple is distinguished iff the third conductor
    exponent a3 is even.  Requires the standing hypothesis 4n >= 2*a3."""
    if a3 < 0:
        raise ConfigError("a3 must be nonnegative")
    if 4 * n < 2 * a3:
        raise ConfigError(f"hypothesis 4n >= 2*a3 violated: n={n}, a3={a3}")
    return a3 % 2 == 0
