"""Modified Bessel function of imaginary order, K_{it}(x), by direct
quadrature of the cosine integral representation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoSolution

# e^{-T} below double precision noise for the integrand tail
_TAIL_EXPONENT = 45.0
# node cap of the refinement: about 50 MB of float64 work arrays
_MAX_NODES = 2**20


def _upper_limit(x: float) -> float:
    """u beyond which x*(cosh u - 1) exceeds the tail exponent."""
    z = _TAIL_EXPONENT / x + 1.0
    return math.acosh(z)


def _integrand_scaled(u: np.ndarray, t: float, x: float) -> np.ndarray:
    # e^{x} K_{it}(x) = int e^{-x(cosh u - 1)} cos(tu) du, tame for all x
    return np.exp(-x * (np.cosh(u) - 1.0)) * np.cos(t * u)


def bessel_K_imag(t: float, x: float, rel_tol: float = 1e-12) -> float:
    """K_{it}(x) = int_0^inf e^{-x cosh u} cos(tu) du (real for real t, x > 0).

    Composite Simpson on the truncated range, refined by interval doubling
    until two successive refinements agree to rel_tol.  Raises NoSolution if
    they still differ at _MAX_NODES intervals (cancellation for t >> x).
    """
    if x <= 0:
        raise ValueError("x must be positive")
    U = _upper_limit(x)
    # resolve both the oscillation (period 2*pi/t) and the kernel decay
    n = 64
    min_n = max(64, int(16 * abs(t) * U / (2 * math.pi)) * 2)
    while n < min_n:
        n *= 2
    prev, change = None, math.inf
    scale = math.exp(-x) if x < 700 else 0.0
    while n <= _MAX_NODES:
        u = np.linspace(0.0, U, n + 1)
        f = _integrand_scaled(u, t, x)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        val = (U / n) / 3.0 * float(w @ f)
        if prev is not None:
            change = abs(val - prev) / max(abs(val), 1e-300)
            if change <= rel_tol:
                return scale * val
        prev = val
        n *= 2
    raise NoSolution(f"Bessel quadrature for K_i{t:g}({x:g}) did not converge within "
                     f"{_MAX_NODES} intervals: last relative change {change:.3g}")
