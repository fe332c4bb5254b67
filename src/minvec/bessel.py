"""Modified Bessel function of imaginary order, K_{it}(x), by the trapezoidal
rule on a shifted contour.

On the real axis the integrand e^{-x cosh u} cos(tu) is O(1) while K_{it}(x)
is about e^{-pi t/2}, so a quadrature there cancels away all its digits once
t is large.  Moving the path to Im u = a (Gil, Segura and Temme, "Algorithm
831", ACM TOMS 30, 2004) turns the oscillation into decay:

    K_{it}(x) = e^{-ta - x cos a} Re int_0^U e^{-x cos a (cosh u - 1)}
                                           e^{i(tu - x sin a sinh u)} du,

with a = arcsin(t/x) capped below pi/2, and U where the modulus drops below
e^{-45}.  The integrand is analytic and decays doubly exponentially, so the
trapezoidal rule converges exponentially (Trefethen and Weideman, SIAM Review
56, 2014); the step is halved until two levels agree.

bessel_K_imag_row runs the refinements of an array of x together: every level
is one 2-D pass over the x's that have not converged, split so that no pass
holds more than _PASS_ELEMENTS integrand values.  bessel_K_imag is the one-x
case.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoSolution

# e^{-T} below double precision noise for the integrand tail
_TAIL_EXPONENT = 45.0
# node cap of the refinement
_MAX_NODES = 2**20
# integrand values one 2-D pass holds at once (a few MB with NumPy temporaries)
_PASS_ELEMENTS = 1 << 16


def _path(t: float, x: float) -> tuple[float, ...]:
    """The contour of K_{it}(x), t >= 0: (x cos a, x sin a, U, starting node
    count, the convergence floor in integral units, log of the prefactor).

    The floor is min(e^{-pi t/2}, prefactor) / sqrt(x) in value units: the
    size of K_{it} where it oscillates, so that its zeros do not stall the
    test, and the size of the prefactor where K decays like e^{-x}."""
    a = 0.0 if t == 0 else min(math.asin(min(t / x, 1.0)), math.pi / 2 - min(0.5, 2.0 / t))
    c, s = x * math.cos(a), x * math.sin(a)
    z = _TAIL_EXPONENT / c if c > 0 else math.inf
    if z == math.inf:
        # 45/c overflows: U = acosh(45/c + 1) = log(90/c), taken in log form,
        # is past asinh of the largest double, so sinh overflows on the path
        # before its tail decays
        U = math.log(2 * _TAIL_EXPONENT) - math.log(x) - math.log(math.cos(a))
        raise NoSolution(f"Bessel quadrature for K_i{t:g}({x:g}): the integrand decays only "
                         f"past u = {U:.1f}, where sinh overflows")
    U = math.acosh(z + 1.0)
    # a step that resolves the strip pi/2 - a above the path (2/t once t > 4)
    # and the width 1/sqrt(c) of the peak at u = 0; U is 0 once x is past
    # 1e17, where K underflows
    n = 2 ** math.ceil(math.log2(max(8.0, U * max(4.0 / (math.pi / 2 - a), 1.2 * math.sqrt(c)))))
    log_pref = -t * a - c
    floor = math.exp(min(0.0, -log_pref - 0.5 * math.pi * t)) / math.sqrt(x)
    return c, s, U, n, floor, log_pref


def _node_sums(t: float, P: np.ndarray, n: int, every: bool) -> np.ndarray:
    """For each row (x cos a, x sin a, U, ...) of P: the integrand summed over
    the odd nodes j U/n, 0 < j < n, and if every, also over the even ones,
    as an array of shape (1 + every, len(P)).  The nodes are taken in passes
    of at most _PASS_ELEMENTS values."""
    width = min(n, _PASS_ELEMENTS)      # a power of two, so every j0 is odd
    rows = _PASS_ELEMENTS // width
    out = np.zeros((1 + every, len(P)))
    for j0 in range(1, n, width):
        j = np.arange(j0, min(j0 + width, n), 1 if every else 2, dtype=float)
        for r in range(0, len(P), rows):
            c, s, U = P[r:r + rows, :3].T[:, :, None]
            u = U / n * j
            v = np.sinh(0.5 * u)
            # cosh u - 1 = 2 sinh^2(u/2), exact in relative terms near u = 0
            f = np.exp(-2.0 * c * v * v) * np.cos(t * u - s * np.sinh(u))
            if every:
                out[:, r:r + rows] += f[:, 0::2].sum(axis=1), f[:, 1::2].sum(axis=1)
            else:
                out[0, r:r + rows] += f.sum(axis=1)
    return out


def _trapezoid(t: float, xs: list[float], rel_tol: float) -> np.ndarray:
    """K_{it}(x) at distinct x > 0, refined together level by level.

    Each x carries one float from a level to the next, its trapezoidal sum.
    NoSolution names the first x in xs that does not converge."""
    if not xs:
        return np.zeros(0)
    t = abs(t)
    paths = [_path(t, x) for x in xs]
    value = [0.0] * len(xs)
    # the first pass takes every node of the smallest starting count n/2,
    # with the odd nodes of n; each later pass the odd nodes of the next count
    n = min(2 * min(p[3] for p in paths), _MAX_NODES)
    odd, even = _node_sums(t, np.array(paths), n, True).tolist()
    live = list(range(len(xs)))
    sums = [p[2] / n * (1.0 + 2.0 * e) for p, e in zip(paths, even)]
    while True:
        go_on = []
        for i, last, o in zip(live, sums, odd):
            c, s, U, start, floor, log_pref = paths[i]
            new = 0.5 * last + U / n * o
            rel = abs(new - last) / max(abs(new), floor)
            # a level counts once it is at or past the x's own starting count
            if rel <= rel_tol and start <= n // 2:
                value[i] = new * math.exp(log_pref)
            else:
                go_on.append((i, new, rel))
        if not go_on:
            return np.array(value)
        if 2 * n > _MAX_NODES:
            i, _, rel = go_on[0]
            raise NoSolution(f"Bessel quadrature for K_i{t:g}({xs[i]:g}) did not converge "
                             f"within {_MAX_NODES} intervals: last relative change {rel:.3g}")
        live, sums, _ = zip(*go_on)
        n *= 2
        odd = _node_sums(t, np.array([paths[i] for i in live]), n, False)[0].tolist()


def bessel_K_imag_row(t: float, xs, rel_tol: float = 1e-12) -> np.ndarray:
    """K_{it}(x) at an array of x > 0, each distinct x evaluated once.

    NoSolution names the first x (in the order given) that does not converge
    within _MAX_NODES intervals, with its last relative change, or that is
    below the reach of the path (x cos a below about 2.5e-307).
    """
    xs = np.asarray(xs, dtype=float)
    if not ((xs > 0) & (xs < math.inf)).all():
        raise ValueError("x must be positive and finite")
    distinct, first, where = np.unique(xs.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)       # the distinct x's as they first appear
    value = np.empty(len(order))
    value[order] = _trapezoid(t, distinct[order].tolist(), rel_tol)
    return value[where].reshape(xs.shape)


def bessel_K_imag(t: float, x: float, rel_tol: float = 1e-12) -> float:
    """K_{it}(x) = int_0^inf e^{-x cosh u} cos(tu) du (real for real t, x > 0).

    The trapezoidal rule on the contour Im u = a, the step halved until two
    levels agree to rel_tol; NoSolution if they still differ at _MAX_NODES
    intervals, or if the path's tail lies past the double range of sinh
    (x cos a below about 2.5e-307).  The one-x case of bessel_K_imag_row.
    """
    if not 0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    return float(_trapezoid(t, [x], rel_tol)[0])
