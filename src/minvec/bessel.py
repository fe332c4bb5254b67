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

bessel_K_imag_row takes the contours of an array of x in one array pass and
refines every x from its own starting node count, so the value at x depends
on (t, x) alone, never on the other x's of the call.  The x's at one
node count share one 2-D integrand pass, split so that no pass holds more
than _PASS_ELEMENTS integrand values.  bessel_K_imag is the scalar route: the
same refinement and node sums for one x, with the contour and the bookkeeping
in math, so the two agree up to rounding.
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
# relative change between two levels at which the refinement stops
_REL_TOL = 1e-12


def _reach_error(t: float, x: float, a: float) -> NoSolution:
    """The error of an x whose 45/(x cos a) overflows: U = acosh(45/c + 1) =
    log(90/c), taken in log form, is past asinh of the largest double, so
    sinh overflows on the path before its tail decays."""
    U = math.log(2 * _TAIL_EXPONENT) - math.log(x) - math.log(math.cos(a))
    return NoSolution(f"Bessel quadrature for K_i{t:g}({x:g}): the integrand decays only "
                      f"past u = {U:.1f}, where sinh overflows")


def _path(t: float, x: float) -> tuple[float, ...]:
    """The contour of K_{it}(x), t >= 0, in math: (x cos a, x sin a, U,
    starting node count, the convergence floor in integral units, log of the
    prefactor).

    The floor is min(e^{-pi t/2}, prefactor) / sqrt(x) in value units: the
    size of K_{it} where it oscillates, so that its zeros do not stall the
    test, and the size of the prefactor where K decays like e^{-x}."""
    a = 0.0 if t == 0 else min(math.asin(min(t / x, 1.0)), math.pi / 2 - min(0.5, 2.0 / t))
    c, s = x * math.cos(a), x * math.sin(a)
    z = _TAIL_EXPONENT / c if c > 0 else math.inf
    if z == math.inf:
        raise _reach_error(t, x, a)
    U = math.acosh(z + 1.0)
    # a step that resolves the strip pi/2 - a above the path (2/t once t > 4)
    # and the width 1/sqrt(c) of the peak at u = 0; U is 0 once x is past
    # 1e17, where K underflows
    n = 2 ** math.ceil(math.log2(max(8.0, U * max(4.0 / (math.pi / 2 - a), 1.2 * math.sqrt(c)))))
    log_pref = -t * a - c
    floor = math.exp(min(0.0, -log_pref - 0.5 * math.pi * t)) / math.sqrt(x)
    return c, s, U, n, floor, log_pref


def _contour(t: float, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """_path at every x of an array in one NumPy pass: the same six
    quantities, each an array over xs (the node counts as int64).  The
    values agree with _path's up to rounding, and each depends on its own x
    alone.  NoSolution names the first x that _path would reject."""
    with np.errstate(divide="ignore", over="ignore"):
        a = (np.minimum(np.arcsin(np.minimum(t / xs, 1.0)), math.pi / 2 - min(0.5, 2.0 / t))
             if t else np.zeros(len(xs)))
        c = xs * np.cos(a)
        z = _TAIL_EXPONENT / c
    unreachable = np.isinf(z)
    if unreachable.any():
        i = int(np.argmax(unreachable))
        raise _reach_error(t, float(xs[i]), float(a[i]))
    U = np.arccosh(z + 1.0)
    width = U * np.maximum(4.0 / (math.pi / 2 - a), 1.2 * np.sqrt(c))
    n = np.exp2(np.ceil(np.log2(np.maximum(8.0, width)))).astype(np.int64)
    log_pref = -t * a - c
    floor = np.exp(np.minimum(0.0, -log_pref - 0.5 * math.pi * t)) / np.sqrt(xs)
    return c, xs * np.sin(a), U, n, floor, log_pref


def _node_sums(t: float, P: np.ndarray, n: int, every: bool) -> np.ndarray:
    """For each row (x cos a, x sin a, U) of P: the integrand summed over
    the odd nodes j U/n, 0 < j < n, and if every, also over the even ones,
    as an array of shape (1 + every, len(P)).  The nodes are taken in passes
    of at most _PASS_ELEMENTS values, and a row's sums depend on that row
    alone."""
    width = min(n, _PASS_ELEMENTS)      # a power of two, so every j0 is odd
    rows = _PASS_ELEMENTS // width
    out = np.zeros((1 + every, len(P)))
    for j0 in range(1, n, width):
        j = np.arange(j0, min(j0 + width, n), 1 if every else 2, dtype=float)
        for r in range(0, len(P), rows):
            c, s, U = P[r:r + rows].T[:, :, None]
            u = U / n * j
            v = np.sinh(0.5 * u)
            # cosh u - 1 = 2 sinh^2(u/2), exact in relative terms near u = 0;
            # f = e^{-2 c v^2} cos(t u - s sinh u), in place in three arrays
            f = -2.0 * c * v
            f *= v
            np.exp(f, out=f)
            del v
            v = np.sinh(u)
            v *= s
            u *= t
            u -= v
            f *= np.cos(u, out=u)
            if every:
                out[:, r:r + rows] += f[:, 0::2].sum(axis=1), f[:, 1::2].sum(axis=1)
            else:
                out[0, r:r + rows] += f.sum(axis=1)
    return out


def _level_sums(t: float, P: np.ndarray, n: np.ndarray, every: bool) -> np.ndarray:
    """_node_sums with each row of P at its own node count n: the rows of
    one count go through _node_sums together."""
    out = np.empty((1 + every, len(P)))
    for m in sorted(set(n.tolist())):
        at = np.flatnonzero(n == m)
        out[:, at] = _node_sums(t, P[at], m, every)
    return out


def _nonconvergence(t: float, x: float, change: float) -> NoSolution:
    """The error of an x whose last two levels at _MAX_NODES still differ."""
    return NoSolution(f"Bessel quadrature for K_i{t:g}({x:g}) did not converge "
                      f"within {_MAX_NODES} intervals: last relative change {change:.3g}")


def _trapezoid(t: float, xs: np.ndarray) -> np.ndarray:
    """K_{it}(x) at distinct x > 0 (t >= 0), each refined from its own
    starting count.

    An x of starting count n0 first takes every node of 2 n0: the even ones
    give its sum S_n0, the odd ones S_2n0 = S_n0/2 + h_2n0 sum_odd f.  Each
    later level adds only its odd nodes, until two levels agree to _REL_TOL.
    An x carries one float from a level to the next and its sums read its own
    contour alone, so its value does not depend on the other x's.  The
    levels of all x's advance together, with one array mask per level for
    the convergence test.  NoSolution names the first x in xs that does not
    converge within _MAX_NODES intervals."""
    if not len(xs):
        return np.zeros(0)
    c, s, U, start, floor, log_pref = _contour(t, xs)
    P = np.stack((c, s, U), axis=1)
    n = np.minimum(2 * start, _MAX_NODES)
    odd, even = _level_sums(t, P, n, True)
    last = U / n * (1.0 + 2.0 * even)
    value = np.empty(len(xs))
    live = np.arange(len(xs))
    failed = None                  # (index, last relative change) of the first x that failed
    while True:
        new = 0.5 * last + U / n * odd
        rel = np.abs(new - last) / np.maximum(np.abs(new), floor)
        # a level counts once it is at or past the x's own starting count
        done = (rel <= _REL_TOL) & (start <= n // 2)
        value[live[done]] = new[done] * np.exp(log_pref[done])
        go_on = ~done & (2 * n <= _MAX_NODES)
        capped = np.flatnonzero(~(done | go_on))
        if capped.size and (failed is None or live[capped[0]] < failed[0]):
            failed = int(live[capped[0]]), float(rel[capped[0]])
        live, last = live[go_on], new[go_on]
        if failed is not None and not (live.size and live[0] < failed[0]):
            raise _nonconvergence(t, float(xs[failed[0]]), failed[1])
        if not live.size:
            return value
        P, U, n, start, floor, log_pref = (a[go_on] for a in (P, U, n, start, floor, log_pref))
        n *= 2
        odd = _level_sums(t, P, n, False)[0]


def bessel_K_imag_row(t: float, xs) -> np.ndarray:
    """K_{it}(x) at an array of x > 0, each distinct x evaluated once.  The
    value at x is the same bits whatever other x's share the call, and
    bessel_K_imag's up to rounding.

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
    value[order] = _trapezoid(abs(t), distinct[order])
    return value[where].reshape(xs.shape)


def bessel_K_imag(t: float, x: float, rel_tol: float = _REL_TOL) -> float:
    """K_{it}(x) = int_0^inf e^{-x cosh u} cos(tu) du (real for real t, x > 0).

    The trapezoidal rule on the contour Im u = a, the step halved until two
    levels agree to rel_tol; NoSolution if they still differ at _MAX_NODES
    intervals, or if the path's tail lies past the double range of sinh
    (x cos a below about 2.5e-307).  The scalar route: _trapezoid's
    refinement for one x, with the contour (_path) and the bookkeeping in
    math, so it agrees with bessel_K_imag_row up to rounding.
    """
    if not 0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    t = abs(t)
    c, s, U, start, floor, log_pref = _path(t, x)
    P = np.array([[c, s, U]])
    n = min(2 * start, _MAX_NODES)
    (odd,), (even,) = _node_sums(t, P, n, True).tolist()
    last = U / n * (1.0 + 2.0 * even)
    while True:
        new = 0.5 * last + U / n * odd
        rel = abs(new - last) / max(abs(new), floor)
        if rel <= rel_tol and start <= n // 2:
            return new * math.exp(log_pref)
        if 2 * n > _MAX_NODES:
            raise _nonconvergence(t, x, rel)
        last, n = new, 2 * n
        odd = float(_node_sums(t, P, n, False)[0, 0])
