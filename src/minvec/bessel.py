"""Modified Bessel function of imaginary order, K_{it}(x), by direct
quadrature of the cosine integral representation.

Each x runs composite Simpson on [0, U(x)], doubling its node count until two
successive levels agree.  bessel_K_imag_row runs the refinements of a whole
array of x (a scan row) together: the x's at one node count share one 2-D
integrand pass, and a doubling evaluates only its new odd nodes, as the even
ones are the last level's nodes bit for bit.  Every value equals the one the
per-x refinement gives; bessel_K_imag is the one-x case.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NoSolution

# e^{-T} below double precision noise for the integrand tail
_TAIL_EXPONENT = 45.0
# node cap of the refinement: about 50 MB of float64 work arrays for one x
_MAX_NODES = 2**20
# bytes of the integrand passes and integrand rows a row refinement holds at
# once; only a single x refined alone (up to the node cap) may exceed it
ROW_BLOCK_BYTES = 1 << 21
# bytes per node one x holds at a level: the kept row of the last level, the
# new row, and the integrand pass with its NumPy temporaries
_LEVEL_BYTES = 32


def _upper_limit(x: float) -> float:
    """u beyond which x*(cosh u - 1) exceeds the tail exponent."""
    z = _TAIL_EXPONENT / x + 1.0
    return math.acosh(z)


def _integrand_scaled(u: np.ndarray, t: float, x: float | np.ndarray) -> np.ndarray:
    # e^{x} K_{it}(x) = int e^{-x(cosh u - 1)} cos(tu) du, tame for all x
    return np.exp(-x * (np.cosh(u) - 1.0)) * np.cos(t * u)


@functools.cache
def _simpson_weights(n: int) -> np.ndarray:
    """1, 4, 2, 4, ..., 2, 4, 1 on n + 1 nodes; shared, never written."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w.flags.writeable = False
    return w


def _start_nodes(t: float, U: float) -> int:
    # resolve both the oscillation (period 2*pi/t) and the kernel decay
    n = 64
    min_n = max(64, int(16 * abs(t) * U / (2 * math.pi)) * 2)
    while n < min_n:
        n *= 2
    return n


class _RowRefinement:
    """The Simpson refinements of an array of x, run level by level.

    Every x keeps its own sequence: from its starting node count, doubling
    until two successive levels agree to rel_tol, failed beyond _MAX_NODES.
    The x's at one level are evaluated together; those that go on keep their
    integrand rows, which hold the even nodes of the next level."""

    def __init__(self, t: float, xs: list[float], rel_tol: float):
        self.t, self.xs, self.rel_tol = t, xs, rel_tol
        self.U = [_upper_limit(x) for x in xs]
        self.scale = [math.exp(-x) if x < 700 else 0.0 for x in xs]
        self.value: list[float | None] = [None] * len(xs)
        self.change = [math.inf] * len(xs)      # last relative change
        self.failed = [False] * len(xs)
        self.starts: dict[int, list[int]] = {}  # starting node count -> positions
        for i, U in enumerate(self.U):
            self.starts.setdefault(_start_nodes(t, U), []).append(i)

    def run(self, n: int, pos: list[int], sums: list[float], rows, starts: dict, held: int) -> None:
        """Refine from level n on: the x's at positions pos (ascending), with
        their Simpson sums and integrand rows of level n/2, and the x's that
        start at each level in starts.  held counts the bytes that x's
        waiting outside this call keep."""
        while pos or starts:
            if not pos:
                n = min(starts)
            new = starts.pop(n, [])
            if n > _MAX_NODES:
                for i in pos + new + [i for later in starts.values() for i in later]:
                    self.failed[i] = True
                self.raise_first_failure()
                return
            count = len(pos) + len(new)
            if count > 1 and held + count * _LEVEL_BYTES * (n + 1) > ROW_BLOCK_BYTES:
                self._split(n, pos, sums, rows, new, held + 8 * len(pos) * (n // 2 + 1))
                pos, sums, rows = [], [], None
            else:
                pos, sums, rows = self._level(n, pos, sums, rows, new)
            n *= 2

    def _split(self, n: int, pos, sums, rows, new, held: int) -> None:
        """Refine pos and new in x-order batches, each to convergence or
        failure, with as many x's as fit beside held (which counts the rows
        of pos: they stay allocated until the last batch is done)."""
        members = sorted(pos + new)
        size = max(1, (ROW_BLOCK_BYTES - held) // (_LEVEL_BYTES * (n + 1)))
        row_of = {i: r for r, i in enumerate(pos)}
        for s in range(0, len(members), size):
            batch = members[s:s + size]
            bpos = [i for i in batch if i in row_of]
            bnew = [i for i in batch if i not in row_of]
            brows = rows[row_of[bpos[0]]:row_of[bpos[-1]] + 1] if bpos else None
            self.run(n, bpos, [sums[row_of[i]] for i in bpos], brows,
                     {n: bnew} if bnew else {}, held)

    def _level(self, n: int, pos, sums, rows, new):
        """Level n of pos (a doubling: odd nodes only) and of new (a first
        level: all nodes), one 2-D integrand pass each.  Returns the x's that
        go on, ascending, with their sums and integrand rows.

        Nodes are j * (U/n) with the last one U, as np.linspace forms them;
        since U/(2n) is exactly (U/n)/2, the even nodes of level 2n are the
        nodes of level n bit for bit."""
        t, U, xs = self.t, self.U, self.xs
        if new:
            A = np.array([(U[i] / n, U[i], xs[i]) for i in new])
            u = np.arange(n + 1, dtype=float) * A[:, :1]
            u[:, -1:] = A[:, 1:2]
            R = _integrand_scaled(u, t, A[:, 2:])
        if pos:
            A = np.array([(U[i] / n, xs[i]) for i in pos])
            odd = _integrand_scaled(np.arange(1, n, 2, dtype=float) * A[:, :1], t, A[:, 1:])
            doubled = np.empty((len(pos), n + 1))
            doubled[:, 0::2] = rows
            doubled[:, 1::2] = odd
            R = np.concatenate((R, doubled)) if new else doubled
        w = _simpson_weights(n)
        order = new + pos
        go_on = []
        for r, f in enumerate(R):
            i = order[r]
            # the 1-D w @ f on a fresh contiguous row, as the per-x
            # refinement sums: any other summation order moves the last bits,
            # and at the rounding floor (t ~ 10) the convergence test with them
            val = (U[i] / n) / 3.0 * float(w @ f.copy())
            if r >= len(new):
                last = sums[r - len(new)]
                self.change[i] = abs(val - last) / max(abs(val), 1e-300)
                if self.change[i] <= self.rel_tol:
                    self.value[i] = self.scale[i] * val
                    continue
            go_on.append((i, r, val))
        go_on.sort()
        keep = [r for _, r, _ in go_on]
        return ([i for i, _, _ in go_on], [val for _, _, val in go_on],
                R if keep == list(range(len(R))) else R[keep])

    def raise_first_failure(self) -> None:
        """NoSolution for the first x that failed, once every x before it has
        converged."""
        for i, failed in enumerate(self.failed):
            if failed:
                raise NoSolution(f"Bessel quadrature for K_i{self.t:g}({self.xs[i]:g}) did not "
                                 f"converge within {_MAX_NODES} intervals: last relative change "
                                 f"{self.change[i]:.3g}")
            if self.value[i] is None:
                return


def _refine(t: float, xs: list[float], rel_tol: float) -> list[float]:
    quad = _RowRefinement(t, xs, rel_tol)
    quad.run(0, [], [], None, quad.starts, 0)
    quad.raise_first_failure()
    return quad.value


def bessel_K_imag_row(t: float, xs, rel_tol: float = 1e-12) -> np.ndarray:
    """K_{it}(x) at an array of x > 0, each value equal to bessel_K_imag(t, x).

    Each x keeps its own refinement; only the work is shared.  The x's at one
    node count make one 2-D integrand pass, and a doubling evaluates only its
    new odd nodes.  The passes and the kept rows stay within ROW_BLOCK_BYTES:
    past it the x's are refined in x-order batches, each to convergence or
    failure.  NoSolution names the first x that does not converge within
    _MAX_NODES intervals.
    """
    xs = np.asarray(xs, dtype=float)
    if not (xs > 0).all():
        raise ValueError("x must be positive")
    return np.array(_refine(t, xs.ravel().tolist(), rel_tol), dtype=float).reshape(xs.shape)


def bessel_K_imag(t: float, x: float, rel_tol: float = 1e-12) -> float:
    """K_{it}(x) = int_0^inf e^{-x cosh u} cos(tu) du (real for real t, x > 0).

    Composite Simpson on the truncated range, refined by interval doubling
    until two successive refinements agree to rel_tol.  Raises NoSolution if
    they still differ at _MAX_NODES intervals (cancellation for t >> x).
    The one-x case of bessel_K_imag_row.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    return _refine(t, [x], rel_tol)[0]
