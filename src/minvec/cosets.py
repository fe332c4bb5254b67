"""Finite residue models: the order of GL2 over Z/p^m, and the compact support
set used by the distinguished matrix coefficient, materialized as an integer
matrix array.

The support arrays are int32 and entry-major: an (N, 2, 2) view of a (4, N)
array, so each entry column mats[:, i, j] is contiguous.  Both builders keep
p^(4n) <= ENUMERATION_BOUND < 2^30, as every buildable minimal vector does
(its unit group mod p^(2n) is enumerated), so int32 holds every sum of two
products of entries mod p^(2n).
"""

from __future__ import annotations

import numpy as np

from .errors import SizeGuard
from .matgroups import TorusSpec
from .residues import ENUMERATION_BOUND


def gl2_order(p: int, m: int) -> int:
    """|GL2(Z/p^m)|."""
    return p ** (4 * (m - 1)) * (p * p - 1) * (p * p - p)


def mod(x: np.ndarray, m: int) -> np.ndarray:
    """x % m for an integer array x and an int m >= 1, in the dtype of x.

    NumPy (2.4) vectorizes integer floor division by a scalar but not the
    remainder, so x - (x // m) m, the same floor-convention residue for
    negative x too, is several times faster on the pair kernels' arrays.
    Where (x // m) m wraps around (x near the dtype's minimum), the wrapped
    difference is still exact, as the residue fits the dtype.  The product and
    the difference are written into the quotient's array: no third temporary.
    """
    q = x // m
    q *= m
    return np.subtract(x, q, out=q)


def mat_keys(mats: np.ndarray, pm: int) -> np.ndarray:
    """Injective integer key for matrices mod pm (row-major base-pm digits)."""
    f = mod(mats.reshape(-1, 4), pm)
    return ((f[:, 0] * pm + f[:, 1]) * pm + f[:, 2]) * pm + f[:, 3]


def mul_mod(x, y, pm: int):
    """The entries (a, b, c, d) of the 2x2 products x @ y mod pm, written out.

    x and y are entry tuples (a, b, c, d) of integer arrays or ints that
    broadcast against each other; the arrays' dtype must hold 2 pm^2.
    """
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (mod(a1 * a2 + b1 * c2, pm), mod(a1 * b2 + b1 * d2, pm),
            mod(c1 * a2 + d1 * c2, pm), mod(c1 * b2 + d1 * d2, pm))


def product_keys(left: np.ndarray, right: np.ndarray, pm: int) -> np.ndarray:
    """mat_keys of every product left[i] @ right[j] mod pm, as a
    (len(left), len(right)) array in the dtype of left, which must hold pm^4.

    Column k of l @ r is l times column k of r, and a column mod pm is one of
    pm^2 pairs (x, y).  So l @ (x, y) is written out once for every (x, y), as
    the key digits of a first column; a pair's key is the digits of its first
    column times pm plus those of its second.
    """
    x, y = np.divmod(np.arange(pm * pm, dtype=left.dtype), pm)
    top, _, bottom, _ = mul_mod(left.reshape(-1, 4).T[:, :, None], (x, 0, y, 0), pm)
    digits = top * pm**2 + bottom
    r = right.reshape(-1, 4)
    return digits[:, r[:, 0] * pm + r[:, 2]] * pm + digits[:, r[:, 1] * pm + r[:, 3]]


def all_distinct(values: np.ndarray) -> bool:
    """Whether no value repeats: equal neighbours after a sort (np.unique
    hashes, and takes tens of times longer on these integer arrays)."""
    v = np.sort(values, axis=None)
    return not (v[1:] == v[:-1]).any()


def inverse_table(pm: int, p: int) -> np.ndarray:
    """inv[u] = u^-1 mod pm for units u; 0 elsewhere."""
    inv = np.zeros(pm, dtype=np.int32)
    for u in range(1, pm):
        if u % p != 0:
            inv[u] = pow(u, -1, pm)
    return inv


def entry_major(entries) -> np.ndarray:
    """The (N, 2, 2) matrices with entries (a, b, c, d), each entry column contiguous."""
    return np.stack(entries).reshape(4, -1).T.reshape(-1, 2, 2)


def entry_columns(mats: np.ndarray) -> np.ndarray:
    """The entry columns (a, b, c, d) of (N, 2, 2) matrices, as a (4, N) view
    whose rows are contiguous when mats is entry-major."""
    return mats.reshape(-1, 4).T


def kt_support(spec: TorusSpec) -> np.ndarray:
    """The support of the distinguished matrix coefficient inside GL2(Z/p^{2n})
    as an entry-major int32 (S, 2, 2) array of matrices mod p^{2n}: the
    bijective product (torus units mod p^{2n}) x (depth-n upper-triangular
    block mod p^n).
    """
    p, n, alpha = spec.p, spec.n, spec.alpha
    pm, pn = p ** (2 * n), p**n
    n_torus = pm * pm - (pm // p) ** 2
    if n_torus * pn * pn > 2 * ENUMERATION_BOUND:
        raise SizeGuard(f"support for (p, n) = ({p}, {n}) exceeds the configured bound")
    xs, ys = np.indices((pm, pm), dtype=np.int32)
    unit = (mod(xs, p) != 0) | (mod(ys, p) != 0)
    # products t * b over the full grid: the torus units [[x, y], [-alpha y, x]]
    # down, the block elements [[1 + p^n a, p^n b], [0, 1]] across (for a, b
    # in [0, p^n) their entries are already residues mod p^(2n))
    x, y = xs[unit][:, None], ys[unit][:, None]
    a, b = np.indices((pn, pn), dtype=np.int32).reshape(2, -1)
    mats = entry_major(mul_mod((x, y, mod(-alpha * y, pm), x), (1 + pn * a, pn * b, 0, 1), pm))
    # the size guard admits (3,1), (5,1), (7,1), (11,1), (13,1) and (3,2): every
    # key is below p^(8n) <= 13^8 < 2^31
    assert all_distinct(mat_keys(mats, pm)), "torus x block product failed to be injective"
    return mats


def kt_membership_mask(spec: TorusSpec, a, b, c, d) -> np.ndarray:
    """Vectorized membership test mod p^{2n} of the matrices [[a, b], [c, d]]
    (entries assumed in GL2(Z/p^{2n})), given as entry columns: integer arrays
    or ints that broadcast against each other, as mul_mod takes them, with a
    or b an array."""
    pn = spec.p**spec.n
    return (mod(a - d, pn) == 0) & (mod(c + spec.alpha * b, pn) == 0)


def random_kt_elements(spec: TorusSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random support elements mod p^{2n}, as an entry-major int32
    (size, 2, 2) array.  Raises SizeGuard, before drawing, beyond
    p^(4n) = ENUMERATION_BOUND, where int32 could not hold the products.

    The support mod p^{2n} is the set of g = [[a, b], [c, d]] with a = d and
    c = -alpha b mod p^n and with a, b not both divisible by p: then
    det g = a^2 + alpha b^2 mod p is a unit, as -alpha is a non-square.  So
    (a, b, r, s) -> [[a, b], [(-alpha b mod p^n) + p^n r, (a mod p^n) + p^n s]]
    is a bijection onto it from the unit pairs (a, b) mod p^{2n} times
    r, s in [0, p^n), and so is reading (a, b, r, s) from the digits of one
    uniform index below (p^2 - 1) p^(6n-2), lowest first: s, r < p^n,
    b1, a1 < p^(2n-1) and k < p^2 - 1, with a = p a1 + a0, b = p b1 + b0 and
    (a0, b0) = divmod(k + 1, p) != (0, 0).  kt_support builds the support
    independently, as the torus x block product.
    """
    p, n, alpha = spec.p, spec.n, spec.alpha
    pm, pn, ph = p ** (2 * n), p**n, p ** (2 * n - 1)
    if pm * pm > ENUMERATION_BOUND:
        raise SizeGuard(f"random support draws for (p, n) = ({p}, {n}) need p^{4 * n} "
                        "beyond the enumeration bound")
    count = (p * p - 1) * p ** (6 * n - 2)
    u = rng.integers(0, count, size=size, dtype=np.int32 if count <= 2**31 else np.int64)
    out = np.empty((4, size), dtype=np.int32)
    a, b, c, d = out
    # the digits s, r, b1, a1 into the rows d, c, b, a, then k + 1 = p a0 + b0
    for row, base in ((d, pn), (c, pn), (b, ph), (a, ph)):
        q = u // base
        np.subtract(u, q * base, out=row)
        u = q
    u += 1
    a0 = u // p
    out[:2] *= p
    a += a0
    b += u - a0 * p
    # the lifts p^n r and p^n s, then the residues of c and d mod p^n
    out[2:] *= pn
    c += mod(-alpha * b, pn)
    d += mod(a, pn)
    return out.T.reshape(-1, 2, 2)
