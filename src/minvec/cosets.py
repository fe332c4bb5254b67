"""Finite residue models: the order of GL2 over Z/p^m, and the compact support
set used by the distinguished matrix coefficient, materialized as an integer
matrix array.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeGuard
from .matgroups import TorusSpec
from .residues import ENUMERATION_BOUND


def gl2_order(p: int, m: int) -> int:
    """|GL2(Z/p^m)|."""
    return p ** (4 * (m - 1)) * (p * p - 1) * (p * p - p)


def mat_keys(mats: np.ndarray, pm: int) -> np.ndarray:
    """Injective integer key for matrices mod pm (row-major base-pm digits)."""
    f = mats.reshape(-1, 4) % pm
    return ((f[:, 0] * pm + f[:, 1]) * pm + f[:, 2]) * pm + f[:, 3]


def inverse_table(pm: int, p: int) -> np.ndarray:
    """inv[u] = u^-1 mod pm for units u; 0 elsewhere."""
    inv = np.zeros(pm, dtype=np.int64)
    for u in range(1, pm):
        if u % p != 0:
            inv[u] = pow(u, -1, pm)
    return inv


def kt_support(spec: TorusSpec) -> np.ndarray:
    """The support of the distinguished matrix coefficient inside GL2(Z/p^{2n})
    as an (S, 2, 2) array of matrices mod p^{2n}: the bijective product
    (torus units mod p^{2n}) x (depth-n upper-triangular block mod p^n).
    """
    p, n, alpha = spec.p, spec.n, spec.alpha
    pm, pn = p ** (2 * n), p**n
    n_torus = pm * pm - (pm // p) ** 2
    if n_torus * pn * pn > 2 * ENUMERATION_BOUND:
        raise SizeGuard(f"support for (p, n) = ({p}, {n}) exceeds the configured bound")
    xs, ys = np.meshgrid(np.arange(pm), np.arange(pm), indexing="ij")
    unit = (xs % p != 0) | (ys % p != 0)
    tx, ty = xs[unit].astype(np.int64), ys[unit].astype(np.int64)
    t_mats = np.stack([tx, ty, (-alpha * ty) % pm, tx], axis=-1).reshape(-1, 2, 2)

    aa, bb = np.meshgrid(np.arange(pn), np.arange(pn), indexing="ij")
    aa, bb = aa.ravel().astype(np.int64), bb.ravel().astype(np.int64)
    b_mats = np.stack([(1 + pn * aa) % pm, (pn * bb) % pm,
                       np.zeros_like(aa), np.ones_like(aa)], axis=-1).reshape(-1, 2, 2)

    # products t * b over the full grid
    prod = np.einsum("sij,tjk->stik", t_mats, b_mats) % pm
    S = len(t_mats) * len(b_mats)
    mats = prod.reshape(S, 2, 2)
    keys = mat_keys(mats, pm)
    assert len(np.unique(keys)) == S, "torus x block product failed to be injective"
    return mats


def kt_membership_mask(mats: np.ndarray, spec: TorusSpec) -> np.ndarray:
    """Vectorized membership test mod p^{2n} (entries assumed in GL2(Z/p^{2n}))."""
    pn = spec.p**spec.n
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, d = mats[:, 1, 0], mats[:, 1, 1]
    return ((a - d) % pn == 0) & ((c + spec.alpha * b) % pn == 0)


def random_kt_elements(spec: TorusSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random support elements mod p^{2n}, as a (size, 2, 2) array."""
    p, n, alpha = spec.p, spec.n, spec.alpha
    pm, pn = p ** (2 * n), p**n
    tx = np.empty(size, dtype=np.int64)
    ty = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        cx = rng.integers(0, pm, size=2 * (size - filled) + 8, dtype=np.int64)
        cy = rng.integers(0, pm, size=len(cx), dtype=np.int64)
        good = (cx % p != 0) | (cy % p != 0)
        take = min(int(good.sum()), size - filled)
        tx[filled:filled + take] = cx[good][:take]
        ty[filled:filled + take] = cy[good][:take]
        filled += take
    aa = rng.integers(0, pn, size=size, dtype=np.int64)
    bb = rng.integers(0, pn, size=size, dtype=np.int64)
    t_mats = np.stack([tx, ty, (-alpha * ty) % pm, tx], axis=-1).reshape(-1, 2, 2)
    b_mats = np.stack([(1 + pn * aa) % pm, (pn * bb) % pm,
                       np.zeros_like(aa), np.ones_like(aa)], axis=-1).reshape(-1, 2, 2)
    return np.einsum("sij,sjk->sik", t_mats, b_mats) % pm
