"""L1[0,1] norms of Walsh and Haar combinations on exact dyadic grids.

Both systems are piecewise constant on the 2^K dyadic atoms determined by
the finest index involved, so the L1 norm is an exact average of absolute
values on the grid; no quadrature is ever used.  The two engines share one
batch pair; each system supplies only its atom matrix and its level rule.

Canonical enumerations:

* Walsh: integer k encodes the product set through its binary digits; bit
  j of k means the (j+1)-st sign function participates.  k = 0 is the
  constant function.
* Tree functions: index 1 is the constant function (monotone-basis
  convention); index j = 2^k + l with k >= 0, 1 <= l <= 2^k is +1 on
  [(2l-2)/2^(k+1), (2l-1)/2^(k+1)) and -1 on the next atom of that size.
"""

from __future__ import annotations

import numpy as np

from .batches import ExactBatch, _peak
from .coeffs import DomainError
from .spaces import Space, _column_blocks, _float_values, _int_mult_values, _int_product

DEFAULT_GRID_CAP = 20


def walsh_atom_matrix(indices: tuple[int, ...], levels: int) -> np.ndarray:
    """(2^levels, m) matrix of Walsh function values on the dyadic atoms."""
    atoms = np.arange(1 << levels, dtype=np.uint32)
    cols = []
    for k in indices:
        masked = atoms & np.uint32(k)
        par = masked.copy()
        # popcount parity via folding
        for shift in (16, 8, 4, 2, 1):
            par ^= par >> np.uint32(shift)
        cols.append(1 - 2 * (par & np.uint32(1)).astype(np.int64))
    return np.stack(cols, axis=1)


class _DyadicL1Space(Space):
    """Exact L1 norm of a finite combination of a system that is constant
    on the dyadic atoms: the atoms' absolute values, averaged."""

    sweep_max_m = 10

    def _atoms(self, support: tuple[int, ...]) -> np.ndarray:
        """(2^levels, m) values of the system's functions on the atoms of
        the coarsest grid that resolves them."""
        raise NotImplementedError

    def mult_batch(self, a, mult):
        """The atoms' absolute values summed per column, one column block
        of the image at a time (:func:`~rudlab.spaces._column_blocks`), so
        that no image past ``_PRODUCT_BLOCK`` entries is held."""
        w = self._atoms(a.support)
        v, scale = _int_mult_values(a, mult, len(w))
        bound = w.shape[1] * _peak(v)  # every atom value is 1, -1 or 0
        sums = [np.abs(_int_product(w, v[:, sl], bound)).sum(axis=0)
                for sl in _column_blocks(len(w), v.shape[1])]
        return ExactBatch.from_rational(np.concatenate(sums), scale * len(w))

    def mult_batch_float(self, a, mult):
        return np.abs(self._atoms(a.support) @ _float_values(a, mult)).mean(axis=0)


class WalshL1Space(_DyadicL1Space):
    """Exact L1 norm of a finite Walsh combination."""

    name = "walsh_l1"
    sweep_indices = tuple(range(64))

    def _atoms(self, support):
        k = max((int(i).bit_length() for i in support), default=0)
        if k > DEFAULT_GRID_CAP:
            raise DomainError(
                f"finest sign-function index {k} exceeds the grid cap {DEFAULT_GRID_CAP}"
            )
        return walsh_atom_matrix(support, k)


def haar_level(j: int) -> tuple[int, int]:
    """Split j >= 2 as 2^k + l with 1 <= l <= 2^k; returns (k, l)."""
    if j < 2:
        raise DomainError("true tree functions start at index 2")
    k = (j - 1).bit_length() - 1
    return k, j - (1 << k)


def haar_atom_matrix(indices: tuple[int, ...], levels: int) -> np.ndarray:
    """(2^levels, m) matrix of tree-function values on the dyadic atoms."""
    g = 1 << levels
    cols = []
    for j in indices:
        col = np.zeros(g, dtype=np.int64)
        if j == 1:
            col[:] = 1
        else:
            k, l = haar_level(j)
            width = g >> (k + 1)  # atoms per half-support
            start = (2 * l - 2) * width
            col[start : start + width] = 1
            col[start + width : start + 2 * width] = -1
        cols.append(col)
    return np.stack(cols, axis=1)


class HaarL1Space(_DyadicL1Space):
    """Exact L1 norm of a finite combination of the dyadic tree system."""

    name = "haar_l1"
    sweep_indices = tuple(range(1, 256))

    def _atoms(self, support):
        if min(support, default=1) < 1:
            raise DomainError("tree indices start at 1")
        deepest = 0
        for j in support:
            if j >= 2:
                deepest = max(deepest, haar_level(j)[0] + 1)
        if deepest > DEFAULT_GRID_CAP:
            raise DomainError(
                f"finest dyadic level {deepest} exceeds the grid cap {DEFAULT_GRID_CAP}"
            )
        return haar_atom_matrix(support, deepest)
