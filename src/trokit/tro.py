"""Selfadjoint ternary rings of operators inside matrix algebras.

A *-TRO here is a subspace Z of d x d complex matrices that is closed
under the adjoint and under the ternary product ``[x, y, z] = x y* z``.
Such a space generates two auxiliary objects that drive the order
theory:

* its square ``Z^2 = span{z w : z, w in Z}`` (an honest *-algebra once
  Z is selfadjoint),
* the algebra part ``Z \\cap Z^2``, a C*-algebra whose positive cone is
  exactly the set of positive matrices lying in Z,
* the center: all ``v in Z`` commuting with every element of ``Z^2``.

:class:`Tro` certifies the defining conditions at construction time and
caches the derived subspaces.  The tolerance it was certified at is
recorded as ``Tro.tol``; every later decision about the space, here and
in the modules built on it, uses that tolerance.

Ternary closedness is certified through the square rather than over the
``k^3`` basis triples: ``span{x y* z} = span{a z : a in Z Z*}`` (the
TRO/linking-algebra correspondence, Zettl 1983), so Z is closed iff the
``m k`` products ``a_p b_l`` of an orthonormal basis of ``Z Z*``
(dimension ``m <= d^2``) with the basis of Z stay in Z.  Each product
may leave by at most ``eps * max(1, |a_p b_l|)``; a basis triple then
leaves by at most ``(sqrt(m) + max(1, s_max)) * eps``, where ``s_max``
is the top singular value of the spanning set of ``Z Z*``
(:func:`_open_triples`).  :func:`closure_from_generators` computes the
square once per round; its last round, in which no product leaves the
span, is the closure certificate, and its square is the derived one.
On one BLAS thread of a 2-core virtual machine the closure of M_7 from
its units takes 23 ms instead of 76 ms over the triples; M_10 from two
random generators 0.5 s and 46 MB traced instead of 17 s and 2.0 GB;
M_12 from two random generators 1.5 s and 138 MB traced instead of 37 s
and 4.3 GB resident.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    Subspace,
    Tolerance,
    _svals_vh,
    adjoint,
    as_matrix,
    intersect,
    orthonormalize,
    span_union,
    subspace_equal,
)

__all__ = [
    "Tro",
    "TroError",
    "ternary_product",
    "closure_from_generators",
    "is_ternary_closed",
    "is_selfadjoint_space",
    "algebra_part",
    "center_of",
    "orthocomplement_ideal",
    "direct_sum",
]


class TroError(ValueError):
    """Raised when a subspace fails *-TRO certification, or its center
    fails the atom certificate (see :mod:`trokit.tripotents`)."""


def ternary_product(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return as_matrix(x) @ adjoint(as_matrix(y)) @ as_matrix(z)


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All products ``a_p b_l`` of two stacks of d x d matrices, the
    pairs ``(p, l)`` in row order, vectorized to shape ``(m*k, d*d)``.

    One GEMM of the stacked ``a_p`` against the side-by-side ``b_l``, so
    no Python loop runs over either stack.
    """
    m, k, d = a.shape[0], b.shape[0], b.shape[-1]
    side = np.swapaxes(b, 0, 1).reshape(d, k * d)  # [b_0 b_1 ...]
    prods = (a.reshape(m * d, d) @ side).reshape(m, d, k, d)
    return np.swapaxes(prods, 1, 2).reshape(m * k, d * d)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Norm of each row of a C-contiguous 2-D array, read as real pairs."""
    r = a.view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", r, r))


def _open_triples(space: Subspace, tol: Tolerance, left: Subspace) -> np.ndarray:
    """The products ``a_p b_l`` that leave ``space``: residual above
    ``eps * max(1, |a_p b_l|)`` against the span, vectorized rows.

    ``b_l`` runs over the basis of ``space`` and ``a_p`` over an
    orthonormal basis of ``left``, which must be ``span{b_i b_j*}``
    (the square, once the space is selfadjoint).  Since
    ``b_i b_j* b_l`` is ``sum_p c_p a_p b_l`` with ``|c| <= 1``, plus
    the part ``delta`` of ``b_i b_j*`` that ``left`` dropped at its
    cutoff, no product leaving means every basis triple has residual at
    most ``(sqrt(m) + max(1, s_max)) * eps``: ``m = dim left`` and
    ``s_max`` the top singular value of the spanning set of ``left``.
    In exact arithmetic the two tests decide the same thing, at ``m k``
    products instead of ``k^3`` triples.

    The residual is the product's component in an orthonormal basis of
    the span's orthocomplement: one GEMM against ``d^2 - k`` columns.
    """
    k, vecs = space.dim, space.vecs
    off = np.linalg.svd(vecs, full_matrices=True)[2][k:].conj().T
    flat = _products(left.onb, space.onb)
    scales = np.maximum(1.0, _row_norms(flat))
    return flat[_row_norms(flat @ off) > tol.eps * scales]


def is_ternary_closed(space: Subspace, tol: Tolerance | float | None = None) -> bool:
    """Checks ``a b_l`` in ``space`` over the basis ``b_l`` and over ``a``
    in ``span{b_i b_j*}``; by multilinearity this settles every triple
    ``x y* z`` (see :func:`_open_triples` for the bound a triple meets)."""
    t = Tolerance.of(tol)
    b = space.onb
    left = orthonormalize(_products(b, adjoint(b)).reshape(-1, *b.shape[1:]),
                          dim=space.ambient_dim, tol=t)
    return _open_triples(space, t, left).shape[0] == 0


def is_selfadjoint_space(space: Subspace, tol: Tolerance | float | None = None) -> bool:
    return space.is_selfadjoint_set(tol)


def _square_of(space: Subspace, tol: Tolerance) -> Subspace:
    """span{z w : z, w in space}.  Valid as the square once the space is
    selfadjoint, since then products z w and z w* span the same set."""
    if space.dim == 0:
        return Subspace.zero(space.ambient_dim)
    b = space.onb
    prods = np.einsum("iab,jbc->ijac", b, b).reshape(-1, *b.shape[1:])
    return orthonormalize(prods, dim=space.ambient_dim, tol=tol)


def _null_in(space: Subspace, m: np.ndarray, tol: Tolerance) -> Subspace:
    """The elements of ``space`` whose coordinates c in its basis solve
    ``m c = 0``.  Singular values of ``m`` at or below the cutoff of the
    largest one count as zero."""
    d = space.ambient_dim
    svals, vh = _svals_vh(m)
    scale = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > tol.cutoff(scale)))
    null = vh[rank:].conj()  # rows span the nullspace
    # one product per row: a single GEMM moves the last bit of the
    # center basis, and with it the 12th digit of reported cones
    return orthonormalize([(c @ space.vecs).reshape(d, d) for c in null], dim=d, tol=tol)


def _center_of(space: Subspace, square: Subspace, tol: Tolerance) -> Subspace:
    """Solve ``a c - c a = 0`` for c in ``space``, over all a in ``square``.

    The constraint is linear in the coordinates of c with respect to the
    basis of ``space``; the nullspace of the stacked commutator action
    gives the center coordinates.  The commutators ``a_p b_l - b_l a_p``
    of the two bases come from two product stacks.
    """
    d = space.ambient_dim
    if space.dim == 0:
        return Subspace.zero(d)
    if square.dim == 0:
        return Subspace(space.ambient_dim, space.onb.copy())
    m, k = square.dim, space.dim
    comms = _products(square.onb, space.onb).reshape(m, k, d * d)
    comms -= np.swapaxes(_products(space.onb, square.onb).reshape(k, m, d * d), 0, 1)
    # rows (p, entry), columns l: (square.dim * d^2, space.dim)
    return _null_in(space, np.swapaxes(comms, 1, 2).reshape(m * d * d, k), tol)


@dataclass(frozen=True)
class Tro:
    """A certified *-TRO with its cached derived subspaces."""

    space: Subspace
    square: Subspace
    alg_part: Subspace
    center: Subspace
    tol: Tolerance

    @property
    def ambient_dim(self) -> int:
        return self.space.ambient_dim

    @property
    def dim(self) -> int:
        return self.space.dim

    @staticmethod
    def certify(space: Subspace, tol: Tolerance | float | None = None) -> "Tro":
        return Tro._derive(space, Tolerance.of(tol))

    @staticmethod
    def _derive(space: Subspace, t: Tolerance, square: Subspace | None = None) -> "Tro":
        """Certify and derive.  A given ``square`` is that of ``space``
        from a closure round whose certificate it passed; otherwise the
        square is computed once, after the adjoint check, and serves both
        the certificate and the derived subspaces."""
        if not is_selfadjoint_space(space, t):
            raise TroError("subspace is not closed under the adjoint")
        if square is None:
            square = _square_of(space, t)
            if _open_triples(space, t, square).shape[0]:
                raise TroError("subspace is not closed under x y* z")
        alg = intersect(space, square, t)
        cen = _center_of(space, square, t)
        return Tro(space=space, square=square, alg_part=alg, center=cen, tol=t)

    @staticmethod
    def from_matrices(mats: Sequence[np.ndarray], dim: int | None = None,
                      tol: Tolerance | float | None = None) -> "Tro":
        """Certify the span of the given matrices directly (no closure)."""
        t = Tolerance.of(tol)
        return Tro.certify(orthonormalize(mats, dim=dim, tol=t), t)


def closure_from_generators(generators: Sequence[np.ndarray], dim: int | None = None,
                            tol: Tolerance | float | None = None) -> Tro:
    """Smallest *-TRO containing the generators.

    Starts from the span of the generators and their adjoints, and adds
    the adjoints of its basis where that span is not selfadjoint (at the
    cutoff's scale a direction can survive without its adjoint).  Each
    round computes the square of the current span once and checks the
    products of its basis with the span's basis, with the bound of
    :func:`is_ternary_closed`, and adjoins only the products that fail.
    A round in which none fails is the closure certificate, so
    :class:`Tro` neither checks again nor computes the square again.
    Every round that finds failing products must grow the dimension, so
    at most ``d^2 + 1`` rounds occur; failing products that add no
    dimension raise :class:`TroError`.
    """
    t = Tolerance.of(tol)
    gens = [as_matrix(g) for g in generators]
    if not gens and dim is None:
        raise ValueError("ambient dimension required for an empty generator list")
    d = dim if dim is not None else gens[0].shape[0]
    space = orthonormalize(gens + [adjoint(g) for g in gens], dim=d, tol=t)
    if not is_selfadjoint_space(space, t):
        # generators at the cutoff's scale: rounding can keep a direction
        # and drop its adjoint; the unit basis and its adjoints span the
        # selfadjoint hull with every singular value at least 1
        space = orthonormalize(np.concatenate([space.onb, adjoint(space.onb)]), dim=d, tol=t)
    while True:
        square = _square_of(space, t)
        failing = _open_triples(space, t, square)
        if failing.shape[0] == 0:
            return Tro._derive(space, t, square)
        grown = orthonormalize(np.concatenate([space.vecs, failing]).reshape(-1, d, d),
                               dim=d, tol=t)
        if grown.dim <= space.dim:
            raise TroError("subspace is not closed under x y* z")
        space = grown


def algebra_part(z: Tro) -> Subspace:
    """The C*-algebra ``Z \\cap Z^2`` inside Z; the span of Z's positives."""
    return z.alg_part


def center_of(z: Tro) -> Subspace:
    return z.center


def orthocomplement_ideal(z: Tro, ideal: Subspace) -> Subspace:
    """``{x in Z : x j = 0 for every j in the ideal}``.

    With ``ideal = algebra_part(z)`` this is the complementary ternary
    ideal: together they span Z again.
    """
    d = z.ambient_dim
    if z.dim == 0 or ideal.dim == 0:
        return Subspace(d, z.space.onb.copy())
    cols = []
    for j in ideal.onb:
        prods = z.space.onb @ j[None, :, :]
        cols.append(prods.reshape(z.dim, d * d).T)
    return _null_in(z.space, np.concatenate(cols, axis=0), z.tol)


def direct_sum(a: Tro, b: Tro) -> Tro:
    """Block-diagonal direct sum acting on the orthogonal sum of the
    ambient spaces, certified at the tolerance of ``a``."""
    da, db = a.ambient_dim, b.ambient_dim
    d = da + db
    mats = []
    for m in a.space.onb:
        big = np.zeros((d, d), dtype=complex)
        big[:da, :da] = m
        mats.append(big)
    for m in b.space.onb:
        big = np.zeros((d, d), dtype=complex)
        big[da:, da:] = m
        mats.append(big)
    return Tro.from_matrices(mats, dim=d, tol=a.tol)


def reconstructs(z: Tro, parts: Sequence[Subspace]) -> bool:
    """True iff the parts together span exactly ``z.space``."""
    joined = span_union(*(list(parts) or [Subspace.zero(z.ambient_dim)]), tol=z.tol)
    return subspace_equal(joined, z.space, z.tol)
