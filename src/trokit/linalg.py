"""Dense complex matrix and subspace arithmetic.

Everything downstream (ternary closures, tripotent lattices, cone tests)
reduces to a handful of primitives defined here: Hilbert-Schmidt geometry
on vectorized matrices, Hermitian eigendecompositions, and tolerance
scaled rank decisions.

Matrices are plain square complex ``numpy`` arrays.  A :class:`Subspace`
stores an orthonormal basis (with respect to the Hilbert-Schmidt inner
product ``<a, b> = trace(a* b)``) of d x d matrices, vectorized row-major
internally.  Operator norms and positivity tests are obtained from
Hermitian eigendecompositions only; the largest singular value of ``m``
is recovered as the square root of the top eigenvalue of ``m* m``.

Every threshold is relative: a quantity counts as zero when it is below
``eps * max(1, scale)`` where ``scale`` is a norm of the inputs involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EPS_FLOOR",
    "Tolerance",
    "TOL",
    "Subspace",
    "adjoint",
    "as_matrix",
    "hs_inner",
    "hs_norm",
    "op_norm",
    "is_hermitian",
    "is_psd",
    "matrix_unit",
    "orthonormalize",
    "span_union",
    "intersect",
    "subspace_equal",
]


# smallest accepted tolerance: below it rounding beats the cutoffs.  The
# classify dimensions of the committed inputs were wrong on 4 of 9 hosts
# at 1e-16 (M_2's center came out 0) and on the conjugated D_3 up to
# 2e-15, and right on all from 3e-15 up
EPS_FLOOR = 64 * float(np.finfo(float).eps)

# stacked cone membership takes its stacks in chunks of at most this many
# complex entries per product, so its temporaries stay near 30 KB each:
# checking 64 samples of 8 x 8 matrices against two cones in one chunk
# raised a process's peak resident memory by about 1 MB.  The tripotent
# order chunks by bytes instead (tripotents._CHUNK_BYTES): at this rule
# it took 35430 chunks, each with its own eigvalsh, for the 177147
# tripotents of D_11
_STACK_CHUNK = 2048


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance used by every approximate decision.

    ``cutoff(scale)`` is the absolute threshold below which a residual of
    magnitude comparable to ``scale`` is treated as zero.  ``eps`` lies in
    ``[EPS_FLOOR, 1)``.
    """

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (EPS_FLOOR <= self.eps < 1.0):
            raise ValueError(f"eps must lie in [{EPS_FLOOR:.3g}, 1), got {self.eps}")

    def cutoff(self, scale: float = 1.0) -> float:
        return self.eps * max(1.0, float(scale))

    @staticmethod
    def of(value: "Tolerance | float | None") -> "Tolerance":
        if value is None:
            return TOL
        if isinstance(value, Tolerance):
            return value
        return Tolerance(float(value))


TOL = Tolerance()


def as_matrix(m: np.ndarray | Sequence) -> np.ndarray:
    """Coerce input to a square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(np.asarray(m, dtype=complex), -1, -2))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product trace(a* b), conjugate-linear in a."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=complex)))


def op_norm(m: np.ndarray) -> float:
    """Operator (spectral) norm via the Hermitian eigenproblem for m* m."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    gram = adjoint(a) @ a
    evals = np.linalg.eigvalsh(gram)
    top = float(evals[-1])
    return float(np.sqrt(max(top, 0.0)))


def is_hermitian(m: np.ndarray, tol: Tolerance | float | None = None) -> bool:
    t = Tolerance.of(tol)
    a = as_matrix(m)
    return hs_norm(a - adjoint(a)) <= t.cutoff(hs_norm(a))


def is_psd(m: np.ndarray, tol: Tolerance | float | None = None) -> bool:
    """True iff m is Hermitian within tolerance and has no eigenvalue below
    ``-eps * max(1, |m|)``.  The zero matrix is positive semidefinite."""
    t = Tolerance.of(tol)
    a = as_matrix(m)
    if not is_hermitian(a, t):
        return False
    h = (a + adjoint(a)) / 2.0
    evals = np.linalg.eigvalsh(h)
    scale = float(np.max(np.abs(evals))) if evals.size else 0.0
    return bool(evals.size == 0 or evals[0] >= -t.cutoff(scale))


def matrix_unit(dim: int, i: int, j: int) -> np.ndarray:
    u = np.zeros((dim, dim), dtype=complex)
    u[i, j] = 1.0
    return u


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of d x d complex matrices.

    ``onb`` has shape (k, d, d); its rows, vectorized, form an orthonormal
    family for the Hilbert-Schmidt inner product.  Instances are built by
    :func:`orthonormalize` and treated as immutable.
    """

    ambient_dim: int
    onb: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.onb.shape[0])

    @property
    def vecs(self) -> np.ndarray:
        d = self.ambient_dim
        return self.onb.reshape(self.dim, d * d)

    def basis(self) -> list[np.ndarray]:
        return [self.onb[i].copy() for i in range(self.dim)]

    def coefficients(self, m: np.ndarray) -> np.ndarray:
        v = as_matrix(m).ravel()
        if v.shape[0] != self.ambient_dim ** 2:
            raise ValueError("ambient dimension mismatch")
        return np.conj(self.vecs) @ v

    def project(self, m: np.ndarray) -> np.ndarray:
        d = self.ambient_dim
        if self.dim == 0:
            return np.zeros((d, d), dtype=complex)
        c = self.coefficients(m)
        return (c @ self.vecs).reshape(d, d)

    def residual(self, m: np.ndarray) -> float:
        return hs_norm(as_matrix(m) - self.project(m))

    def residual_rows(self, flat: np.ndarray) -> np.ndarray:
        """The part of each row of an (n, d^2) stack of vectorized matrices
        that lies off the subspace; its norm is :meth:`residual`."""
        vecs = self.vecs
        return flat - (flat @ vecs.conj().T) @ vecs

    def contains(self, m: np.ndarray, tol: Tolerance | float | None = None) -> bool:
        t = Tolerance.of(tol)
        return self.residual(m) <= t.cutoff(hs_norm(m))

    def contains_all(self, mats: Iterable[np.ndarray],
                     tol: Tolerance | float | None = None) -> bool:
        """:meth:`contains` for every matrix, in one :meth:`residual_rows` pass."""
        t = Tolerance.of(tol)
        stack = list(mats)
        flat = np.array(stack, dtype=complex).reshape(len(stack), self.ambient_dim ** 2)
        resid = np.linalg.norm(self.residual_rows(flat), axis=1)
        return not np.any(resid > t.eps * np.maximum(1.0, np.linalg.norm(flat, axis=1)))

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace, acting on vectorized
        matrices (a d^2 x d^2 matrix)."""
        v = self.vecs
        return v.conj().T @ v if self.dim else np.zeros(
            (self.ambient_dim ** 2, self.ambient_dim ** 2), dtype=complex)

    def is_selfadjoint_set(self, tol: Tolerance | float | None = None) -> bool:
        return self.contains_all(adjoint(self.onb), tol)

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        d = self.ambient_dim
        if self.dim == 0:
            return np.zeros((d, d), dtype=complex)
        c = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return (c @ self.vecs).reshape(d, d)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.zeros((0, ambient_dim, ambient_dim), dtype=complex))


def _svals_vh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of a 2-D array.

    An array with more than twice as many rows as columns is reduced to
    its R factor first: ``a = QR`` gives ``a* a = R* R``, so the values
    and right vectors are those of R, and no row-sized factor is built.
    """
    if a.shape[0] > 2 * a.shape[1]:
        a = np.linalg.qr(a, mode="r")
    _, svals, vh = np.linalg.svd(a, full_matrices=False)
    return svals, vh


def orthonormalize(mats: Sequence[np.ndarray] | np.ndarray, dim: int | None = None,
                   tol: Tolerance | float | None = None) -> Subspace:
    """Orthonormal basis of span(mats) under the Hilbert-Schmidt product.

    ``mats`` is a sequence of d x d matrices or one ``(n, d, d)`` array.
    Linearly dependent inputs are dropped: directions whose singular value
    falls at or below ``eps * max(1, s_max)`` do not survive.  ``dim`` is
    required when ``mats`` is an empty sequence (the ambient size cannot
    be inferred).
    """
    t = Tolerance.of(tol)
    if not isinstance(mats, np.ndarray):
        mats = [as_matrix(m) for m in mats]
        if not mats:
            if dim is None:
                raise ValueError("ambient dimension required for an empty spanning set")
            return Subspace.zero(dim)
        if any(m.shape != mats[0].shape for m in mats):
            raise ValueError("matrices of mixed sizes cannot span a subspace")
    stack = np.asarray(mats, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {stack.shape}")
    d = stack.shape[-1]
    if dim is not None and dim != d:
        raise ValueError(f"ambient dimension mismatch: {dim} vs {d}")
    if stack.shape[0] == 0:
        return Subspace.zero(d)
    svals, vh = _svals_vh(stack.reshape(-1, d * d))
    if svals.size == 0 or svals[0] <= t.cutoff(0.0):
        return Subspace.zero(d)
    keep = svals > t.cutoff(float(svals[0]))
    rows = vh[keep]
    return Subspace(d, rows.reshape(-1, d, d))


def span_union(*spaces: Subspace, tol: Tolerance | float | None = None) -> Subspace:
    if not spaces:
        raise ValueError("need at least one subspace")
    d = spaces[0].ambient_dim
    for s in spaces:
        if s.ambient_dim != d:
            raise ValueError("ambient dimension mismatch")
    return orthonormalize(np.concatenate([s.onb for s in spaces]), dim=d, tol=tol)


def intersect(a: Subspace, b: Subspace,
              tol: Tolerance | float | None = None) -> Subspace:
    """Intersection of two subspaces, from their principal angles.

    The SVD of ``Q_a* Q_b`` gives the principal vectors of ``a``; one
    is kept when its sine, its residual against ``b``, is within the
    cutoff, the same rule :meth:`Subspace.contains` applies.  Residuals
    are taken directly rather than as ``sqrt(1 - cos^2)``, which loses
    half the digits near zero angle.
    """
    t = Tolerance.of(tol)
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    d = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(d)
    qa, qb = a.vecs, b.vecs
    u, _, _ = np.linalg.svd(qa.conj() @ qb.T, full_matrices=False)
    principal = u.T @ qa
    sines = np.linalg.norm(principal - (principal @ qb.conj().T) @ qb, axis=1)
    keep = principal[sines <= t.cutoff(1.0)]
    return Subspace(d, keep.reshape(-1, d, d))


def subspace_equal(a: Subspace, b: Subspace,
                   tol: Tolerance | float | None = None) -> bool:
    if a.ambient_dim != b.ambient_dim:
        return False
    if a.dim != b.dim:
        return False
    t = Tolerance.of(tol)
    return float(np.linalg.norm(a.projector() - b.projector())) <= t.cutoff(max(1.0, a.dim))
