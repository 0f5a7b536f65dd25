"""Linear maps between *-TROs: ternary morphisms, complete positivity,
idempotent compressions, and the period-two automorphism.

A :class:`LinearMap` acts on vectorized (row-major) ambient matrices, so
composition and amplification are plain matrix algebra.  The checks
here are the computational halves of the structure theory:

* a ternary *-morphism preserves ``x y* z`` and the adjoint, decided
  through the square on the ``m k`` products ``a z``, ``a`` in ``Z^2``;
* a positive ternary *-morphism induces a *-homomorphism on the square
  via ``pi(x* y) = T(x)* T(y)``, solved on an overcomplete generating
  set;
* positivity of such maps upgrades to complete positivity, probed by
  sampled block positives plus a deterministic maximally entangled
  witness when the domain is a full matrix algebra;
* a completely positive completely contractive idempotent compresses a
  *-TRO to a new involutive ternary system with cone ``P(Z+)``;
* when Z meets its square trivially, ``Z + Z^2`` carries the period-two
  *-automorphism fixing the square and negating Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    Subspace,
    Tolerance,
    adjoint,
    as_matrix,
    is_psd,
    matrix_unit,
    op_norm,
    orthonormalize,
    span_union,
)
from .tro import Tro, _products, _row_norms, ternary_product

__all__ = [
    "LinearMap",
    "is_ternary_star_morphism",
    "is_selfadjoint_map",
    "induced_hom",
    "cp_refutation",
    "is_completely_positive_up_to",
    "CompressedSystem",
    "compress",
    "Automorphism",
    "period_two_automorphism",
]


@dataclass(frozen=True)
class LinearMap:
    """A linear map from the ambient algebra of ``domain`` into the
    d' x d' matrices, represented on vectorized matrices."""

    domain: Tro
    codomain_dim: int
    matrix: np.ndarray  # shape (codomain_dim^2, domain.ambient_dim^2)

    def __post_init__(self) -> None:
        expect = (self.codomain_dim ** 2, self.domain.ambient_dim ** 2)
        if self.matrix.shape != expect:
            raise ValueError(f"map matrix must have shape {expect}, got {self.matrix.shape}")

    def apply(self, m: np.ndarray) -> np.ndarray:
        v = as_matrix(m).ravel()
        dc = self.codomain_dim
        return (self.matrix @ v).reshape(dc, dc)

    def apply_blocks(self, blocks: list[list[np.ndarray]]) -> np.ndarray:
        """Entrywise amplification to an n x n block matrix."""
        return np.block([[self.apply(b) for b in row] for row in blocks])

    def compose(self, other: "LinearMap") -> "LinearMap":
        if other.codomain_dim != self.domain.ambient_dim:
            raise ValueError("composition dimension mismatch")
        return LinearMap(other.domain, self.codomain_dim, self.matrix @ other.matrix)

    @staticmethod
    def from_function(fn: Callable[[np.ndarray], np.ndarray], domain: Tro,
                      codomain_dim: int | None = None) -> "LinearMap":
        """Materialize a linear function by its action on matrix units."""
        d = domain.ambient_dim
        dc = codomain_dim if codomain_dim is not None else fn(matrix_unit(d, 0, 0)).shape[0]
        cols = np.zeros((dc * dc, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                cols[:, i * d + j] = as_matrix(fn(matrix_unit(d, i, j))).ravel()
        return LinearMap(domain, dc, cols)

    @staticmethod
    def from_pairs(domain: Tro, codomain_dim: int,
                   pairs: list[tuple[np.ndarray, np.ndarray]]) -> "LinearMap":
        """Least-squares extension of input/output samples; the inputs
        must span the domain space.  Off the span the map is zero."""
        t = domain.tol
        if not pairs:
            raise ValueError("at least one pair is required")
        d = domain.ambient_dim
        xs = np.stack([as_matrix(x).ravel() for x, _ in pairs], axis=1)
        ys = np.stack([as_matrix(y).ravel() for _, y in pairs], axis=1)
        covered = orthonormalize([x for x, _ in pairs], dim=d, tol=t)
        if not covered.contains_all(domain.space.onb, t):
            raise ValueError("pairs do not span the domain space")
        m = ys @ np.linalg.pinv(xs)
        resid = float(np.linalg.norm(m @ xs - ys))
        if resid > t.cutoff(float(np.linalg.norm(ys))):
            raise ValueError("pairs are not consistent with a linear map")
        return LinearMap(domain, codomain_dim, m)

    @staticmethod
    def identity(domain: Tro) -> "LinearMap":
        d = domain.ambient_dim
        return LinearMap(domain, d, np.eye(d * d, dtype=complex))

    @staticmethod
    def transpose_map(domain: Tro) -> "LinearMap":
        return LinearMap.from_function(lambda m: m.T, domain, domain.ambient_dim)

    @staticmethod
    def conjugation(domain: Tro, v: np.ndarray) -> "LinearMap":
        """x -> v x v*; for unitary v a ternary *-isomorphism onto v Z v*."""
        w = as_matrix(v)
        return LinearMap.from_function(lambda m: w @ m @ adjoint(w), domain, w.shape[0])

    @staticmethod
    def compression(domain: Tro, p: np.ndarray) -> "LinearMap":
        """x -> p x p for a projection p."""
        q = as_matrix(p)
        return LinearMap.from_function(lambda m: q @ m @ q, domain, q.shape[0])


def _apply_rows(t_map: LinearMap, mats: np.ndarray) -> np.ndarray:
    """``T`` on a stack of matrices, as one product on vectorized rows."""
    return mats.reshape(len(mats), t_map.matrix.shape[1]) @ t_map.matrix.T


def _exceeds(gap: np.ndarray, a: np.ndarray, b: np.ndarray, t: Tolerance) -> np.ndarray:
    """Per row: ``|gap| > cutoff(max(|a|, |b|))``."""
    return _row_norms(gap) > t.eps * np.maximum(1.0, np.maximum(_row_norms(a), _row_norms(b)))


def _induced(t_map: LinearMap) -> tuple[np.ndarray, np.ndarray, bool]:
    """The stack ``T(b_l)``, the rows ``pi(a_p)`` of
    ``pi(x* y) = T(x)* T(y)`` on the orthonormal basis ``a_p`` of the
    square, and whether ``pi`` is well defined.  Least squares over the
    ``b_i* b_j`` in the square's coordinates has rank ``dim Z^2``, cut
    once when Z was certified, so no second cut meets its noise."""
    z = t_map.domain
    dc = t_map.codomain_dim
    basis = z.space.onb
    images = _apply_rows(t_map, basis).reshape(-1, dc, dc)
    coords = _products(adjoint(basis), basis) @ z.square.vecs.conj().T  # rows b_i* b_j
    targets = _products(adjoint(images), images)
    pi = np.linalg.lstsq(coords, targets, rcond=None)[0]
    resid = float(np.linalg.norm(coords @ pi - targets))
    return images, pi, resid <= z.tol.cutoff(float(np.linalg.norm(targets)))


def _morphism_pass(t_map: LinearMap) -> tuple[bool, bool, bool]:
    """Whether T is selfadjoint, its ``pi`` well defined (decided only
    for selfadjoint T) and T a ternary *-morphism, in one pass."""
    if not is_selfadjoint_map(t_map):
        return False, False, False
    images, pi, well_defined = _induced(t_map)
    if not well_defined:
        return True, False, False
    z = t_map.domain
    dc = t_map.codomain_dim
    lhs = _apply_rows(t_map, _products(z.square.onb, z.space.onb))
    rhs = _products(pi.reshape(-1, dc, dc), images)
    return True, True, not np.any(_exceeds(lhs - rhs, lhs, rhs, z.tol))


def is_ternary_star_morphism(t_map: LinearMap) -> bool:
    """T([x, y, z]) = [Tx, Ty, Tz] and T(x*) = T(x)*, decided on ``m k``
    products instead of ``k^3`` basis triples: it holds iff T is
    selfadjoint, ``pi(x y*) = T(x) T(y)*`` (for selfadjoint T the ``pi``
    of :func:`_induced`) is well defined, and ``T(a_p b_l) =
    pi(a_p) T(b_l)`` over the bases of ``Z^2`` and Z.

    (=>) If ``sum_i x_i y_i* = 0``, then ``w = sum_i T(x_i) T(y_i)*`` has
    ``w w* = sum_j T((sum_i x_i y_i*) y_j) T(x_j)* = 0``, so ``w = 0``.
    (<=) ``a -> T(a z)`` and ``a -> pi(a) T(z)`` are linear on
    ``span{b_i b_j*} = Z^2``; at ``a = x y*`` they are the two sides.
    """
    return _morphism_pass(t_map)[2]


def is_selfadjoint_map(t_map: LinearMap) -> bool:
    """``T(b*) = T(b)*`` over the basis of Z, each within ``eps * max(1, |T b|)``."""
    dc = t_map.codomain_dim
    basis = t_map.domain.space.onb
    images = _apply_rows(t_map, basis)
    flipped = adjoint(_apply_rows(t_map, adjoint(basis)).reshape(-1, dc, dc))
    return not np.any(_exceeds(flipped.reshape(images.shape) - images, images, images,
                               t_map.domain.tol))


def induced_hom(t_map: LinearMap) -> tuple[LinearMap, bool]:
    """The *-homomorphism pi on the square determined by
    ``pi(x* y) = T(x)* T(y)``, zero off the square, and whether it is
    well defined.

    Its domain, the square, is derived without a certificate pass: for
    selfadjoint Z, ``Z^2`` is a finite-dimensional *-algebra
    (``z w z' = z (w*)* z'`` lies in Z), so it has a unit e, is ternary
    closed, and is its own square (``a = e a``).
    """
    z = t_map.domain
    _, pi, well_defined = _induced(t_map)
    square_tro = Tro._derive(z.square, z.tol, z.square)
    return LinearMap(square_tro, t_map.codomain_dim, pi.T @ z.square.vecs.conj()), well_defined


def _random_block_positive(z: Tro, level: int, rng: np.random.Generator) -> list[list[np.ndarray]]:
    """A positive element of the level-n matrix space over Z: C* C with
    blocks of C drawn from the algebra part, so every block of the
    product stays inside Z."""
    d = z.ambient_dim
    blocks = [[z.alg_part.random_element(rng) for _ in range(level)]
              for _ in range(level)]
    c = np.block(blocks) if level > 1 else blocks[0][0]
    x = adjoint(c) @ c
    return [[x[i * d:(i + 1) * d, j * d:(j + 1) * d] for j in range(level)]
            for i in range(level)]


def cp_refutation(t_map: LinearMap, max_level: int = 3,
                  rng: np.random.Generator | None = None,
                  samples: int = 8,
                  ) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Search for a violation of complete positivity up to the given
    matrix level.

    Returns (level, X, T_level(X)) for a positive X whose image fails to
    be positive semidefinite, or None if no violation was found.  When
    the domain is the full matrix algebra, the maximally entangled
    block matrix [E_ij] is included deterministically at level d, which
    is a Choi-type certificate.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    z = t_map.domain
    t = z.tol
    d = z.ambient_dim
    full_domain = z.space.dim == d * d
    for level in range(1, max_level + 1):
        candidates: list[list[list[np.ndarray]]] = []
        for _ in range(samples):
            candidates.append(_random_block_positive(z, level, rng))
        if full_domain and level == d:
            candidates.append([[matrix_unit(d, i, j) for j in range(d)]
                               for i in range(d)])
        for blocks in candidates:
            big = np.block([[as_matrix(b) for b in row] for row in blocks]) \
                if level > 1 else as_matrix(blocks[0][0])
            if not is_psd(big, t):
                continue  # sampling artifact; positives only
            image = t_map.apply_blocks(blocks)
            if not is_psd(image, t):
                return level, big, image
    return None


def is_completely_positive_up_to(t_map: LinearMap, max_level: int = 3,
                                 rng: np.random.Generator | None = None,
                                 samples: int = 8) -> bool:
    """True means no refutation was found up to the level cap; a False
    is backed by a concrete positive witness with non-positive image."""
    return cp_refutation(t_map, max_level=max_level, rng=rng, samples=samples) is None


@dataclass(frozen=True)
class CompressedSystem:
    """Image of a *-TRO under a completely positive contractive
    idempotent, as an involutive ternary system.

    The inherited product is ``P([x, y, z])`` and the inherited cone is
    ``P(Z+)``, which coincides with ``range \\cap Z+``."""

    source: Tro
    projection: LinearMap
    range_space: Subspace
    cone_span: Subspace

    def triple(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        p = self.projection
        return p.apply(ternary_product(p.apply(x), p.apply(y), p.apply(z)))

    def cone_contains(self, x: np.ndarray) -> bool:
        t = self.source.tol
        return self.range_space.contains(x, t) and is_psd(as_matrix(x), t)


def compress(p_map: LinearMap, rng: np.random.Generator | None = None,
             samples: int = 16) -> CompressedSystem:
    """Compress a *-TRO by a completely positive completely contractive
    idempotent.

    Certifies idempotency on the domain, samples complete positivity and
    contractivity at levels one and two, and certifies that P is
    selfadjoint.  Raises ValueError when any certificate fails.

    That settles the range triples: for ``x, y, w`` in ``R = P(Z)``,
    ``[w*, y*, x*] = P(w* y x*) = P((x y* w)*) = P(x y* w)*`` is the
    involution law, and ``P(x y* w)`` lies in R since Z holds ``x y* w``.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    z = p_map.domain
    t = z.tol
    d = z.ambient_dim
    if p_map.codomain_dim != d:
        raise ValueError("an idempotent must map the ambient algebra to itself")
    once = _apply_rows(p_map, z.space.onb)
    idem = _exceeds(once @ p_map.matrix.T - once, once, once, t)
    # the first failing basis element names the fault, idempotency first
    first = int(np.argmax(idem)) if idem.any() else len(once)
    if not z.space.contains_all(once[:first], t):
        raise ValueError("map does not leave the domain space invariant")
    if first < len(once):
        raise ValueError("map is not idempotent on the domain")
    if cp_refutation(p_map, max_level=2, rng=rng, samples=samples) is not None:
        raise ValueError("map is not completely positive at levels <= 2")
    for level in (1, 2):
        for _ in range(samples):
            blocks = [[z.space.random_element(rng) for _ in range(level)]
                      for _ in range(level)]
            big = np.block(blocks) if level > 1 else blocks[0][0]
            image = p_map.apply_blocks(blocks)
            if op_norm(image) > op_norm(big) * (1.0 + 1e3 * t.eps) + t.cutoff(0.0):
                raise ValueError("map is not contractive at level %d" % level)
    if not is_selfadjoint_map(p_map):
        raise ValueError("inherited product violates the involution law")
    range_space = orthonormalize(once.reshape(-1, d, d), dim=d, tol=t)
    cone_span = orthonormalize(_apply_rows(p_map, z.alg_part.onb).reshape(-1, d, d), dim=d, tol=t)
    return CompressedSystem(source=z, projection=p_map,
                            range_space=range_space, cone_span=cone_span)


@dataclass(frozen=True)
class Automorphism:
    """The period-two *-automorphism of A = Z + Z^2 when Z meets Z^2
    trivially: fixes the square, negates Z."""

    algebra: Tro
    module: Subspace
    square: Subspace
    matrix: np.ndarray

    def apply(self, m: np.ndarray) -> np.ndarray:
        d = self.algebra.ambient_dim
        return (self.matrix @ as_matrix(m).ravel()).reshape(d, d)


def period_two_automorphism(z: Tro) -> Automorphism:
    """Construct theta(a + x) = a - x on A = Z^2 + Z.

    Requires Z and Z^2 to intersect trivially, otherwise the grading is
    ill-defined and a ValueError is raised.  The result is certified:
    theta is multiplicative, *-preserving, involutive, with fixed space
    Z^2 and (-1)-eigenspace Z.
    """
    t = z.tol
    if z.alg_part.dim != 0:
        raise ValueError("Z intersects its square; the flip automorphism needs Z \\cap Z^2 = 0")
    alg = Tro.certify(span_union(z.square, z.space, tol=t), t)
    if alg.dim != z.square.dim + z.dim:
        raise ValueError("square and module overlap unexpectedly")
    basis_mat = np.concatenate([z.square.vecs, z.space.vecs]).T
    image_mat = np.concatenate([z.square.vecs, -z.space.vecs]).T
    auto = Automorphism(algebra=alg, module=z.space, square=z.square,
                        matrix=image_mat @ np.linalg.pinv(basis_mat))
    basis, flat, m = alg.space.onb, alg.space.vecs, auto.matrix.T
    images = flat @ m
    stack = images.reshape(basis.shape)
    if np.any(_row_norms(images @ m - flat) > t.cutoff(1.0)):
        raise RuntimeError("flip automorphism failed the involution check")
    flipped = adjoint(basis).reshape(flat.shape) @ m - adjoint(stack).reshape(flat.shape)
    if np.any(_row_norms(flipped) > t.cutoff(1.0)):
        raise RuntimeError("flip automorphism failed the *-check")
    if np.any(_row_norms(_products(basis, basis) @ m - _products(stack, stack)) > t.cutoff(1.0)):
        raise RuntimeError("flip automorphism failed multiplicativity")
    return auto
