"""Natural cones, Peirce calculus, and the classification report.

Each central selfadjoint tripotent u of a *-TRO Z induces a natural
cone: the set of x in Z with ``u x u = x`` and ``u x`` positive
semidefinite.  Matrix levels are ordered by the amplified tripotent
``diag(u, ..., u)``.  The Peirce space ``u Z u`` becomes a C*-algebra
under ``x . y = x u y`` with unit u, and a maximal tripotent splits Z
into that algebra and its orthocomplement ideal.

A space with trivial center admits no nonzero natural cone at all; the
classification report collects the counts that decide this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Subspace,
    adjoint,
    as_matrix,
    hs_norm,
    is_psd,
    orthonormalize,
)
from .tro import Tro
from .tripotents import (
    Tripotent,
    _is_sign_cube,
    _sort_key,
    center_atoms,
    central_tripotents,
    meet,
)

__all__ = [
    "NaturalCone",
    "ClassificationReport",
    "cone_membership",
    "matrix_cone_membership",
    "peirce_space",
    "peirce_product",
    "decompose",
    "is_unorderable",
    "classify",
    "cone_intersection_is_meet",
]

MAX_MATRIX_LEVEL = 4


def cone_membership(x: np.ndarray, u: np.ndarray | Tripotent, z: Tro) -> bool:
    """x lies in the natural cone of u iff x is in Z, u x u = x, and u x
    is positive semidefinite."""
    t = z.tol
    a = as_matrix(x)
    w = u.u if isinstance(u, Tripotent) else as_matrix(u)
    if not z.space.contains(a, t):
        return False
    if hs_norm(w @ a @ w - a) > t.cutoff(hs_norm(a)):
        return False
    return is_psd(w @ a, t)


def matrix_cone_membership(blocks: list[list[np.ndarray]], u: np.ndarray | Tripotent,
                           z: Tro) -> bool:
    """Membership of an n x n block matrix in the level-n matrix cone,
    tested against the amplified tripotent diag(u, ..., u).  Levels above
    MAX_MATRIX_LEVEL are rejected."""
    t = z.tol
    n = len(blocks)
    if n == 0 or any(len(row) != n for row in blocks):
        raise ValueError("blocks must form a square array")
    if n > MAX_MATRIX_LEVEL:
        raise ValueError(f"matrix level {n} exceeds the cap {MAX_MATRIX_LEVEL}")
    w = u.u if isinstance(u, Tripotent) else as_matrix(u)
    d = z.ambient_dim
    for row in blocks:
        for b in row:
            if not z.space.contains(as_matrix(b), t):
                return False
    big = np.block([[as_matrix(b) for b in row] for row in blocks])
    amp = np.kron(np.eye(n), w)
    if hs_norm(amp @ big @ amp - big) > t.cutoff(hs_norm(big)):
        return False
    return is_psd(amp @ big, t)


def peirce_space(u: np.ndarray | Tripotent, z: Tro) -> Subspace:
    """span{u b u : b a basis of Z}; for central u this is u^2 Z."""
    w = u.u if isinstance(u, Tripotent) else as_matrix(u)
    mats = [w @ b @ w for b in z.space.onb]
    return orthonormalize(mats, dim=z.ambient_dim, tol=z.tol)


def peirce_product(x: np.ndarray, y: np.ndarray, u: np.ndarray | Tripotent) -> np.ndarray:
    """The C*-product x u y carried by the Peirce space of u."""
    w = u.u if isinstance(u, Tripotent) else as_matrix(u)
    return as_matrix(x) @ w @ as_matrix(y)


def decompose(z: Tro, u: Tripotent) -> tuple[Subspace, Subspace]:
    """Split Z along a central tripotent into (u^2 Z, (1 - u^2) Z).

    For maximal u the first part is the Peirce algebra of u and the
    second is the orthocomplement ideal; their spans always reconstruct
    Z.  The zero tripotent yields ({0}, Z).
    """
    t = z.tol
    if not u.is_central:
        raise ValueError("decomposition requires a central tripotent")
    d = z.ambient_dim
    p = u.u @ u.u
    part = orthonormalize([p @ b for b in z.space.onb], dim=d, tol=t)
    complement = orthonormalize([b - p @ b for b in z.space.onb], dim=d, tol=t)
    return part, complement


def is_unorderable(z: Tro) -> bool:
    """True iff the center vanishes, i.e. the only natural cone is {0}."""
    return z.center.dim == 0


@dataclass(frozen=True)
class ClassificationReport:
    """Counts and invariants describing the natural orderings of a *-TRO.

    ``negation_closed`` and ``meet_closed`` hold iff the atoms of the
    center are certified and the enumerated sign vectors are the whole
    cube ``{-1, 0, 1}^c``, which is closed under both operations."""

    ambient_dim: int
    space_dim: int
    square_dim: int
    algebra_part_dim: int
    center_dim: int
    block_count: int
    natural_cone_count: int
    maximal_cone_count: int
    unorderable: bool
    maximal_indices: tuple[int, ...]
    decomposition_dims: tuple[int, int]
    negation_closed: bool
    meet_closed: bool


def classify(z: Tro, max_blocks: int = 12) -> ClassificationReport:
    """Full ordering classification of a *-TRO.

    The center's atoms are computed once; the tripotents are their sign
    vectors and the maximal ones those with full support.  Every maximal
    tripotent has the support projection ``sum a_i^2``, so one
    decomposition, at the first of them, covers all; a trivial center
    decomposes at its zero tripotent into ``({0}, Z)``.  Both lattice
    verdicts follow from the atom certificate and the sign cube."""
    atoms = center_atoms(z, max_blocks)
    tripotents = central_tripotents(z, atoms)
    maximal_indices = tuple(i for i, tp in enumerate(tripotents) if tp.has_full_support)
    part, comp = decompose(z, tripotents[maximal_indices[0] if maximal_indices else 0])
    lattice = atoms.certified and _is_sign_cube([tp.signs for tp in tripotents])
    return ClassificationReport(
        ambient_dim=z.ambient_dim,
        space_dim=z.dim,
        square_dim=z.square.dim,
        algebra_part_dim=z.alg_part.dim,
        center_dim=z.center.dim,
        block_count=len(atoms.projectors),
        natural_cone_count=len(tripotents),
        maximal_cone_count=len(maximal_indices),
        unorderable=is_unorderable(z),
        maximal_indices=maximal_indices,
        decomposition_dims=(part.dim, comp.dim),
        negation_closed=lattice,
        meet_closed=lattice,
    )


@dataclass(frozen=True)
class NaturalCone:
    """The natural cone of a central tripotent inside a host *-TRO."""

    host: Tro
    tripotent: Tripotent

    def contains(self, x: np.ndarray) -> bool:
        return cone_membership(x, self.tripotent, self.host)

    def sample(self, rng: np.random.Generator, count: int) -> list[np.ndarray]:
        """Random cone elements e u e* with e drawn from the host space."""
        u = self.tripotent.u
        out = []
        for _ in range(count):
            e = self.host.space.random_element(rng)
            out.append(e @ u @ adjoint(e))
        return out

    def diagonal_rays(self) -> list[np.ndarray]:
        """Extreme rays when the host consists of diagonal matrices only:
        one ray u_ii E_ii per nonvanishing diagonal entry of u."""
        t = self.host.tol
        d = self.host.ambient_dim
        offdiag = [abs(b[i, j]) for b in self.host.space.onb
                   for i in range(d) for j in range(d) if i != j]
        if offdiag and max(offdiag) > t.cutoff(1.0):
            raise ValueError("diagonal rays require a diagonal host")
        u = self.tripotent.u
        rays = []
        for i in range(d):
            val = u[i, i]
            if abs(val) > t.cutoff(1.0):
                ray = np.zeros((d, d), dtype=complex)
                ray[i, i] = val
                rays.append(ray)
        return rays


def cone_intersection_is_meet(u: Tripotent, v: Tripotent, z: Tro,
                              rng: np.random.Generator | None = None,
                              samples: int = 32,
                              ) -> tuple[bool, np.ndarray | None]:
    """Check that the intersection of two natural cones is the cone of
    the meet tripotent.

    Sampled evidence: elements of the meet cone must land in both cones,
    and sampled elements lying in both cones must land in the meet cone.
    On diagonal hosts the extreme rays are enumerated exhaustively, which
    settles the equality exactly.  Returns (verdict, witness).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    w = meet(u, v, host=z)
    cu, cv, cw = NaturalCone(z, u), NaturalCone(z, v), NaturalCone(z, w)

    for x in cw.sample(rng, samples):
        if not (cu.contains(x) and cv.contains(x)):
            return False, x
    both = [x for x in cu.sample(rng, samples) + cv.sample(rng, samples)
            if cu.contains(x) and cv.contains(x)]
    # sums of common elements stay in the intersection
    both.extend(a + b for a, b in zip(both[::2], both[1::2]))
    for x in both:
        if not cw.contains(x):
            return False, x

    try:
        rays_u = cu.diagonal_rays()
        rays_v = cv.diagonal_rays()
        rays_w = cw.diagonal_rays()
    except ValueError:
        return True, None
    # on a diagonal host the cones are simplicial: compare ray sets
    def keyset(rays: list[np.ndarray]) -> set[tuple]:
        return {_sort_key(r) for r in rays}

    common = keyset(rays_u) & keyset(rays_v)
    if common != keyset(rays_w):
        diff = common.symmetric_difference(keyset(rays_w))
        d = z.ambient_dim
        witness = np.array(list(diff)[0][: d * d]).reshape(d, d).astype(complex)
        return False, witness
    for r in rays_u:
        inter = cu.contains(r) and cv.contains(r)
        if inter != cw.contains(r):
            return False, r
    return True, None
