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
    _STACK_CHUNK,
    Subspace,
    adjoint,
    as_matrix,
    hs_norm,
    is_psd,
    orthonormalize,
)
from .tro import Tro, _row_norms
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


def _cone_pass(xs: np.ndarray, ws: np.ndarray, z: Tro) -> list[bool]:
    """Membership of each matrix of ``xs`` in the natural cone of the
    matrix of ``ws`` in the same place; ``xs`` and ``ws`` are single
    matrices or (p, d, d) stacks of the same shape.  Returns a list of p
    verdicts (one for single matrices).

    The criteria and cutoffs are :func:`cone_membership`'s: the residual
    against Z at :meth:`Subspace.contains`'s cutoff, ``|w x w - x|`` at
    ``eps * max(1, |x|)``, and :func:`is_psd` of ``w x``, its Hermitian
    test and then its eigenvalue test.  One pass gives the products and
    norms of all pairs and one ``eigvalsh`` covers the pairs that pass
    the other tests; each cutoff is ``eps * max(1, scale)``, the rule of
    ``Tolerance.cutoff``, for a norm from that pass as the scale.
    """
    d = xs.shape[-1]
    k = d * d
    p = 1 if xs.ndim == 2 else len(xs)
    a = ws @ xs
    adj = a.conj().swapaxes(-1, -2)
    flat = xs.reshape(p, k)
    norms = _row_norms(np.concatenate([
        flat, z.space.residual_rows(flat), (a @ ws - xs).reshape(p, k), a.reshape(p, k),
        (a - adj).reshape(p, k)])).tolist()
    eps = z.tol.eps
    # per pair: |x|, residual, |w x w - x|, |w x| and |w x - (w x)*|
    rows = zip(*(norms[j * p:(j + 1) * p] for j in range(5)))
    live = [i for i, (sx, r, dv, sa, sk) in enumerate(rows)
            if r <= eps * max(1.0, sx) and not dv > eps * max(1.0, sx)
            and sk <= eps * max(1.0, sa)]
    ok = [False] * p
    if live:
        h = a + adj if len(live) == p else (a + adj)[live]
        evals = np.linalg.eigvalsh(h / 2.0).reshape(len(live), d)
        # each row is sorted, so max |evals| is the larger of -first and
        # last; a 0 x 0 matrix has none and is positive semidefinite
        for i, ev in zip(live, evals.tolist()):
            ok[i] = not ev or ev[0] >= -eps * max(1.0, -ev[0], ev[-1])
    return ok


def _cone_table(xs: np.ndarray, ws: np.ndarray, z: Tro) -> np.ndarray:
    """Cone membership of each matrix of an (n, d, d) stack ``xs`` in the
    natural cone of each tripotent of an (m, d, d) stack ``ws``, as an
    (m, n) boolean table: :func:`_cone_pass` on the pairs, a chunk of at
    most ``_STACK_CHUNK`` entries a product at a time."""
    xs = np.asarray(xs, dtype=complex)
    ws = np.asarray(ws, dtype=complex)
    m, n, d = len(ws), len(xs), xs.shape[-1]
    ok = np.zeros((m, n), dtype=bool)
    step = max(1, _STACK_CHUNK // max(1, m * d * d))
    for start in range(0, n, step):
        part = xs[start:start + step]
        c = len(part)
        pairs = np.broadcast_to(part, (m, c, d, d)).reshape(m * c, d, d)
        ok[:, start:start + c] = np.reshape(_cone_pass(pairs, np.repeat(ws, c, axis=0), z), (m, c))
    return ok


def cone_membership(x: np.ndarray, u: np.ndarray | Tripotent, z: Tro) -> bool:
    """x lies in the natural cone of u iff x is in Z, u x u = x, and u x
    is positive semidefinite."""
    w = u.u if isinstance(u, Tripotent) else as_matrix(u)
    return _cone_pass(as_matrix(x), w, z)[0]


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
    flat = np.stack([as_matrix(b) for row in blocks for b in row])
    flat = flat.reshape(n * n, z.ambient_dim ** 2)
    norms, res = _row_norms(np.concatenate([flat, z.space.residual_rows(flat)])).reshape(2, -1)
    if not np.all(res <= t.eps * np.fmax(1.0, norms)):
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
    vectors, in enumeration order, and the maximal ones those with full
    support.  Every maximal tripotent has the support projection
    ``sum a_i^2``, so one decomposition, at the first of them, covers
    all, and its matrix is the only one built; a trivial center
    decomposes at its zero tripotent into ``({0}, Z)``.  Both lattice
    verdicts follow from the atom certificate and the sign cube."""
    atoms = center_atoms(z, max_blocks)
    if atoms.count:
        signs = atoms.sorted_signs()
        maximal_indices = tuple(np.flatnonzero(signs.all(axis=1)).tolist())
        at = Tripotent(atoms.matrix(signs[maximal_indices[0]]), True)
    else:
        [at] = central_tripotents(z, atoms)
        signs, maximal_indices = [at.signs], ()
    part, comp = decompose(z, at)
    lattice = atoms.certified and _is_sign_cube(signs)
    return ClassificationReport(
        ambient_dim=z.ambient_dim,
        space_dim=z.dim,
        square_dim=z.square.dim,
        algebra_part_dim=z.alg_part.dim,
        center_dim=z.center.dim,
        block_count=len(atoms.projectors),
        natural_cone_count=len(signs),
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
        """Random cone elements e u e* with e drawn from the host space.

        The coefficients of e are drawn as :meth:`Subspace.random_element`
        draws them, real parts and then imaginary parts, sample by sample,
        so the stream is the same; a zero space draws nothing."""
        space, d = self.host.space, self.host.ambient_dim
        c = rng.standard_normal((count, 2, space.dim))
        e = ((c[:, 0] + 1j * c[:, 1]) @ space.vecs).reshape(count, d, d)
        return list(e @ self.tripotent.u @ adjoint(e))

    def diagonal_rays(self) -> list[np.ndarray]:
        """Extreme rays when the host consists of diagonal matrices only:
        one ray u_ii E_ii per nonvanishing diagonal entry of u."""
        t = self.host.tol
        d = self.host.ambient_dim
        offdiag = np.abs(self.host.space.onb[:, ~np.eye(d, dtype=bool)])
        if offdiag.max(initial=0.0) > t.cutoff(1.0):
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
    settles the equality exactly.  Returns (verdict, witness); the
    witness is the first matrix, in sampling order, that fails.

    Each of the three checks (meet samples against both cones, common
    samples and their pair sums against the meet cone, the rays of u
    against all three cones) is one call of the stacked membership
    check; no matrix is checked on its own.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    d = z.ambient_dim
    w = meet(u, v, host=z)
    cu, cv, cw = NaturalCone(z, u), NaturalCone(z, v), NaturalCone(z, w)
    uv = np.stack([u.u, v.u])

    xs = np.reshape(cw.sample(rng, samples), (samples, d, d))
    bad = np.flatnonzero(~_cone_table(xs, uv, z).all(axis=0))
    if bad.size:
        return False, xs[bad[0]]
    xs = np.reshape(cu.sample(rng, samples) + cv.sample(rng, samples), (2 * samples, d, d))
    both = xs[_cone_table(xs, uv, z).all(axis=0)]
    # sums of common elements stay in the intersection
    pairs = len(both) // 2 * 2
    both = np.concatenate([both, both[0:pairs:2] + both[1:pairs:2]])
    bad = np.flatnonzero(~_cone_table(both, w.u[None], z)[0])
    if bad.size:
        return False, both[bad[0]]

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
        witness = np.array(list(diff)[0][: d * d]).reshape(d, d).astype(complex)
        return False, witness
    rays = np.reshape(rays_u, (len(rays_u), d, d))
    in_u, in_v, in_w = _cone_table(rays, np.stack([u.u, v.u, w.u]), z)
    bad = np.flatnonzero((in_u & in_v) != in_w)
    if bad.size:
        return False, rays[bad[0]]
    return True, None
