"""Selfadjoint central tripotents and their lattice.

A selfadjoint tripotent is a Hermitian matrix u with u^3 = u, i.e. a
difference p - q of two orthogonal projections.  The central ones (u in
the center of a *-TRO) classify the natural orderings of the space: u
``leq`` v iff ``u v u = u``, the meet of two central tripotents is
``(u v u + v u v) / 2``, and the maximal elements are the central
elements acting as a unit on the center.

Enumeration strategy: the selfadjoint part of the center is a commuting
Hermitian family, so it is simultaneously block-diagonalized; every
central element is a scalar on each joint eigenblock.  Blocks whose
values agree up to one sign form an atom, a minimal central tripotent.
The atoms are pairwise orthogonal and span the center, so the central
tripotents are exactly the sign vectors in {-1, 0, 1}^dim(center) over
them, and order, meet, negation and maximality act on sign vectors.
The atom certificate alone certifies every listed sign sum; a center
whose atoms fail it is refused with a :class:`TroError`.  The cube is
closed under negation and meet, so certified atoms plus one check that
the listed vectors fill the cube decide both lattice properties.  The
atom count is capped at ``MAX_ATOMS`` to keep enumeration at desk scale.

The sign vectors are ordered by the rounded entries of their matrices
without building those matrices: one stable ``lexsort`` over the entry
columns where some block projector is nonzero, each computed as the
matrix sum computes it.  Only the sorted vectors are then built, as
stacked sums; the CLI builds, checks and prints them a chunk of rows at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .linalg import (
    Subspace,
    Tolerance,
    adjoint,
    as_matrix,
    hs_norm,
    is_hermitian,
    op_norm,
)
from .tro import Tro, TroError, _row_norms

__all__ = [
    "Tripotent",
    "BlockCapError",
    "is_selfadjoint_tripotent",
    "leq",
    "leq_table",
    "meet",
    "central_blocks",
    "CenterAtoms",
    "atoms_certificate",
    "center_atoms",
    "central_tripotents",
    "enumerate_central_tripotents",
    "maximal_central_tripotents",
]

# fixed seed for the generic combination used in the joint diagonalization;
# reports must be reproducible run to run
_BLOCK_SEED = 0x5EED

# stacks of tripotents are built, checked and printed in chunks of about
# this many bytes of matrices, so temporaries stay a few MB whatever the
# count of sign vectors.  On one thread of a 2-core Xeon VM, CLI meet on
# D_12 took 5.3 s with chunks of 0.5 to 2 MB and 7.5 s with 4 MB or more,
# and CLI cones on D_10 peaked at 63 MB resident with 1 MB and 84 with 4
_CHUNK_BYTES = 1 << 20

# at most 3^12 = 531441 sign vectors are listed.  Atoms are orthogonal, so
# a center in M_d has at most d, and the CLI (d <= 12) never reaches this
MAX_ATOMS = 12


class BlockCapError(RuntimeError):
    """Enumeration would list the sign vectors of over ``MAX_ATOMS`` atoms."""


def is_selfadjoint_tripotent(u: np.ndarray, tol: Tolerance | float | None = None) -> bool:
    t = Tolerance.of(tol)
    m = as_matrix(u)
    if not is_hermitian(m, t):
        return False
    scale = max(1.0, op_norm(m)) ** 3
    return hs_norm(m @ m @ m - m) <= t.eps * scale


@dataclass(frozen=True)
class Tripotent:
    """A certified selfadjoint tripotent, flagged when it lies in the
    center of its host.  Enumerated central tripotents carry their sign
    vector over the atoms of the center."""

    u: np.ndarray
    is_central: bool = False
    signs: tuple[int, ...] | None = None

    @property
    def has_full_support(self) -> bool:
        """True iff the sign vector has no zero entry: the maximal
        central tripotents.  False for the zero tripotent of a trivial
        center and for tripotents without a sign vector."""
        return bool(self.signs) and 0 not in self.signs

    @staticmethod
    def certify(u: np.ndarray, host: Tro) -> "Tripotent":
        """Certify u as a selfadjoint tripotent lying in the host space,
        at the host's tolerance, and flag whether it is central."""
        t = host.tol
        m = as_matrix(u)
        if not is_selfadjoint_tripotent(m, t):
            raise ValueError("matrix is not a selfadjoint tripotent")
        if not host.space.contains(m, t):
            raise ValueError("tripotent does not lie in the host space")
        return Tripotent(u=m, is_central=host.center.contains(m, t))

    def projection_split(self) -> tuple[np.ndarray, np.ndarray]:
        """The unique orthogonal projections p, q with u = p - q, pq = 0."""
        p = (self.u @ self.u + self.u) / 2.0
        q = (self.u @ self.u - self.u) / 2.0
        return p, q


def leq(u: np.ndarray | Tripotent, v: np.ndarray | Tripotent,
        tol: Tolerance | float | None = None) -> bool:
    """Tripotent order: u <= v iff u v u = u."""
    t = Tolerance.of(tol)
    a = u.u if isinstance(u, Tripotent) else as_matrix(u)
    b = v.u if isinstance(v, Tripotent) else as_matrix(v)
    scale = max(1.0, op_norm(a)) ** 2 * max(1.0, op_norm(b))
    return hs_norm(a @ b @ a - a) <= t.eps * scale


def _matrices(xs: Sequence[np.ndarray | Tripotent] | np.ndarray) -> np.ndarray:
    """An (n, d, d) array as it is, or the matrices of a sequence stacked."""
    if isinstance(xs, np.ndarray) and xs.ndim == 3:
        return np.asarray(xs, dtype=complex)
    return np.stack([x.u if isinstance(x, Tripotent) else as_matrix(x) for x in xs])


def _op_scales(a: np.ndarray) -> np.ndarray:
    """``max(1, op_norm)`` of each matrix of an (n, d, d) stack, from one
    ``eigvalsh``."""
    top = np.linalg.eigvalsh(adjoint(a) @ a)[:, -1]
    return np.fmax(1.0, np.sqrt(np.maximum(top, 0.0)))


def leq_table(us: Sequence[np.ndarray | Tripotent] | np.ndarray,
              vs: Sequence[np.ndarray | Tripotent],
              tol: Tolerance | float | None = None) -> np.ndarray:
    """:func:`leq` for every pair, as a (len(vs), len(us)) boolean table
    whose entry (j, i) is ``leq(us[i], vs[j])``, with leq's bound on each
    pair.  ``us`` may be an (n, d, d) array.  The products ``u v u`` are
    stacked for a chunk of ``us`` of about ``_CHUNK_BYTES`` a product, and
    one ``eigvalsh`` per chunk gives its operator norms; ``vs`` is not
    empty and its matrices are at least 1 x 1."""
    t = Tolerance.of(tol)
    b = _matrices(vs)
    scale_b = _op_scales(b)
    out = np.empty((len(b), len(us)), dtype=bool)
    step = max(1, _CHUNK_BYTES // (len(b) * b[0].nbytes))
    for i in range(0, len(us), step):
        a = _matrices(us[i:i + step])
        n, k = len(a), a.shape[-1] ** 2
        dev = _row_norms((a @ b[:, None] @ a - a).reshape(len(b) * n, k)).reshape(len(b), n)
        out[:, i:i + n] = dev <= t.eps * (_op_scales(a) ** 2 * scale_b[:, None])
    return out


def meet(u: Tripotent, v: Tripotent, host: Tro) -> Tripotent:
    """Greatest lower bound of two central tripotents: (u v u + v u v) / 2,
    certified in the host.

    Requires centrality; for non-commuting selfadjoint tripotents the
    formula need not even produce a tripotent.
    """
    if not (u.is_central and v.is_central):
        raise ValueError("meet is defined for central tripotents")
    a, b = u.u, v.u
    return Tripotent.certify((a @ b @ a + b @ a @ b) / 2.0, host=host)


def _cluster(values: np.ndarray, thr: float) -> list[np.ndarray]:
    """Group sorted positions of a real vector into gap-separated clusters."""
    order = np.argsort(values)
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] > thr:
            groups.append([])
        groups[-1].append(int(idx))
    return [np.array(g, dtype=int) for g in groups]


def _selfadjoint_family(center: Subspace) -> list[np.ndarray]:
    fam = []
    for c in center.onb:
        h1 = (c + adjoint(c)) / 2.0
        h2 = (c - adjoint(c)) / 2.0j
        for h in (h1, h2):
            if hs_norm(h) > 1e-14:
                fam.append(h)
    return fam


def central_blocks(z: Tro) -> list[np.ndarray]:
    """Joint eigenblocks of the center: a list of matrices Q_b whose
    orthonormal columns span the common eigenspaces.  Every central
    element is scalar on each block.

    One pass splits every block by the eigenclusters of ``Q* h Q`` for
    each splitter h in turn: first a seeded generic combination of the
    family, which separates most blocks by wide gaps, then each member.
    One pass is enough.  The family commutes, so each member maps the
    eigenspaces of the others into themselves.  After splitting by h,
    every block lies in one eigencluster of h; later splits only refine
    blocks, and h compressed to a sub-block keeps its eigenvalues inside
    that cluster.  So every member ends up scalar on every block, and a
    second pass would split nothing.
    """
    d = z.ambient_dim
    fam = _selfadjoint_family(z.center)
    weights = np.random.default_rng(_BLOCK_SEED).standard_normal(len(fam))
    generic = sum((w * h for w, h in zip(weights, fam)), np.zeros((d, d), dtype=complex))
    thr = np.sqrt(z.tol.eps)
    blocks = [np.eye(d, dtype=complex)]
    for h in [generic] + fam:
        split: list[np.ndarray] = []
        for q in blocks:
            if q.shape[1] == 1:  # one eigenvalue, one cluster
                split.append(q)
                continue
            vals, vecs = np.linalg.eigh(q.conj().T @ h @ q)
            groups = _cluster(vals, thr * max(1.0, float(np.max(np.abs(vals)))))
            split.extend([q] if len(groups) == 1 else [q @ vecs[:, g] for g in groups])
        blocks = split
    return blocks


@dataclass(frozen=True)
class CenterAtoms:
    """The minimal central tripotents ("atoms") of a *-TRO, and its
    central tripotents as sign vectors over them.

    ``projectors`` is the (m, d, d) array of the joint eigenblock
    projectors ``P_b`` in the order of :func:`central_blocks`; a trivial
    center has ``m = 0`` blocks and no atoms.  Row b of ``layout`` gives
    the sign of block b in each atom: at most one entry is nonzero, and a
    zero row marks a block on which the whole center vanishes.  Atom i is
    ``sum_b layout[b, i] P_b``; the central tripotent with sign vector
    ``eps`` is ``sum_b (layout @ eps)[b] P_b``.  ``certified`` records
    :func:`atoms_certificate` for the atoms.
    """

    projectors: np.ndarray
    layout: np.ndarray
    certified: bool

    @property
    def count(self) -> int:
        return int(self.layout.shape[1])

    def chunks(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        """Consecutive row slices of ``rows``, a stack of ~``_CHUNK_BYTES`` each."""
        d = self.projectors.shape[-1]
        step = max(1, _CHUNK_BYTES // (16 * max(1, d * d)))
        for s in range(0, len(rows), step):
            yield rows[s:s + step]

    def full_support(self, signs: np.ndarray) -> np.ndarray:
        """Which rows of an (n, count) sign matrix have no zero entry: the
        maximal central tripotents; none over a trivial center."""
        return signs.all(axis=1) & (self.count > 0)

    def stack(self, signs: np.ndarray) -> np.ndarray:
        """The block-order sums ``sum_b alpha_b P_b`` for the rows of an
        (n, count) sign matrix, as an (n, d, d) stack, zero over a trivial
        center.  Each sum starts from zero and adds the blocks in order;
        ``alpha`` lies in {-1, 0, 1}, so every product is exact and each
        row comes out bitwise the same, zero signs included, whatever the
        other rows.

        A block is added only at the entries where its projector is
        nonzero: elsewhere the product is a signed zero, and adding one
        leaves every entry as it is, since a sum that starts from +0
        never holds -0.  Rows are taken a :meth:`chunks` slice at a time,
        so no temporary is as large as the stack."""
        alpha = signs @ self.layout.T + 0.0
        m, d = len(self.projectors), self.projectors.shape[-1]
        flat = self.projectors.reshape(m, d * d)
        live = [np.flatnonzero(p) for p in flat]
        out = np.zeros((len(alpha), d * d), dtype=complex)
        for rows, part in zip(self.chunks(out), self.chunks(alpha)):
            for a, p, j in zip(part.T, flat, live):
                rows[:, j] += a[:, None] * p[j]
        return out.reshape(len(out), d, d)

    def atoms(self) -> list[np.ndarray]:
        return list(self.stack(np.eye(self.count, dtype=int)))

    def sorted_signs(self, maximal: bool = False) -> np.ndarray:
        """The sign vectors over the atoms, one row each and only the
        full-support ones when ``maximal``, in the order of
        :func:`_sort_key` of their matrices; ties keep the order of
        ``itertools.product``.  Without atoms, the one empty vector (the
        zero tripotent) and no full-support one.  Raises
        :class:`BlockCapError` above ``MAX_ATOMS`` atoms.

        That key is the real parts and then the imaginary parts of the
        entries, rounded.  A column in which every projector is zero is
        zero for every vector and cannot change the order, so only the
        others are keyed.  Each is summed over the blocks in the order of
        :meth:`stack`, so its values are those of the matrix entries up
        to the sign of zero, which the rounding erases.  One stable
        ``lexsort`` over the columns, last key first, is then the stable
        sort by the key tuples.  Keys are summed a :meth:`chunks` slice at
        a time."""
        vals = np.array((-1, 1) if maximal else (-1, 0, 1), dtype=np.int8)
        k, c = len(vals), self.count
        if c > MAX_ATOMS:
            raise BlockCapError(f"the center has {c} atoms; at most {MAX_ATOMS} are enumerated")
        index = np.arange(k ** c)
        codes = np.empty((len(index), c), dtype=np.int8)
        for i in range(c):  # the last position varies fastest
            codes[:, i] = vals[index // k ** (c - 1 - i) % k]
        codes = codes[self.full_support(codes)] if maximal else codes
        m, d = len(self.projectors), self.projectors.shape[-1]
        flat = self.projectors.reshape(m, d * d)
        parts = np.concatenate([flat.real, flat.imag], axis=1)
        live = parts[:, parts.any(axis=0)]
        # one key per row for the lexsort, which needs at least one: a row
        # of zeros when there are no blocks
        keys = np.zeros((max(1, live.shape[1]), len(codes)))
        for out, part in zip(self.chunks(keys.T), self.chunks(codes)):
            alpha = part @ self.layout.T + 0.0
            acc = np.zeros(out.shape)
            for a, row in zip(alpha.T, live):
                acc += a[:, None] * row
            out[...] = _round_key(acc)
        return codes[np.lexsort(keys[::-1])]


def atoms_certificate(atoms: list[np.ndarray], z: Tro) -> bool:
    """True iff the atoms are dim(center) selfadjoint central tripotents
    with ``a_i a_j = 0`` for ``i != j``.

    Orthogonal nonzero central elements are independent, so such atoms
    span the center, and every central tripotent is ``sum_i eps_i a_i``
    for exactly one ``eps in {-1, 0, 1}^c``.  With ``u = sum eps_i a_i``
    and ``v = sum delta_i a_i`` the products reduce atom by atom:
    ``-u`` has signs ``-eps``, ``(u v u + v u v) / 2`` has ``eps_i`` where
    ``eps_i = delta_i`` and 0 elsewhere, and u is maximal iff ``eps`` has
    full support.

    The checks run on one stack: one ``eigvalsh`` gives the operator
    norms, and one pass of row norms covers ``a``, ``a - a*``,
    ``a^3 - a``, the residual of ``a`` against the center and the
    products ``a_i a_j`` for ``i < j``.  The cutoffs are those of
    :func:`is_hermitian`, :func:`is_selfadjoint_tripotent` and
    ``Subspace.contains``, and ``eps * max(1, |a_i| |a_j|)`` for a
    product.
    """
    t = z.tol
    c = len(atoms)
    if c != z.center.dim:
        return False
    if c == 0:
        return True
    a = np.asarray(atoms, dtype=complex)
    k = a[0].size
    i, j = np.triu_indices(c, 1)
    rows = [a, a - adjoint(a), a @ a @ a - a, a[i] @ a[j]]
    norms = _row_norms(np.concatenate([x.reshape(len(x), k) for x in rows]
                                      + [z.center.residual_rows(a.reshape(c, k))]))
    hs, herm, cube, prods, resid = np.split(norms, [c, 2 * c, 3 * c, 3 * c + len(i)])
    cut = t.eps * np.fmax(1.0, hs)
    return bool((herm <= cut).all() and (cube <= t.eps * _op_scales(a) ** 3).all()
                and (resid <= cut).all() and (prods <= t.eps * np.fmax(1.0, hs[i] * hs[j])).all())


def _uncertifiable(z: Tro) -> TroError:
    return TroError(f"the center does not split into {z.center.dim} certified "
                    f"atoms at tol {z.tol.eps:g}")


def center_atoms(z: Tro) -> CenterAtoms:
    """Group the joint eigenblocks of the center into its atoms.

    Every central element is a scalar on each block; two blocks belong
    to the same atom iff the values of the center family on them agree
    up to one sign.  Blocks where the family vanishes belong to no atom.
    Raises :class:`TroError` unless they form ``dim(center)`` atoms.

    The family is the real and imaginary parts of the center's
    orthonormal basis, so its values on a block are those of
    ``trace(Q* c Q) / rank`` for each basis element c, and
    :func:`central_blocks` alone forms it.  A trivial center has no
    blocks, so its one tripotent is the zero matrix.
    """
    d = z.ambient_dim
    if z.center.dim == 0:
        return CenterAtoms(np.zeros((0, d, d), dtype=complex), np.zeros((0, 0), dtype=int), True)
    blocks = central_blocks(z)
    m = len(blocks)
    onb = z.center.onb
    vals = np.array([np.trace(q.conj().T @ onb @ q, axis1=1, axis2=2) / q.shape[1]
                     for q in blocks])
    patterns = np.concatenate([vals.real, vals.imag], axis=1)
    thr = np.sqrt(z.tol.eps)
    reps: list[np.ndarray] = []
    layout = np.zeros((m, m), dtype=int)
    for b, col in enumerate(patterns):
        if np.linalg.norm(col) <= thr:
            continue
        for i, r in enumerate(reps):
            if np.linalg.norm(col - r) <= thr:
                layout[b, i] = 1
                break
            if np.linalg.norm(col + r) <= thr:
                layout[b, i] = -1
                break
        else:
            layout[b, len(reps)] = 1
            reps.append(col)
    if len(reps) != z.center.dim:
        raise _uncertifiable(z)
    layout = layout[:, :len(reps)]
    projectors = np.array([q @ q.conj().T for q in blocks])
    atoms = CenterAtoms(projectors, layout, False).stack(np.eye(len(reps)))
    return CenterAtoms(projectors, layout, atoms_certificate(atoms, z))


def _certified_atoms(z: Tro) -> CenterAtoms:
    atoms = center_atoms(z)
    if not atoms.certified:
        raise _uncertifiable(z)
    return atoms


def central_tripotents(atoms: CenterAtoms, maximal: bool = False) -> list[Tripotent]:
    """The sign sums over the given atoms, each carrying its sign vector;
    only the full-support ones when ``maximal``.  Sorted by rounded
    matrix entries.  None is certified on its own: ``atoms.certified``
    proves them all central tripotents (see :func:`atoms_certificate`)."""
    signs = atoms.sorted_signs(maximal)
    # one stack; each tripotent holds a view into it
    return [Tripotent(u, True, tuple(eps))
            for u, eps in zip(atoms.stack(signs), signs.tolist())]


def enumerate_central_tripotents(z: Tro) -> list[Tripotent]:
    """All selfadjoint tripotents in the center of z, zero included:
    the ``3^dim(center)`` sign vectors over the atoms.  Raises
    :class:`TroError` unless the atoms are certified, and
    :class:`BlockCapError` above ``MAX_ATOMS`` atoms.

    Deterministic: the result is sorted by rounded matrix entries, so
    indices are stable across runs and platforms.
    """
    return central_tripotents(_certified_atoms(z))


def _is_sign_cube(signs: Sequence[tuple[int, ...]] | np.ndarray) -> bool:
    """True iff the sign vectors, with entries in ``{-1, 0, 1}``, are
    exactly ``{-1, 0, 1}^c``, each once: one ``bincount`` of their
    base-3 codes.

    The cube is closed under ``-eps`` and under the sign meet, which
    keeps ``eps_i`` where ``eps_i = delta_i`` and is 0 elsewhere: both
    map every entry into ``{-1, 0, 1}``.  Over certified atoms (see
    :func:`atoms_certificate`) the listed tripotents are then closed
    under negation and meet, for every vector and every pair.
    """
    s = np.asarray(signs, dtype=np.int64).reshape(len(signs), -1)
    c = s.shape[1]
    counts = np.bincount((s + 1) @ 3 ** np.arange(c), minlength=3 ** c)
    return bool((counts == 1).all())


def _round_key(x: np.ndarray) -> np.ndarray:
    """Entries rounded to 9 decimals, negative zero made positive: the
    one rounding under which matrices are ordered and compared."""
    return np.round(x, 9) + 0.0


def _sort_key(u: np.ndarray) -> tuple:
    """The real parts and then the imaginary parts of the entries of u,
    rounded by :func:`_round_key`."""
    flat = u.ravel()
    return tuple(_round_key(np.concatenate([flat.real, flat.imag])).tolist())


def maximal_central_tripotents(z: Tro) -> list[Tripotent]:
    """Central tripotents acting as a unit on the center: the sign
    vectors with full support.  These are exactly the maximal elements
    of the tripotent order whenever the center is nonzero; for a trivial
    center the list is empty (only the zero tripotent exists and it
    generates no ordering).  Raises :class:`TroError` as
    :func:`enumerate_central_tripotents` does.
    """
    return central_tripotents(_certified_atoms(z), maximal=True)
