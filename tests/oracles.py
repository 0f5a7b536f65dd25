"""References for the oracle tests: the ``k^3`` basis triples that the
library's certificates through the square replaced, the per-element
loops that its stacked map and atom certificates replaced, and the
random hosts those certificates are compared on."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from trokit import Automorphism, LinearMap, Tro, adjoint, hs_norm, is_selfadjoint_tripotent, \
    matrix_unit
from trokit.tro import _products

from hosts import random_projection


def triple_chunks(basis: np.ndarray) -> Iterator[np.ndarray]:
    """All ternary products ``b_i b_j* b_l`` of the given matrices, one
    chunk per first index ``i``: the ``k^2`` triples ``(j, l)`` in row
    order, vectorized to shape ``(k*k, d*d)``."""
    k, d = basis.shape[0], basis.shape[-1]
    side_adj = np.swapaxes(adjoint(basis), 0, 1).reshape(d, k * d)  # [b_0* b_1* ...]
    for b in basis:
        yield _products(np.swapaxes((b @ side_adj).reshape(d, k, d), 0, 1), basis)


def is_selfadjoint_map_loop(t_map: LinearMap) -> bool:
    """``T(b*) = T(b)*`` per basis element, within ``eps * max(1, |T b|)``."""
    t = t_map.domain.tol
    for b in t_map.domain.space.onb:
        tb = t_map.apply(b)
        if hs_norm(t_map.apply(adjoint(b)) - adjoint(tb)) > t.cutoff(hs_norm(tb)):
            return False
    return True


def check_automorphism_pairwise(auto: Automorphism) -> None:
    """Involution and *-check per basis element of ``Z + Z^2``, then
    multiplicativity per pair, each within ``eps``; raises RuntimeError."""
    t = auto.algebra.tol
    act = auto.apply
    for b in auto.algebra.space.onb:
        tb = act(b)
        if hs_norm(act(tb) - b) > t.cutoff(1.0):
            raise RuntimeError("flip automorphism failed the involution check")
        if hs_norm(act(adjoint(b)) - adjoint(tb)) > t.cutoff(1.0):
            raise RuntimeError("flip automorphism failed the *-check")
    for a in auto.algebra.space.onb:
        for b in auto.algebra.space.onb:
            if hs_norm(act(a @ b) - act(a) @ act(b)) > t.cutoff(1.0):
                raise RuntimeError("flip automorphism failed multiplicativity")


def atoms_certificate_loop(atoms: list[np.ndarray], z: Tro) -> bool:
    """The atom certificate per atom and per pair: dim(center) atoms,
    each a selfadjoint tripotent in the center, and ``|a b|`` within
    ``eps * max(1, |a| |b|)`` for every pair."""
    t = z.tol
    if len(atoms) != z.center.dim:
        return False
    for a in atoms:
        if not (is_selfadjoint_tripotent(a, t) and z.center.contains(a, t)):
            return False
    for i, a in enumerate(atoms):
        for b in atoms[i + 1:]:
            if hs_norm(a @ b) > t.cutoff(hs_norm(a) * hs_norm(b)):
                return False
    return True


def oracle_host(kind: str, dims: list[int], rng: np.random.Generator) -> list[np.ndarray]:
    """Generators of a block sum of full algebras (``block``: its matrix
    units; ``generic``: two random block-diagonal matrices) or of the
    corner ``e M_d (1-e)`` for a random projection e of rank ``dims[0]``
    (``corner``)."""
    d = sum(dims)
    if kind == "corner":
        e = random_projection(d, dims[0], rng)
        return [e @ matrix_unit(d, i, j) @ (np.eye(d) - e) for i in range(d) for j in range(d)]
    if kind == "block":
        return block_units(dims)
    gens = []
    for _ in range(2):
        g = np.zeros((d, d), dtype=complex)
        off = 0
        for b in dims:
            g[off:off + b, off:off + b] = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
            off += b
        gens.append(g)
    return gens


def block_units(dims: list[int]) -> list[np.ndarray]:
    d, off, gens = sum(dims), 0, []
    for b in dims:
        gens += [matrix_unit(d, off + i, off + j) for i in range(b) for j in range(b)]
        off += b
    return gens
