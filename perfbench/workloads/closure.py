"""``closure``: ternary closures and certification of non-commutative hosts.

Ladder, smallest to largest: corners ``e M_d (1-e) + (1-e) M_d e`` for
d = 4..6, block sums, random generic generators in M_3..M_5 and in
M_2 + M_3, a single generic generator in M_4 and M_5 (several closure
rounds), the full algebras M_3..M_7 from their matrix units.  Hosts up
to M_5 are also closed again after a random unitary conjugation.  The
top rung is the M_7 closure.  Every pass also certifies the corner
spanned by E12 and E21 at tol 1e-3, which fails today (see the README).
A pass has 29 operations that complete, an odd number, so the median
operation time falls inside the cluster of 20-30 ms closures (M_4, M_2 +
M_3) and not in the gap below it.

The expected invariants come from the structure of each host: M_d has
dimension d^2 and a one-dimensional center; a block sum has dimension
sum d_i^2 and one center dimension per summand; a rank-1 corner has
dimension 2(d-1), square 1 + (d-1)^2, and no algebra part or center.
"""

from __future__ import annotations

import numpy as np

import trokit as tk

from common import Op, block_units, orthonormal_rows, random_unitary, span_residual, \
    ternary_closed, unit

def _full(d: int) -> dict:
    return {"dim": d * d, "square": d * d, "alg": d * d, "center": 1}


def _blocks(dims: tuple[int, ...]) -> dict:
    n = sum(b * b for b in dims)
    return {"dim": n, "square": n, "alg": n, "center": len(dims)}


def _corner(d: int) -> dict:
    return {"dim": 2 * (d - 1), "square": 1 + (d - 1) ** 2, "alg": 0, "center": 0}


def _check(z, gens, expect, rng) -> bool:
    got = {"dim": z.dim, "square": z.square.dim, "alg": z.alg_part.dim,
           "center": z.center.dim}
    if got != expect:
        return False
    v = orthonormal_rows(z.space.onb)
    if v is None or any(span_residual(v, g) > 1e-7 for g in gens):
        return False
    return ternary_closed(z.space.onb, rng)


def build(rng: np.random.Generator, check_rng: np.random.Generator, cli) -> list[Op]:
    ops: list[Op] = []

    def closure(name, gens, expect, **flags):
        d = gens[0].shape[0]
        ops.append(Op(name, lambda: tk.closure_from_generators(gens, dim=d),
                      lambda z: _check(z, gens, expect, check_rng), **flags))

    def conjugated(gens):
        u = random_unitary(rng, gens[0].shape[0])
        return [u @ g @ u.conj().T for g in gens]

    for d in (4, 5, 6):
        # e = E11: e M_d (1-e) is spanned by E1j, and closure adds the adjoints
        gens = [unit(d, 0, j) for j in range(1, d)]
        closure(f"closure corner{d}", gens, _corner(d))
        closure(f"closure corner{d} conj", conjugated(gens), _corner(d))
    for dims in ((1, 1, 2), (2, 3), (2, 2, 3)):
        gens = block_units(dims)
        closure(f"closure block{dims}", gens, _blocks(dims))
        closure(f"closure block{dims} conj", conjugated(gens), _blocks(dims))
        ops.append(Op(f"from_matrices block{dims}",
                      lambda g=gens: tk.Tro.from_matrices(g),
                      lambda z, g=gens, dd=dims: _check(z, g, _blocks(dd), check_rng)))
    for d in (3, 4, 5):
        gens = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(2)]
        closure(f"closure generic M{d}", gens, _full(d))
    for d in (4, 5):
        # one generic generator: the closure takes several rounds to reach M_d
        gens = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))]
        closure(f"closure generic1 M{d}", gens, _full(d))
    gens = []
    for _ in range(2):
        g = np.zeros((5, 5), dtype=complex)
        g[:2, :2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g[2:, 2:] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gens.append(g)
    closure("closure generic M2+M3", gens, _blocks((2, 3)))
    for d in (3, 4, 5, 6, 7):
        gens = [unit(d, i, j) for i in range(d) for j in range(d)]
        closure(f"closure M{d}", gens, _full(d), top=d == 7, heavy=d >= 6)
        if d <= 5:
            closure(f"closure M{d} conj", conjugated(gens), _full(d))

    # Z = span{E12, E21} is off-diagonal and Z^2 is diagonal, so Z meets Z^2
    # in 0.  trokit reports a 1-dimensional algebra part at tol 1e-3.
    offdiag = [unit(2, 0, 1), unit(2, 1, 0)]
    ops.append(Op("from_matrices offdiag M2 tol1e-3",
                  lambda: tk.Tro.from_matrices(offdiag, dim=2, tol=1e-3),
                  lambda z: z.alg_part.dim == 0 and z.center.dim == 0 and z.dim == 2,
                  known_fault=True))
    return ops
