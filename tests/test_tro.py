"""Construction of ternary-closed selfadjoint spaces and their invariants.

The closure oracle below runs entirely in exact rational arithmetic
(Gaussian elimination over Q(i)), independent of the numpy pipeline, so
closure dimensions for integer-entry generators are cross-checked
without any tolerance."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trokit import (
    Tolerance,
    Tro,
    TroError,
    algebra_part,
    center_of,
    closure_from_generators,
    direct_sum,
    intersect,
    is_selfadjoint_space,
    is_ternary_closed,
    matrix_unit,
    orthocomplement_ideal,
    orthonormalize,
    reconstructs,
    span_union,
    subspace_equal,
    ternary_product,
)
from trokit import tro as tro_module

from hosts import block_host, corner_tro, diagonal_tro, full_matrix_tro, random_generated_tro, \
    random_projection
from oracles import oracle_host, triple_chunks


# exact rational-complex matrices: d x d tuples of (re, im) Fractions

def _q(m: np.ndarray) -> tuple:
    d = m.shape[0]
    return tuple(tuple((Fraction(m[i, j].real).limit_denominator(10 ** 6),
                        Fraction(m[i, j].imag).limit_denominator(10 ** 6))
                       for j in range(d)) for i in range(d))


def _q_add(a, b):
    return tuple(tuple((x[0] + y[0], x[1] + y[1]) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def _q_mulc(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _q_mul(a, b):
    d = len(a)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            s = (Fraction(0), Fraction(0))
            for k in range(d):
                p = _q_mulc(a[i][k], b[k][j])
                s = (s[0] + p[0], s[1] + p[1])
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def _q_adj(a):
    d = len(a)
    return tuple(tuple((a[j][i][0], -a[j][i][1]) for j in range(d)) for i in range(d))


class _ExactSpan:
    """Row-echelon basis over Q for the real span of complex matrices,
    treating re and im entries as separate rational coordinates."""

    def __init__(self, d: int) -> None:
        self.d = d
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def _vec(self, m) -> list[Fraction]:
        out = []
        for i in range(self.d):
            for j in range(self.d):
                out.extend(m[i][j])
        return out

    def _reduce(self, v: list[Fraction]) -> list[Fraction]:
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                c = v[piv]
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def add(self, m) -> bool:
        v = self._reduce(self._vec(m))
        for k, x in enumerate(v):
            if x:
                inv = Fraction(1) / x
                self.rows.append([inv * y for y in v])
                self.pivots.append(k)
                return True
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)


def exact_real_ternary_closure_dim(generators: list[np.ndarray]) -> int:
    """Dimension (over R, with i-multiples counted separately) of the
    smallest selfadjoint ternary-closed real span of the generators.
    Rational inputs only; no floating point."""
    d = generators[0].shape[0]
    qs = [_q(g) for g in generators]
    span = _ExactSpan(d)
    basis = []
    for g in qs + [_q_adj(g) for g in qs]:
        if span.add(g):
            basis.append(g)
    while True:
        new = []
        for x in basis:
            for y in basis:
                for z in basis:
                    t = _q_mul(_q_mul(x, _q_adj(y)), z)
                    if span.add(t):
                        new.append(t)
        if not new:
            return span.dim
        basis.extend(new)


def test_ternary_product_identity():
    i2 = np.eye(2, dtype=complex)
    assert np.allclose(ternary_product(i2, i2, i2), i2)


def test_ternary_product_uses_middle_adjoint():
    x = matrix_unit(2, 0, 1)
    out = ternary_product(x, x, x)
    assert np.allclose(out, x)


def test_closure_of_identity_is_scalars():
    z = closure_from_generators([np.eye(3, dtype=complex)])
    assert z.dim == 1
    assert z.space.contains(2.0 * np.eye(3))


def test_closure_of_single_corner_unit():
    # E12 alone forces E21 (selfadjointness) and then closes: triples of
    # {E12, E21} never leave their span.
    z = closure_from_generators([matrix_unit(2, 0, 1)])
    assert z.dim == 2
    assert z.space.contains(matrix_unit(2, 0, 1))
    assert z.space.contains(matrix_unit(2, 1, 0))
    assert not z.space.contains(matrix_unit(2, 0, 0))


def test_closure_dims_match_exact_oracle():
    cases = [
        [matrix_unit(2, 0, 1)],
        [np.eye(2, dtype=complex)],
        [matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)],
        [matrix_unit(3, 0, 1)],
        [matrix_unit(3, 0, 1), matrix_unit(3, 1, 2)],
        [np.array([[1, 1], [0, 0]], dtype=complex)],
        [np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)],
    ]
    for gens in cases:
        expected = exact_real_ternary_closure_dim(gens)
        got = closure_from_generators(gens, dim=gens[0].shape[0])
        # for real-entry generators the complex closure is the
        # complexification of the rational one: dimensions agree 1:1
        assert got.dim == expected, f"dim mismatch for {gens}"


def test_closure_is_idempotent(rng):
    z = random_generated_tro(4, 2, rng)
    again = closure_from_generators(z.space.basis(), dim=4)
    assert subspace_equal(z.space, again.space)


def test_certify_rejects_non_selfadjoint():
    s = orthonormalize([matrix_unit(2, 0, 1)])
    assert not is_selfadjoint_space(s)
    with pytest.raises(TroError):
        Tro.certify(s)


def test_certify_rejects_non_closed():
    # span{E11, E12} is selfadjoint-closed? no: E12* = E21 outside.
    s = orthonormalize([matrix_unit(2, 0, 0), matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0)])
    # selfadjoint but E11 (E12+E21) E11 = 0, (E12+E21) E11 (E12+E21) = E22: not closed
    assert is_selfadjoint_space(s)
    assert not is_ternary_closed(s)
    with pytest.raises(TroError):
        Tro.certify(s)


def test_diagonal_host_invariants():
    z = diagonal_tro(2)
    assert z.dim == 2
    assert z.square.dim == 2
    assert z.alg_part.dim == 2
    assert subspace_equal(z.center, z.space)


def test_full_algebra_center_is_scalars():
    z = full_matrix_tro(2)
    assert z.center.dim == 1
    assert z.center.contains(np.eye(2))
    assert not z.center.contains(matrix_unit(2, 0, 0))


def test_corner_space_invariants():
    z = corner_tro(2)
    assert z.dim == 2
    assert z.square.dim == 2  # spans E11 and E22
    assert z.alg_part.dim == 0
    assert z.center.dim == 0


def test_center_elements_commute_with_host(rng):
    for _ in range(5):
        z = random_generated_tro(4, 2, rng)
        for c in z.center.basis():
            for b in z.space.basis():
                assert np.allclose(c @ b, b @ c, atol=1e-8)


def test_center_is_itself_ternary_closed(rng):
    for _ in range(5):
        z = random_generated_tro(4, 2, rng)
        if z.center.dim == 0:
            continue
        assert is_selfadjoint_space(z.center)
        assert is_ternary_closed(z.center)


def test_algebra_part_is_ideal_of_square(rng):
    for _ in range(5):
        z = random_generated_tro(4, 2, rng)
        jp = algebra_part(z)
        for a in z.square.basis():
            for j in jp.basis():
                assert jp.contains(a @ j)
                assert jp.contains(j @ a)


def test_orthocomplement_examples():
    m2 = full_matrix_tro(2)
    assert orthocomplement_ideal(m2, m2.space).dim == 0
    zero = orthonormalize([], dim=2)
    assert subspace_equal(orthocomplement_ideal(m2, zero), m2.space)


def test_algebra_part_plus_complement_reconstructs(rng):
    for _ in range(8):
        z = random_generated_tro(4, 2, rng)
        jp = algebra_part(z)
        comp = orthocomplement_ideal(z, jp)
        assert reconstructs(z, [jp, comp])


def test_direct_sum_examples():
    m1 = full_matrix_tro(1)
    d2 = direct_sum(m1, m1)
    assert d2.ambient_dim == 2
    assert subspace_equal(d2.space, diagonal_tro(2).space)

    d4 = direct_sum(diagonal_tro(2), diagonal_tro(2))
    assert d4.ambient_dim == 4
    assert subspace_equal(d4.space, diagonal_tro(4).space)

    mixed = direct_sum(full_matrix_tro(2), diagonal_tro(2))
    assert mixed.dim == 6
    assert mixed.center.dim == 3


def test_empty_generators_give_zero_space():
    z = closure_from_generators([], dim=2)
    assert z.dim == 0
    assert z.center.dim == 0


def _count_certificate_passes(monkeypatch) -> list[int]:
    calls = []
    certificate = tro_module._open_triples

    def counted(space, tol, left):
        calls.append(space.dim)
        return certificate(space, tol, left)

    monkeypatch.setattr(tro_module, "_open_triples", counted)
    return calls


def test_closure_checks_the_triples_once(monkeypatch):
    calls = _count_certificate_passes(monkeypatch)
    units = [matrix_unit(3, i, j) for i in range(3) for j in range(3)]
    z = closure_from_generators(units)
    # the seed is closed: its one pass is also the closure certificate
    assert calls == [9]
    Tro.certify(z.space)
    assert calls == [9, 9]


def test_closure_rounds_end_with_a_pass_that_adds_nothing(monkeypatch, rng):
    calls = _count_certificate_passes(monkeypatch)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    z = closure_from_generators([g])
    assert z.dim == 16
    assert len(calls) >= 2 and calls[-1] == 16 and calls == sorted(set(calls))


def test_is_ternary_closed_is_one_triple_pass(monkeypatch):
    calls = _count_certificate_passes(monkeypatch)
    s = orthonormalize([matrix_unit(2, 0, 0), matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0)])
    assert not is_ternary_closed(s)
    assert is_ternary_closed(diagonal_tro(2).space)
    assert calls == [2, 2, 2]


def test_closure_computes_one_square_per_round(monkeypatch, rng):
    squares, passes = [], _count_certificate_passes(monkeypatch)
    square_of = tro_module._square_of

    def counted(space, tol):
        squares.append(space.dim)
        return square_of(space, tol)

    monkeypatch.setattr(tro_module, "_square_of", counted)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    closure_from_generators([g])
    assert squares == passes
    Tro.certify(full_matrix_tro(2).space)
    assert squares[-2:] == passes[-2:] == [4, 4]


def test_closure_at_the_cutoff_keeps_the_adjoint():
    # the seed span{g, g*} is selfadjoint by construction; all its
    # singular values equal the cutoff 1e-3, rounding keeps 2 of 6, and
    # the closure adds their adjoints
    e = random_projection(4, 3, np.random.default_rng(1))
    gens = [1e-3 * e @ matrix_unit(4, i, j) @ (np.eye(4) - e) for i in range(4) for j in range(4)]
    assert closure_from_generators(gens, dim=4, tol=1e-3).dim in (0, 6)


def test_ternary_closedness_of_spans_that_are_not_selfadjoint():
    # span{E12}: E12 E12* E12 = E12, closed though not selfadjoint
    assert is_ternary_closed(orthonormalize([matrix_unit(2, 0, 1)]))
    # span{1, E12}: E12 E12* 1 = E11 leaves it, although its products
    # z w (1, E12, and E12 E12 = 0) all stay inside
    assert not is_ternary_closed(orthonormalize([np.eye(2), matrix_unit(2, 0, 1)]))


def test_closure_of_m7_stays_within_32_mb():
    units = [matrix_unit(7, i, j) for i in range(7) for j in range(7)]
    tracemalloc.start()
    try:
        z = closure_from_generators(units)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (z.dim, z.center.dim) == (49, 1)
    assert peak < 32 * 2 ** 20


def test_closure_of_random_m10_stays_within_96_mb():
    rng = np.random.default_rng(10)
    gens = [rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)) for _ in range(2)]
    tracemalloc.start()
    try:
        z = closure_from_generators(gens, dim=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (z.dim, z.center.dim) == (100, 1)
    assert peak < 96 * 2 ** 20


def _invariants(z: Tro) -> tuple[int, int, int, int]:
    return z.dim, z.square.dim, z.alg_part.dim, z.center.dim


@settings(max_examples=8, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda ds: sum(ds) <= 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_closure_invariants_survive_conjugation_and_scaling(dims, seed):
    z = block_host(*dims)
    gens = z.space.basis()
    d = z.ambient_dim
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    expect = _invariants(z)
    assert expect[3] == len(dims)
    for moved in ([u @ g @ u.conj().T for g in gens],
                  [1e-6 * g for g in gens],
                  [1e6 * g for g in gens]):
        assert _invariants(closure_from_generators(moved, dim=d)) == expect


# the k^3 certificate that the square certificate replaced: every basis
# triple b_i b_j* b_l against eps * max(1, |triple|)

def _open_triples_loop(space, t: Tolerance) -> np.ndarray:
    k, vecs = space.dim, space.vecs
    off = np.linalg.svd(vecs, full_matrices=True)[2][k:].conj().T
    out = [np.empty((0, vecs.shape[1]), dtype=complex)]
    for flat in triple_chunks(space.onb):
        scales = np.maximum(1.0, tro_module._row_norms(flat))
        out.append(flat[tro_module._row_norms(flat @ off) > t.eps * scales])
    return np.concatenate(out)


def _closure_invariants_loop(gens: list[np.ndarray], d: int, t: Tolerance):
    """Closure by triple rounds from the selfadjoint hull of the span of
    the generators and their adjoints, with the center from one
    commutator block per square element."""
    space = orthonormalize(gens + [g.conj().T for g in gens], dim=d, tol=t)
    space = orthonormalize(list(space.basis()) + [b.conj().T for b in space.basis()], dim=d, tol=t)
    while True:
        failing = _open_triples_loop(space, t)
        if failing.shape[0] == 0:
            break
        grown = orthonormalize(list(np.concatenate([space.vecs, failing]).reshape(-1, d, d)),
                               dim=d, tol=t)
        assert grown.dim > space.dim
        space = grown
    square = tro_module._square_of(space, t)
    center = space.dim
    if space.dim and square.dim:
        rows = [(a[None] @ space.onb - space.onb @ a[None]).reshape(space.dim, d * d).T
                for a in square.onb]
        svals = np.linalg.svd(np.concatenate(rows), compute_uv=False)
        center -= int(np.sum(svals > t.cutoff(float(svals[0]))))
    return space.dim, square.dim, intersect(space, square, t).dim, center


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["block", "generic", "corner"]),
       dims=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda ds: sum(ds) <= 5),
       conjugate=st.integers(0, 2),
       scale=st.floats(-4, 4),
       tol=st.floats(-12, -3),
       seed=st.integers(0, 2 ** 32 - 1))
# generators exactly at the cutoff's scale: all four singular values of
# the corner's span tie with the cutoff, and rounding keeps one of them
@example(kind="corner", dims=[2], conjugate=0, scale=-3.375, tol=-3.375, seed=0)
def test_square_certificate_agrees_with_the_triple_loop(kind, dims, conjugate, scale, tol, seed):
    rng = np.random.default_rng(seed)
    if kind == "corner" and len(dims) == 1:
        dims = dims + [1]
    d = sum(dims)
    gens = oracle_host(kind, dims, rng)
    if conjugate:
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        gens = [u @ g @ u.conj().T for g in gens]
    gens = [10.0 ** scale * g for g in gens]
    t = Tolerance(10.0 ** tol)
    z = closure_from_generators(gens, dim=d, tol=t)
    assert _invariants(z) == _closure_invariants_loop(gens, d, t)

    # a basis element tilted off the span by 0.1 and 10 times the cutoff;
    # a host below the cutoff's scale closes to the zero space
    if z.dim in (0, d * d):
        return
    w = z.space.residual_rows(rng.normal(size=(1, d * d)) + 1j * rng.normal(size=(1, d * d)))
    w = (w / np.linalg.norm(w)).reshape(d, d)
    for factor in (0.1, 10.0):
        basis = z.space.basis()
        basis[0] = basis[0] + factor * t.eps * w
        s = orthonormalize(basis, dim=d, tol=t)
        assert is_ternary_closed(s, t) == (_open_triples_loop(s, t).shape[0] == 0), factor
