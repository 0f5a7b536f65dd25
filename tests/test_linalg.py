"""Core matrix helpers: norms, PSD tests, subspaces.

Frozen expected values were derived by hand before the implementation:
hs_inner(I2, I2) = tr(I2) = 2; the eigenvalues of [[1,1],[1,1]] are the
roots of t^2 - 2t = 0, namely {0, 2}, so the matrix is PSD with operator
norm 2; op_norm(2 E12) = 2 because (2 E12)*(2 E12) = 4 E22.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trokit import (
    Subspace,
    Tolerance,
    adjoint,
    hs_inner,
    hs_norm,
    intersect,
    is_hermitian,
    is_psd,
    matrix_unit,
    op_norm,
    orthonormalize,
    span_union,
    subspace_equal,
)
from trokit.linalg import EPS_FLOOR


def random_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(0.0)
    with pytest.raises(ValueError):
        Tolerance(2.0)
    with pytest.raises(ValueError):
        Tolerance(1e-16)  # below the rounding floor
    assert Tolerance(EPS_FLOOR).eps == EPS_FLOOR
    assert Tolerance.of(None).eps == 1e-9
    assert Tolerance.of(1e-6).eps == 1e-6
    t = Tolerance(1e-8)
    assert Tolerance.of(t) is t


def test_cutoff_is_relative():
    t = Tolerance(1e-9)
    assert t.cutoff(0.0) == 1e-9
    assert t.cutoff(1000.0) == pytest.approx(1e-6)


def test_hs_inner_identity():
    i2 = np.eye(2, dtype=complex)
    assert hs_inner(i2, i2) == pytest.approx(2.0)


def test_hs_inner_conjugate_linear_in_first_slot():
    a = np.array([[1j, 0], [0, 0]], dtype=complex)
    b = np.array([[1, 0], [0, 0]], dtype=complex)
    assert hs_inner(a, b) == pytest.approx(-1j)
    assert hs_inner(b, a) == pytest.approx(1j)


def test_is_psd_examples():
    assert is_psd(np.eye(2))
    assert not is_psd(-matrix_unit(2, 0, 0))
    assert is_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))  # eigenvalues 0 and 2
    assert not is_psd(matrix_unit(2, 0, 1))  # not hermitian


def test_op_norm_examples():
    assert op_norm(np.eye(3)) == pytest.approx(1.0)
    assert op_norm(2.0 * matrix_unit(2, 0, 1)) == pytest.approx(2.0)
    assert op_norm(np.array([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx(2.0)


def test_hermitian_square_is_psd(rng):
    for _ in range(50):
        m = random_matrix(rng, 4)
        h = m + adjoint(m)
        assert is_psd(h @ h)


def test_orthonormalize_matrix_units():
    s = orthonormalize([matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)])
    assert s.dim == 2
    assert s.contains(matrix_unit(2, 0, 0))
    assert s.contains(np.diag([3.0, -7.0]).astype(complex))
    assert not s.contains(matrix_unit(2, 0, 1))


def test_orthonormalize_empty_needs_dim():
    s = orthonormalize([], dim=3)
    assert s.dim == 0
    assert s.contains(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        orthonormalize([])


def test_orthonormalize_drops_dependent_inputs(rng):
    a = random_matrix(rng, 3)
    s = orthonormalize([a, 2.0 * a, 1j * a])
    assert s.dim == 1
    assert s.contains(a)


def test_span_contains_its_generators(rng):
    mats = [random_matrix(rng, 4) for _ in range(5)]
    s = orthonormalize(mats)
    for m in mats:
        assert s.contains(m)


def test_subspace_scalar_span():
    s = orthonormalize([np.eye(2, dtype=complex)])
    assert s.contains(3.0 * np.eye(2))
    assert not s.contains(matrix_unit(2, 0, 1))


def test_zero_subspace_contains_zero():
    z = Subspace.zero(2)
    assert z.contains(np.zeros((2, 2)))
    assert not z.contains(np.eye(2))


def test_contains_all_decides_each_row_as_contains(rng):
    # rows m = s + r n with n a unit direction off the span, r at 0.5x and
    # 2x the cutoff eps * max(1, |m|) that contains applies per matrix
    t = Tolerance(1e-6)
    s = orthonormalize([random_matrix(rng, 3) for _ in range(4)])
    rows = []
    for scale in (1e-3, 1.0, 1e3):
        for factor in (0.5, 2.0):
            inside = s.project(random_matrix(rng, 3))
            off = random_matrix(rng, 3)
            off -= s.project(off)
            rows.append(scale * inside / hs_norm(inside)
                        + factor * t.cutoff(scale) * off / hs_norm(off))
    verdicts = [s.contains(m, t) for m in rows]
    assert verdicts == [True, False] * 3
    for i in range(len(rows)):
        assert s.contains_all([rows[i]], t) == verdicts[i]
        assert s.contains_all(np.array(rows[:i + 1]), t) == all(verdicts[:i + 1])
    assert s.contains_all((m for m in rows[::2]), t)


def test_projection_is_idempotent(rng):
    s = orthonormalize([random_matrix(rng, 3) for _ in range(3)])
    m = random_matrix(rng, 3)
    p1 = s.project(m)
    assert np.allclose(s.project(p1), p1)
    assert s.contains(p1)


def test_intersect_diagonals_with_scalars():
    diag = orthonormalize([matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)])
    upper = orthonormalize([matrix_unit(2, 0, 0), matrix_unit(2, 0, 1)])
    both = intersect(diag, upper)
    assert both.dim == 1
    assert both.contains(matrix_unit(2, 0, 0))


def test_intersect_of_lines_at_45_degrees_is_zero_at_loose_tol():
    # the sine between the lines is 0.707; only a cutoff above it keeps a direction
    a = orthonormalize([matrix_unit(2, 0, 0)])
    b = orthonormalize([matrix_unit(2, 0, 0) + matrix_unit(2, 1, 1)])
    for tol in (1e-9, 1e-3, 0.5):
        assert intersect(a, b, tol).dim == 0
        assert intersect(b, a, tol).dim == 0
    assert intersect(a, b, 0.9).dim == 1


def test_intersect_with_itself_at_tight_tol(rng):
    # sines are taken as residuals: sqrt(1 - cos^2) would sit near 1e-8
    s = orthonormalize([random_matrix(rng, 3) for _ in range(5)])
    both = intersect(s, s, 1e-13)
    assert both.dim == 5
    assert subspace_equal(both, s)


def test_span_union_and_equality():
    e11 = orthonormalize([matrix_unit(2, 0, 0)])
    e22 = orthonormalize([matrix_unit(2, 1, 1)])
    d2 = span_union(e11, e22)
    direct = orthonormalize([matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)])
    assert subspace_equal(d2, direct)
    assert not subspace_equal(d2, e11)


def test_block_norm_formula(rng):
    # [[x,y],[y,x]] is unitarily equivalent to (x+y) oplus (x-y)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        x, y = random_matrix(rng, d), random_matrix(rng, d)
        big = np.block([[x, y], [y, x]])
        expected = max(op_norm(x + y), op_norm(x - y))
        assert op_norm(big) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=4),
       st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=4))
def test_hs_norm_triangle_inequality(xs, ys):
    a = np.array(xs).reshape(2, 2).astype(complex)
    b = np.array(ys).reshape(2, 2).astype(complex)
    assert hs_norm(a + b) <= hs_norm(a) + hs_norm(b) + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16 - 1))
def test_hermitian_parts_detected(bits):
    rng = np.random.default_rng(bits)
    m = random_matrix(rng, 3)
    h = (m + adjoint(m)) / 2
    assert is_hermitian(h)
    skew = (m - adjoint(m)) / 2
    if hs_norm(skew) > 1e-6:
        assert not is_hermitian(h + skew)
