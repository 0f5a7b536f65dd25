"""Maps between ternary spaces: morphism checks, complete positivity,
compressions, and the sign automorphism."""

from __future__ import annotations

import numpy as np
import pytest

from trokit import (
    LinearMap,
    compress,
    cp_refutation,
    induced_hom,
    is_completely_positive_up_to,
    is_psd,
    is_selfadjoint_map,
    is_ternary_star_morphism,
    matrix_unit,
    period_two_automorphism,
    ternary_product,
)

from hosts import corner_tro, diagonal_tro, full_matrix_tro, random_projection


def test_identity_is_ternary_star_morphism():
    m2 = full_matrix_tro(2)
    t = LinearMap.identity(m2)
    assert is_ternary_star_morphism(t)
    assert is_selfadjoint_map(t)


def test_negation_is_ternary_star_morphism():
    corner = corner_tro(2)
    t = LinearMap.from_function(lambda m: -m, corner, 2)
    assert is_ternary_star_morphism(t)


def test_transpose_is_not_ternary_star_morphism():
    # x = E12, y = I, z = E21: the triple is E11 but the transposed
    # factors multiply to E22, so transposition reverses the product.
    m2 = full_matrix_tro(2)
    t = LinearMap.transpose_map(m2)
    assert not is_ternary_star_morphism(t)
    x, y, z = matrix_unit(2, 0, 1), np.eye(2, dtype=complex), matrix_unit(2, 1, 0)
    lhs = t.apply(ternary_product(x, y, z))
    rhs = ternary_product(t.apply(x), t.apply(y), t.apply(z))
    assert np.allclose(lhs, matrix_unit(2, 0, 0))
    assert np.allclose(rhs, matrix_unit(2, 1, 1))


def test_unitary_conjugation_is_ternary_star_morphism(rng):
    m2 = full_matrix_tro(2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(a)
    t = LinearMap.conjugation(m2, u)
    assert is_ternary_star_morphism(t)
    assert is_selfadjoint_map(t)


def test_selfadjointness_is_scale_relative():
    m3 = full_matrix_tro(3)
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    for scale in (1.0, 1e2, 1e4):
        assert is_selfadjoint_map(LinearMap.conjugation(m3, scale * u))
    # x -> 1e8 i x sends x* to 1e8 i x*, not to (1e8 i x)*
    assert not is_selfadjoint_map(LinearMap.from_function(lambda m: 1e8j * m, m3, 3))


def test_from_pairs_reproduces_transpose():
    m2 = full_matrix_tro(2)
    pairs = [(matrix_unit(2, i, j), matrix_unit(2, j, i))
             for i in range(2) for j in range(2)]
    t = LinearMap.from_pairs(m2, 2, pairs)
    direct = LinearMap.transpose_map(m2)
    assert np.allclose(t.matrix, direct.matrix)


def test_from_pairs_rejects_inconsistent_data():
    m2 = full_matrix_tro(2)
    e11 = matrix_unit(2, 0, 0)
    pairs = [(e11, e11), (2.0 * e11, 3.0 * e11)]
    with pytest.raises(ValueError):
        LinearMap.from_pairs(m2, 2, pairs)


def test_from_pairs_requires_spanning_inputs():
    m2 = full_matrix_tro(2)
    with pytest.raises(ValueError):
        LinearMap.from_pairs(m2, 2, [(matrix_unit(2, 0, 0), matrix_unit(2, 0, 0))])


def test_induced_hom_identity():
    m2 = full_matrix_tro(2)
    hom, ok = induced_hom(LinearMap.identity(m2))
    assert ok
    for b in m2.square.basis():
        assert np.allclose(hom.apply(b), b)


def test_induced_hom_conjugation(rng):
    m2 = full_matrix_tro(2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(a)
    t = LinearMap.conjugation(m2, u)
    hom, ok = induced_hom(t)
    assert ok
    # pi multiplies: pi(ab) = pi(a) pi(b) on the square's basis
    for a1 in m2.square.basis()[:2]:
        for b1 in m2.square.basis()[:2]:
            assert np.allclose(hom.apply(a1 @ b1), hom.apply(a1) @ hom.apply(b1),
                               atol=1e-8)


def test_induced_hom_restricts_multiplicatively_on_algebra_part(rng):
    z = diagonal_tro(3)
    t = LinearMap.identity(z)
    hom, ok = induced_hom(t)
    assert ok
    for x in z.alg_part.basis():
        for y in z.alg_part.basis():
            assert np.allclose(hom.apply(x.conj().T @ y),
                               t.apply(x).conj().T @ t.apply(y), atol=1e-8)


def test_cp_identity_and_conjugation_pass(rng):
    m2 = full_matrix_tro(2)
    assert is_completely_positive_up_to(LinearMap.identity(m2), 3, rng=rng)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(a)
    assert is_completely_positive_up_to(LinearMap.conjugation(m2, u), 3, rng=rng)


def test_cp_transpose_refuted_at_level_two(rng):
    m2 = full_matrix_tro(2)
    result = cp_refutation(LinearMap.transpose_map(m2), max_level=3, rng=rng)
    assert result is not None
    level, big, image = result
    assert level == 2
    assert is_psd(big)
    assert not is_psd(image)


def test_cp_witness_reverifies(rng):
    m2 = full_matrix_tro(2)
    t = LinearMap.transpose_map(m2)
    level, big, image = cp_refutation(t, max_level=2, rng=rng)
    d = m2.ambient_dim
    blocks = [[big[i * d:(i + 1) * d, j * d:(j + 1) * d] for j in range(level)]
              for i in range(level)]
    assert np.allclose(t.apply_blocks(blocks), image)


def test_compress_diagonal_expectation():
    m2 = full_matrix_tro(2)
    p = LinearMap.from_function(lambda m: np.diag(np.diag(m)), m2, 2)
    sys = compress(p)
    assert sys.range_space.dim == 2
    assert sys.cone_contains(np.diag([1.0, 2.0]).astype(complex))
    assert not sys.cone_contains(np.diag([1.0, -2.0]).astype(complex))
    assert not sys.cone_contains(matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0))
    x = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(sys.triple(x, x, x), x)


def test_compress_identity_keeps_structure():
    m2 = full_matrix_tro(2)
    sys = compress(LinearMap.identity(m2))
    assert sys.range_space.dim == 4
    for x in m2.space.basis():
        for y in m2.space.basis():
            assert np.allclose(sys.triple(x, y, x), ternary_product(x, y, x))


def test_compress_corner(rng):
    m3 = full_matrix_tro(3)
    e = random_projection(3, 1, rng)
    sys = compress(LinearMap.compression(m3, e))
    assert sys.range_space.dim == 1
    y = e @ (np.eye(3) + matrix_unit(3, 0, 1) + matrix_unit(3, 1, 0)) @ e
    assert sys.cone_contains(y) == is_psd(y)


def test_compress_rejects_non_idempotent():
    m2 = full_matrix_tro(2)
    t = LinearMap.from_function(lambda m: 0.5 * m, m2, 2)
    with pytest.raises(ValueError):
        compress(t)


def test_compress_rejects_non_positive():
    m2 = full_matrix_tro(2)
    with pytest.raises(ValueError):
        compress(LinearMap.transpose_map(m2))


def test_period_two_automorphism_on_corner():
    corner = corner_tro(2)
    auto = period_two_automorphism(corner)
    assert auto.algebra.dim == 4
    x = matrix_unit(2, 0, 1)
    assert np.allclose(auto.apply(x), -x)
    for a in corner.square.basis():
        assert np.allclose(auto.apply(a), a)
    # involution and multiplicativity on the algebra basis
    for m in auto.algebra.space.basis():
        assert np.allclose(auto.apply(auto.apply(m)), m, atol=1e-9)
    for a in auto.algebra.space.basis():
        for b in auto.algebra.space.basis():
            assert np.allclose(auto.apply(a @ b), auto.apply(a) @ auto.apply(b),
                               atol=1e-8)


def test_period_two_automorphism_needs_trivial_overlap():
    with pytest.raises(ValueError):
        period_two_automorphism(diagonal_tro(2))
