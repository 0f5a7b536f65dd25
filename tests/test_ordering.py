"""Natural cones, Peirce structure, and the classification report."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trokit import (
    NaturalCone,
    Tripotent,
    classify,
    closure_from_generators,
    cone_intersection_is_meet,
    cone_membership,
    decompose,
    direct_sum,
    enumerate_central_tripotents,
    is_psd,
    is_unorderable,
    leq,
    matrix_cone_membership,
    matrix_unit,
    op_norm,
    peirce_product,
    peirce_space,
)

from hosts import block_host, corner_tro, diagonal_tro, full_matrix_tro, random_generated_tro


def _trip(z, diag) -> Tripotent:
    return Tripotent.certify(np.diag(diag).astype(complex), host=z)


def test_cone_membership_examples():
    z = diagonal_tro(2)
    u = np.diag([1.0, 0.0]).astype(complex)
    assert cone_membership(np.diag([2.0, 0.0]).astype(complex), u, z)
    assert not cone_membership(np.diag([-2.0, 0.0]).astype(complex), u, z)
    assert not cone_membership(np.diag([1.0, 1.0]).astype(complex), u, z)  # uxu != x
    assert cone_membership(np.zeros((2, 2)), u, z)


def test_cone_of_zero_is_zero():
    z = diagonal_tro(2)
    zero = np.zeros((2, 2), dtype=complex)
    assert cone_membership(zero, zero, z)
    for x in (np.diag([1.0, 0.0]), np.diag([0.0, -1.0])):
        assert not cone_membership(x.astype(complex), zero, z)


def test_cone_of_identity_is_psd_cone(rng):
    m2 = full_matrix_tro(2)
    u = np.eye(2, dtype=complex)
    for _ in range(25):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert cone_membership(a @ a.conj().T, u, m2)
        h = a + a.conj().T
        assert cone_membership(h, u, m2) == is_psd(h)


def test_cone_additive_and_positively_scalable(rng):
    z = diagonal_tro(3)
    u = np.diag([1.0, -1.0, 0.0]).astype(complex)
    for _ in range(20):
        x = np.diag([rng.uniform(0, 2), -rng.uniform(0, 2), 0.0]).astype(complex)
        y = np.diag([rng.uniform(0, 2), -rng.uniform(0, 2), 0.0]).astype(complex)
        assert cone_membership(x, u, z)
        assert cone_membership(x + y, u, z)
        assert cone_membership(rng.uniform(0, 5) * x, u, z)


def test_cone_intersect_negative_is_zero():
    z = diagonal_tro(2)
    u = np.diag([1.0, 0.0]).astype(complex)
    cone = NaturalCone(host=z, tripotent=Tripotent(u, True))
    for ray in cone.diagonal_rays():
        assert cone.contains(ray)
        assert not cone.contains(-ray)


def test_natural_cone_sample_and_rays(rng):
    z = diagonal_tro(2)
    u = Tripotent.certify(np.diag([1.0, -1.0]).astype(complex), host=z)
    cone = NaturalCone(host=z, tripotent=u)
    for x in cone.sample(rng, 10):
        assert cone.contains(x)
    rays = cone.diagonal_rays()
    assert len(rays) == 2
    for r in rays:
        assert cone.contains(r)


def test_matrix_cone_examples():
    m2 = full_matrix_tro(2)
    u = np.eye(2, dtype=complex)
    blocks_ok = [[matrix_unit(2, 0, 0), np.zeros((2, 2))],
                 [np.zeros((2, 2)), matrix_unit(2, 1, 1)]]
    assert matrix_cone_membership(blocks_ok, u, m2)
    blocks_bad = [[-matrix_unit(2, 0, 0), np.zeros((2, 2))],
                  [np.zeros((2, 2)), -matrix_unit(2, 0, 0)]]
    assert not matrix_cone_membership(blocks_bad, u, m2)


def test_matrix_cone_level_cap():
    m2 = full_matrix_tro(2)
    u = np.eye(2, dtype=complex)
    blocks = [[np.zeros((2, 2))] * 5 for _ in range(5)]
    with pytest.raises(ValueError):
        matrix_cone_membership(blocks, u, m2)


def test_peirce_space_examples():
    m2 = full_matrix_tro(2)
    full = peirce_space(np.eye(2, dtype=complex), m2)
    assert full.dim == 4
    zero = peirce_space(np.zeros((2, 2), dtype=complex), m2)
    assert zero.dim == 0


def test_peirce_identity_law():
    z = diagonal_tro(3)
    u = np.diag([1.0, -1.0, 0.0]).astype(complex)
    space = peirce_space(u, z)
    assert space.dim == 2
    for x in space.basis():
        assert np.allclose(peirce_product(u, x, u), x, atol=1e-10)
        assert np.allclose(peirce_product(x, u, u), x, atol=1e-10)


def test_peirce_cstar_identity(rng):
    hosts = [diagonal_tro(3), full_matrix_tro(2), block_host(2, 1)]
    for z in hosts:
        for u in enumerate_central_tripotents(z):
            space = peirce_space(u.u, z)
            if space.dim == 0:
                continue
            for _ in range(10):
                x = space.random_element(rng)
                lhs = op_norm(peirce_product(x, u.u, x.conj().T))
                assert lhs == pytest.approx(op_norm(x) ** 2, rel=1e-8, abs=1e-10)


def test_cone_order_correspondence(rng):
    # u <= v exactly when cone(u) sits inside cone(v)
    z = diagonal_tro(2)
    trips = enumerate_central_tripotents(z)
    for u in trips:
        cu = NaturalCone(host=z, tripotent=u)
        rays_u = cu.diagonal_rays()
        for v in trips:
            cv = NaturalCone(host=z, tripotent=v)
            included = all(cv.contains(r) for r in rays_u)
            assert included == leq(u, v)


def test_decompose_examples():
    z = diagonal_tro(2)
    full = _trip(z, [1.0, 1.0])
    part, rest = decompose(z, full)
    assert part.dim == 2 and rest.dim == 0

    half = _trip(z, [1.0, 0.0])
    part, rest = decompose(z, half)
    assert part.dim == 1 and rest.dim == 1
    assert part.contains(matrix_unit(2, 0, 0))
    assert rest.contains(matrix_unit(2, 1, 1))


def test_decompose_requires_central():
    m2 = full_matrix_tro(2)
    u = Tripotent.certify(np.diag([1.0, 0.0]).astype(complex), host=m2)
    assert not u.is_central
    with pytest.raises(ValueError):
        decompose(m2, u)


def test_projection_split_properties():
    z = diagonal_tro(3)
    for u in enumerate_central_tripotents(z):
        p, q = u.projection_split()
        assert np.allclose(p @ p, p, atol=1e-9)
        assert np.allclose(q @ q, q, atol=1e-9)
        assert np.allclose(p @ q, 0, atol=1e-9)
        assert np.allclose(u.u, p - q, atol=1e-9)


def test_unorderable_cases():
    assert is_unorderable(corner_tro(2))
    assert not is_unorderable(full_matrix_tro(2))
    assert not is_unorderable(diagonal_tro(2))


def test_classify_corner_space():
    info = classify(corner_tro(2))
    assert info.unorderable
    assert info.natural_cone_count == 1  # only the zero tripotent
    assert info.maximal_cone_count == 0
    assert info.center_dim == 0
    assert info.decomposition_dims == (0, 2)


def test_classify_diagonal_and_block_hosts():
    info = classify(diagonal_tro(2))
    assert (info.natural_cone_count, info.maximal_cone_count) == (9, 4)
    assert info.decomposition_dims == (2, 0)

    info = classify(block_host(2, 1))
    assert (info.natural_cone_count, info.maximal_cone_count) == (9, 4)
    assert info.block_count == 2
    assert info.decomposition_dims == (5, 0)


def test_classify_counts_match_enumeration(rng):
    for _ in range(5):
        z = random_generated_tro(4, 2, rng)
        info = classify(z)
        assert info.natural_cone_count == len(enumerate_central_tripotents(z))
        assert info.natural_cone_count == 3 ** info.center_dim


def test_cone_intersection_is_meet_examples(rng):
    z = diagonal_tro(2)
    u = _trip(z, [1.0, 0.0])
    v = _trip(z, [-1.0, 0.0])
    ok, witness = cone_intersection_is_meet(u, v, z, rng)
    assert ok, witness
    same, _ = cone_intersection_is_meet(u, u, z, rng)
    assert same


def test_cone_intersection_is_meet_exhaustive_on_d2(rng):
    z = diagonal_tro(2)
    trips = enumerate_central_tripotents(z)
    for u in trips:
        for v in trips:
            ok, witness = cone_intersection_is_meet(u, v, z, rng)
            assert ok, (u.u, v.u, witness)


def _report_invariants(info) -> tuple:
    """The report fields that do not depend on a basis: every count,
    the number of maximal indices, the decomposition and both verdicts."""
    return (info.ambient_dim, info.space_dim, info.square_dim, info.algebra_part_dim,
            info.center_dim, info.block_count, info.natural_cone_count,
            info.maximal_cone_count, len(info.maximal_indices), info.unorderable,
            info.decomposition_dims, info.negation_closed, info.meet_closed)


def _check_sum_with_d1(z) -> None:
    """Z + D_1 adds one atom: one more center dimension, three times the
    cones, twice the maximal ones (0 becomes 2 for a trivial center),
    and the new unit joins the first part of the decomposition."""
    info = classify(z)
    grown = classify(direct_sum(z, diagonal_tro(1)))
    assert grown.center_dim == info.center_dim + 1
    assert grown.natural_cone_count == 3 * info.natural_cone_count
    assert grown.maximal_cone_count == max(2, 2 * info.maximal_cone_count)
    assert grown.decomposition_dims == (info.decomposition_dims[0] + 1,
                                        info.decomposition_dims[1])
    assert grown.negation_closed and grown.meet_closed


@settings(max_examples=8, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda ds: sum(ds) <= 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_classify_report_survives_conjugation_scaling_and_sums(dims, seed):
    z = block_host(*dims)
    gens = z.space.basis()
    d = z.ambient_dim
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    expect = _report_invariants(classify(z))
    assert expect[4] == len(dims)
    for moved in ([u @ g @ u.conj().T for g in gens],
                  [1e-6 * g for g in gens],
                  [1e6 * g for g in gens]):
        assert _report_invariants(classify(closure_from_generators(moved, dim=d))) == expect
    _check_sum_with_d1(z)


@pytest.mark.parametrize("d", [2, 3])
def test_sum_with_d1_orders_a_corner_space(d):
    _check_sum_with_d1(corner_tro(d))
