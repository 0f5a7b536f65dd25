"""Maps between ternary spaces: morphism checks, complete positivity,
compressions, and the sign automorphism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trokit import (
    LinearMap,
    Tolerance,
    Tro,
    TroError,
    adjoint,
    closure_from_generators,
    compress,
    cp_refutation,
    induced_hom,
    is_completely_positive_up_to,
    hs_inner,
    is_psd,
    is_selfadjoint_map,
    is_ternary_star_morphism,
    matrix_unit,
    period_two_automorphism,
    ternary_product,
)

from trokit import morphisms as morphisms_module
from trokit.morphisms import _exceeds

from hosts import corner_tro, diagonal_tro, full_matrix_tro, random_projection
from oracles import check_automorphism_pairwise, is_selfadjoint_map_loop, oracle_host, \
    triple_chunks


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


def test_induced_hom_of_the_identity_on_rank_2_corners_is_well_defined():
    # the solve in the square's coordinates has rank dim Z^2; a pseudo-
    # inverse at numpy's default cutoff inverted singular values of about
    # 1e-14 and refused 14 of these 20 corners
    for seed in range(20):
        z = corner_tro(4, random_projection(4, 2, np.random.default_rng(seed)))
        t = LinearMap.identity(z)
        hom, ok = induced_hom(t)
        assert ok, seed
        assert is_ternary_star_morphism(t), seed
        assert z.square.dim == 8
        for a in z.square.basis():
            assert np.allclose(hom.apply(a), a, atol=1e-9)


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
    with pytest.raises(ValueError, match="not idempotent"):
        compress(t)


def test_compress_names_the_first_fault_idempotency_first():
    # on the diagonal D_2: m -> m_00 (E11 + E12) is idempotent but leaves
    # D_2; m -> m/2 + tr(m) E12 fails both checks on the first basis
    # element, and idempotency is named, as the per-element loop did
    d2 = diagonal_tro(2)
    e11, e12 = matrix_unit(2, 0, 0), matrix_unit(2, 0, 1)
    leaves = LinearMap.from_function(lambda m: m[0, 0] * (e11 + e12), d2, 2)
    with pytest.raises(ValueError, match="does not leave the domain space invariant"):
        compress(leaves)
    both = LinearMap.from_function(lambda m: 0.5 * m + np.trace(m) * e12, d2, 2)
    with pytest.raises(ValueError, match="not idempotent"):
        compress(both)


def test_compress_rejects_non_positive():
    m2 = full_matrix_tro(2)
    with pytest.raises(ValueError):
        compress(LinearMap.transpose_map(m2))


def test_compress_refuses_an_idempotent_that_is_not_star_preserving():
    # on span{E12, E21}, P(x) = x_12 E12 is idempotent, leaves the space
    # invariant and is contractive, and the algebra part is zero, so the
    # positivity samples pass; but P(E21) = 0 while P(E12)* = E21
    z = Tro.from_matrices([matrix_unit(2, 0, 1), matrix_unit(2, 1, 0)])
    p = LinearMap.from_function(lambda m: m[0, 1] * matrix_unit(2, 0, 1), z, 2)
    with pytest.raises(ValueError, match="inherited product violates the involution law"):
        compress(p)


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


# a theta that is not an involution (i theta), not multiplicative
# (-theta), or not *-preserving (x -> s x s for the non-unitary s = s^-1)
S = np.array([[1.0, 1.0], [0.0, -1.0]])


@pytest.mark.parametrize("wrong, fault", [
    (lambda m: 1j * m, "the involution check"),
    (lambda m: np.kron(S, S.T).astype(complex), "the \\*-check"),
    (lambda m: -m, "multiplicativity")])
def test_period_two_automorphism_refuses_a_wrong_theta(monkeypatch, wrong, fault):
    real = morphisms_module.Automorphism
    monkeypatch.setattr(morphisms_module, "Automorphism",
                        lambda matrix, **kw: real(matrix=wrong(matrix), **kw))
    with pytest.raises(RuntimeError, match="flip automorphism failed " + fault):
        period_two_automorphism(corner_tro(2))


def test_period_two_automorphism_needs_trivial_overlap():
    with pytest.raises(ValueError):
        period_two_automorphism(diagonal_tro(2))


# the oracle hosts: block sums, generic block-diagonal generators and
# corners, conjugated by a random unitary and scaled

HOSTS = dict(kind=st.sampled_from(["block", "generic", "corner"]),
             dims=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
                 lambda ds: sum(ds) <= 5),
             conjugate=st.integers(0, 2),
             scale=st.floats(-4, 4),
             tol=st.floats(-12, -3),
             seed=st.integers(0, 2 ** 32 - 1))


def _oracle_tro(kind, dims, conjugate, scale, tol, rng) -> tuple[Tro, np.ndarray, list[int]]:
    """The host, the unitary it was conjugated by, and its block sizes."""
    if kind == "corner" and len(dims) == 1:
        dims = dims + [1]
    d = sum(dims)
    gens = oracle_host(kind, dims, rng)
    u = np.eye(d, dtype=complex)
    if conjugate:
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        gens = [u @ g @ u.conj().T for g in gens]
    try:
        z = closure_from_generators([10.0 ** scale * g for g in gens], dim=d,
                                    tol=Tolerance(10.0 ** tol))
    except TroError:
        # generators whose equal singular values sit at the cutoff split
        # into a span that is not selfadjoint; the maps are not what is
        # at fault (test_tro.py::test_closure_at_the_cutoff_keeps_the_adjoint)
        assume(False)
    return z, u, dims


def _first_block(u: np.ndarray, dims: list[int]) -> np.ndarray:
    q = np.zeros(u.shape, dtype=complex)
    q[:dims[0], :dims[0]] = np.eye(dims[0])
    return u @ q @ u.conj().T


# the k^3 check that the check through the square replaced: every basis
# triple b_i b_j* b_l against eps * max(1, |lhs|, |rhs|)

def _is_ternary_star_morphism_loop(t_map: LinearMap) -> bool:
    if not is_selfadjoint_map_loop(t_map):
        return False
    basis = t_map.domain.space.onb
    dc = t_map.codomain_dim
    images = (t_map.domain.space.vecs @ t_map.matrix.T).reshape(-1, dc, dc)
    for triples, rhs in zip(triple_chunks(basis), triple_chunks(images)):
        lhs = triples @ t_map.matrix.T
        if np.any(_exceeds(lhs - rhs, lhs, rhs, t_map.domain.tol)):
            return False
    return True


@settings(max_examples=40, deadline=None)
@given(**HOSTS)
# a tilt sized on all of M_2 x M_2, where e has norm 1 but only 0.51 on
# Z, stayed under the cutoff at 10x: both checks accepted it
@example(kind="corner", dims=[1], conjugate=0, scale=0.0, tol=-3.0, seed=37381)
def test_morphism_check_agrees_with_the_triple_loop(kind, dims, conjugate, scale, tol, seed):
    rng = np.random.default_rng(seed)
    z, u, dims = _oracle_tro(kind, dims, conjugate, scale, tol, rng)
    d = z.ambient_dim
    v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    conj = LinearMap.conjugation(z, v)
    # a selfadjoint map of norm one on Z's span, so the tilt probes the
    # products rather than the *-check; at 1x the cutoff the two checks
    # may differ, and at 10x the largest product gap is at least 1.7x
    # its cutoff (the example above; 2.1x or more on 3000 random corners)
    g = LinearMap(z, d, rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d)))
    e = g.matrix + LinearMap.from_function(lambda m: adjoint(g.apply(adjoint(m))), z, d).matrix
    on_z = e @ z.space.vecs.T
    e /= np.linalg.norm(on_z, 2) if on_z.size else 1.0
    one = np.eye(d * d, dtype=complex)
    maps = [LinearMap.identity(z), conj, LinearMap(z, d, -one), LinearMap(z, d, 2 * one),
            LinearMap.transpose_map(z), LinearMap.compression(z, _first_block(u, dims))]
    maps += [LinearMap(z, d, conj.matrix + factor * z.tol.eps * e) for factor in (0.1, 10.0)]
    verdicts = [is_ternary_star_morphism(m) for m in maps]
    assert verdicts == [_is_ternary_star_morphism_loop(m) for m in maps]
    assert verdicts[:4] == [True, True, True, z.dim == 0]
    assert verdicts[6:] == [True, z.dim == 0]
    # an anti-selfadjoint tilt i e probes the stacked *-check itself
    maps += [LinearMap(z, d, conj.matrix + 1j * factor * z.tol.eps * e) for factor in (0.1, 10.0)]
    selfadjoint = [is_selfadjoint_map(m) for m in maps]
    assert selfadjoint == [is_selfadjoint_map_loop(m) for m in maps]
    assert selfadjoint[8]


@settings(max_examples=20, deadline=None)
@given(**HOSTS)
def test_induced_hom_derives_the_square_as_certify_does(kind, dims, conjugate, scale, tol, seed):
    z = _oracle_tro(kind, dims, conjugate, scale, tol, np.random.default_rng(seed))[0]
    derived = induced_hom(LinearMap.identity(z))[0].domain
    certified = Tro.certify(z.square, z.tol)
    assert derived.space is z.square
    assert ((derived.dim, derived.square.dim, derived.alg_part.dim, derived.center.dim)
            == (certified.dim, certified.square.dim, certified.alg_part.dim,
                certified.center.dim))


@settings(max_examples=20, deadline=None)
@given(dims=st.integers(2, 5).flatmap(lambda d: st.integers(1, d - 1).map(lambda r: [r, d - r])),
       conjugate=st.integers(0, 2), scale=st.floats(-4, 4), tol=st.floats(-12, -3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_period_two_automorphism_passes_the_pairwise_checks(dims, conjugate, scale, tol, seed):
    # corners e M_d (1-e) + (1-e) M_d e meet their square trivially
    z = _oracle_tro("corner", dims, conjugate, scale, tol, np.random.default_rng(seed))[0]
    auto = period_two_automorphism(z)
    assert auto.algebra.dim == z.square.dim + z.dim
    check_automorphism_pairwise(auto)


# the k^3 check that the *-check in compress replaced: the involution law
# [x, y, w]* = [w*, y*, x*] of the inherited product, and its closure in
# the range, over all range basis triples

def _compress_triples_pass(p_map: LinearMap, range_space) -> bool:
    t, d = p_map.domain.tol, p_map.codomain_dim
    basis = range_space.onb

    def apply(mats):
        return mats.reshape(len(mats), d * d) @ p_map.matrix.T

    images = apply(basis).reshape(-1, d, d)
    flipped = adjoint(apply(adjoint(basis)).reshape(-1, d, d))
    for outer, inner in zip(triple_chunks(images), triple_chunks(flipped)):
        prods = apply(outer)
        lhs = adjoint(prods.reshape(-1, d, d)).reshape(prods.shape)
        rhs = apply(adjoint(inner.reshape(-1, d, d)))
        resid = range_space.residual_rows(prods)
        if np.any(_exceeds(lhs - rhs, lhs, rhs, t) | _exceeds(resid, prods, prods, t)):
            return False
    return True


@settings(max_examples=20, deadline=None)
@given(**HOSTS)
def test_compress_accepts_only_maps_the_triple_check_accepts(kind, dims, conjugate, scale, tol,
                                                            seed):
    rng = np.random.default_rng(seed)
    z, u, dims = _oracle_tro(kind, dims, conjugate, scale, tol, rng)
    d = z.ambient_dim
    q = _first_block(u, dims)
    # x -> <w, x> w for the top singular pair w = xi eta* of a basis
    # element, a rank-one partial isometry in Z; on corners xi and eta
    # are orthogonal and the map is not *-preserving
    left, _, right = np.linalg.svd(z.space.onb[0] if z.dim else np.eye(d))
    w = np.outer(left[:, 0], right[0])
    maps = [LinearMap.identity(z),
            LinearMap.compression(z, q),
            LinearMap.from_function(lambda m: q @ m @ q + (np.eye(d) - q) @ m @ (np.eye(d) - q),
                                    z, d),
            LinearMap.from_function(lambda m: u @ np.diag(np.diag(u.conj().T @ m @ u))
                                    @ u.conj().T, z, d),
            LinearMap.from_function(lambda m: hs_inner(w, m) * w, z, d)]
    accepted = 0
    for p in maps:
        try:
            system = compress(p, rng=np.random.default_rng(0), samples=4)
        except ValueError:
            continue
        accepted += 1
        assert _compress_triples_pass(p, system.range_space)
    assert accepted >= 1  # the identity
