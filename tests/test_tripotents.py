"""Selfadjoint central tripotents: enumeration, order, meet.

For diagonal hosts the whole theory is combinatorial: central tripotents
of D_n are exactly the diagonal {-1,0,1} matrices, the order u <= v
reads entrywise as (u_i != 0 implies v_i = u_i), and the meet keeps the
slots where both entries agree.  That gives independent oracles for the
counts (3^n, with 2^n full-support ones) and for every meet value."""

from __future__ import annotations

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trokit import (
    BlockCapError,
    CenterAtoms,
    ClassificationReport,
    FiniteInvolutiveSpace,
    Tripotent,
    TroError,
    atoms_certificate,
    build_sections,
    center_atoms,
    central_blocks,
    central_tripotents,
    classify,
    closure_from_generators,
    decompose,
    embed_as_tro,
    enumerate_central_tripotents,
    is_selfadjoint_tripotent,
    is_unorderable,
    leq,
    matrix_unit,
    maximal_central_tripotents,
    meet,
)
from trokit import ordering as ordering_module
from trokit import tripotents as tripotents_module
from trokit.tripotents import _is_sign_cube, _sort_key

from hosts import block_host, corner_tro, diagonal_tro, full_matrix_tro
from oracles import atoms_certificate_loop, block_units


def test_is_selfadjoint_tripotent_examples():
    assert is_selfadjoint_tripotent(np.eye(3, dtype=complex))
    assert is_selfadjoint_tripotent(np.diag([1.0, -1.0, 0.0]).astype(complex))
    assert not is_selfadjoint_tripotent(matrix_unit(2, 0, 1))  # not selfadjoint
    assert not is_selfadjoint_tripotent(2.0 * np.eye(2))  # cube grows


def test_certify_centrality_against_host():
    z = diagonal_tro(2)
    t = Tripotent.certify(np.diag([1.0, 0.0]).astype(complex), host=z)
    assert t.is_central
    m2 = full_matrix_tro(2)
    t2 = Tripotent.certify(np.diag([1.0, 0.0]).astype(complex), host=m2)
    assert not t2.is_central  # does not commute with E12
    t3 = Tripotent.certify(np.eye(2, dtype=complex), host=m2)
    assert t3.is_central


def test_leq_examples():
    u = np.diag([1.0, 0.0]).astype(complex)
    v = np.diag([1.0, 1.0]).astype(complex)
    assert leq(u, v)
    assert not leq(v, u)
    assert leq(np.zeros((2, 2)), v)


def test_projection_split():
    z = diagonal_tro(2)
    u = Tripotent.certify(np.diag([1.0, -1.0]).astype(complex), host=z)
    p, q = u.projection_split()
    assert np.allclose(p, np.diag([1.0, 0.0]))
    assert np.allclose(q, np.diag([0.0, 1.0]))
    assert np.allclose(p @ q, 0)
    assert np.allclose(u.u, p - q)


def _diag_tripotents(n: int) -> list[np.ndarray]:
    out = []
    for signs in product((-1.0, 0.0, 1.0), repeat=n):
        out.append(np.diag(signs).astype(complex))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagonal_counts(n):
    z = diagonal_tro(n)
    trips = enumerate_central_tripotents(z)
    assert len(trips) == 3 ** n
    maxs = maximal_central_tripotents(z)
    assert len(maxs) == 2 ** n

    # every diagonal sign matrix appears, each exactly once
    found = {tuple(np.round(np.diag(t.u).real).astype(int)) for t in trips}
    expected = {tuple(np.round(np.diag(m).real).astype(int)) for m in _diag_tripotents(n)}
    assert found == expected
    for m in maxs:
        assert 0 not in np.round(np.diag(m.u).real).astype(int)


def test_full_algebra_enumeration():
    m2 = full_matrix_tro(2)
    trips = enumerate_central_tripotents(m2)
    assert len(trips) == 3
    mats = sorted(float(t.u[0, 0].real) for t in trips)
    assert mats == [-1.0, 0.0, 1.0]
    assert len(maximal_central_tripotents(m2)) == 2


def test_block_host_enumeration():
    z = block_host(2, 1)  # M2 + M1 on the diagonal: center dim 2
    assert z.center.dim == 2
    assert len(central_blocks(z)) == 2
    assert len(enumerate_central_tripotents(z)) == 9
    assert len(maximal_central_tripotents(z)) == 4


def test_trivial_center_cases():
    corner = corner_tro(2)
    trips = enumerate_central_tripotents(corner)
    assert len(trips) == 1
    assert np.allclose(trips[0].u, 0)
    assert maximal_central_tripotents(corner) == []


def test_block_cap_raises():
    with pytest.raises(BlockCapError):
        enumerate_central_tripotents(diagonal_tro(4), max_blocks=3)


def test_negation_symmetry():
    z = diagonal_tro(3)
    trips = enumerate_central_tripotents(z)
    keys = {tuple(np.round(t.u.ravel(), 9).tolist()) for t in trips}
    for t in trips:
        assert tuple(np.round((-t.u).ravel(), 9).tolist()) in keys
    for a in trips:
        for b in trips:
            assert leq(a, b) == leq(Tripotent(-a.u, True), Tripotent(-b.u, True))


def test_leq_is_partial_order_on_enumeration():
    z = diagonal_tro(2)
    trips = enumerate_central_tripotents(z)
    for a in trips:
        assert leq(a, a)
    for a in trips:
        for b in trips:
            if leq(a, b) and leq(b, a):
                assert np.allclose(a.u, b.u)
            for c in trips:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c)


def test_meet_examples():
    z = diagonal_tro(2)
    u = Tripotent.certify(np.diag([1.0, 1.0]).astype(complex), host=z)
    v = Tripotent.certify(np.diag([1.0, -1.0]).astype(complex), host=z)
    w = meet(u, v, host=z)
    assert np.allclose(w.u, np.diag([1.0, 0.0]))

    a = Tripotent.certify(np.diag([1.0, 0.0]).astype(complex), host=z)
    b = Tripotent.certify(np.diag([-1.0, 0.0]).astype(complex), host=z)
    assert np.allclose(meet(a, b, host=z).u, 0)
    assert np.allclose(meet(a, a, host=z).u, a.u)


def test_loose_host_decides_at_its_own_tolerance():
    # at tol 1e-3 the span of diag(1, 1e-5) contains diag(1, 0), which
    # it misses at 1e-9: certify and meet must use the host's tolerance
    z = closure_from_generators([np.diag([1.0, 1e-5])], dim=2, tol=1e-3)
    trips = enumerate_central_tripotents(z)
    assert len(trips) == 3
    for u in trips:
        assert meet(u, u, host=z).is_central
        assert Tripotent.certify(u.u, z).is_central
    info = classify(z)
    assert info.natural_cone_count == 3 and info.maximal_cone_count == 2


def test_meet_requires_central_arguments():
    m2 = full_matrix_tro(2)
    non_central = Tripotent.certify(np.diag([1.0, 0.0]).astype(complex), host=m2)
    central = Tripotent.certify(np.eye(2, dtype=complex), host=m2)
    with pytest.raises(ValueError):
        meet(non_central, central, host=m2)


def _entrywise_meet(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    du = np.round(np.diag(u).real).astype(int)
    dv = np.round(np.diag(v).real).astype(int)
    return np.diag(np.where(du == dv, du, 0)).astype(complex)


def test_meet_matches_entrywise_oracle_on_d3():
    z = diagonal_tro(3)
    trips = enumerate_central_tripotents(z)
    for a in trips:
        for b in trips:
            w = meet(a, b, host=z)
            assert np.allclose(w.u, _entrywise_meet(a.u, b.u), atol=1e-9)
            assert np.allclose(w.u, meet(b, a, host=z).u, atol=1e-9)


def test_meet_is_greatest_lower_bound_on_d2():
    z = diagonal_tro(2)
    trips = enumerate_central_tripotents(z)
    for a in trips:
        for b in trips:
            w = meet(a, b, host=z)
            assert leq(w, a) and leq(w, b)
            lower = [c for c in trips if leq(c, a) and leq(c, b)]
            for c in lower:
                assert leq(c, w)


def test_maximal_tripotents_share_support():
    z = block_host(2, 1)
    maxs = maximal_central_tripotents(z)
    supports = [np.round(m.u @ m.u, 9) for m in maxs]
    for s in supports[1:]:
        assert np.allclose(s, supports[0])


def test_enumeration_is_deterministic():
    a = enumerate_central_tripotents(diagonal_tro(3))
    b = enumerate_central_tripotents(diagonal_tro(3))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.u, y.u)


def _discrete_embedding(points: int):
    tau = tuple(p ^ 1 for p in range(points))  # swap 0<->1, 2<->3, ...
    space = FiniteInvolutiveSpace.build(points, tau, discrete=True)
    return embed_as_tro(build_sections(space))


def _conjugated(z, seed: int):
    rng = np.random.default_rng(seed)
    shape = (z.ambient_dim,) * 2
    u, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return closure_from_generators([u @ b @ u.conj().T for b in z.space.onb])


@pytest.mark.parametrize("host,ranks", [
    (lambda: diagonal_tro(3), [1, 1, 1]),
    (lambda: block_host(2, 1), [1, 2]),
    (lambda: _conjugated(block_host(1, 2), 5), [1, 2]),
    (lambda: _discrete_embedding(4), [2, 2]),
])
def test_center_atoms_are_certified_orthogonal_tripotents(host, ranks):
    z = host()
    atoms = center_atoms(z)
    mats = atoms.atoms()
    assert atoms.count == z.center.dim == len(ranks)
    assert atoms.certified
    assert sorted(int(round(np.trace(a @ a).real)) for a in mats) == ranks
    for i, a in enumerate(mats):
        assert np.allclose(a @ a @ a, a) and np.allclose(a, a.conj().T)
        for b in mats[i + 1:]:
            assert np.allclose(a @ b, 0)


def test_discrete_embedding_atoms_pair_opposite_points():
    # the section E_00 - E_11 is one atom over two blocks of opposite sign
    atoms = center_atoms(_discrete_embedding(4))
    assert len(atoms.projectors) == 4
    assert sorted(np.abs(atoms.layout).sum(axis=0).tolist()) == [2, 2]
    for a in atoms.atoms():
        assert sorted(np.round(np.diag(a).real).astype(int).tolist()) == [-1, 0, 0, 1]


@pytest.mark.parametrize("host", [lambda: block_host(2, 1), lambda: _conjugated(diagonal_tro(3), 2)])
def test_enumerated_tripotents_are_their_sign_sums(host):
    z = host()
    atoms = center_atoms(z)
    mats = atoms.atoms()
    trips = enumerate_central_tripotents(z)
    assert {tp.signs for tp in trips} == set(product((-1, 0, 1), repeat=atoms.count))
    for tp in trips:
        assert np.allclose(tp.u, sum(e * a for e, a in zip(tp.signs, mats)))
        assert tp.has_full_support == (0 not in tp.signs)
    assert [tp.signs for tp in maximal_central_tripotents(z)] == \
        [tp.signs for tp in trips if tp.has_full_support]


def test_atoms_certificate_rejects_non_orthogonal_atoms():
    z = diagonal_tro(2)
    e1, e2 = (np.diag(v).astype(complex) for v in ([1.0, 0.0], [0.0, 1.0]))
    assert atoms_certificate([e1, e2], z)
    # both are central tripotents, but e1 (e1 + e2) = e1 != 0
    assert not atoms_certificate([e1, e1 + e2], z)
    assert not atoms_certificate([e1], z)  # one atom cannot span a 2-dim center
    assert not atoms_certificate([e1, 2 * e2], z)  # not a tripotent


@settings(max_examples=30, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda ds: 2 <= sum(ds) <= 6),
       conjugate=st.booleans(), tol=st.floats(-12, -3), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_atom_certificate_agrees_with_the_loop(dims, conjugate, tol, seed):
    # block hosts, conjugated by a random unitary or not; the stack must
    # accept their atoms as the loop does, and refute four planted faults
    rng = np.random.default_rng(seed)
    d = sum(dims)
    gens = block_units(dims)
    if conjugate:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        gens = [q @ g @ q.conj().T for g in gens]
    z = closure_from_generators(gens, dim=d, tol=10.0 ** tol)
    atoms = center_atoms(z).atoms()
    assert len(atoms) == len(dims)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    line = np.outer(x, x.conj()) / np.vdot(x, x).real  # a rank-one projection
    faults = [
        atoms[:-1],  # one atom short
        [line] + atoms[1:],  # a Hermitian tripotent outside the center
        [(1 + 10 * z.tol.eps) * atoms[0]] + atoms[1:],  # not a tripotent
    ]
    if len(atoms) > 1:  # central tripotents, but a_0 (a_0 + a_1) = a_0
        faults.append([atoms[0], atoms[0] + atoms[1]] + atoms[2:])
    verdicts = [atoms_certificate(a, z) for a in [atoms] + faults]
    assert verdicts == [atoms_certificate_loop(a, z) for a in [atoms] + faults]
    assert verdicts == [True] + [False] * len(faults)


def _pairwise_closed(signs) -> tuple[bool, bool]:
    """(negation-closed, meet-closed) of a set of sign vectors, every
    vector and every pair looked up."""
    listed = set(signs)
    negation = all(tuple(-e for e in v) in listed for v in signs)
    meets = all(tuple(a if a == b else 0 for a, b in zip(u, v)) in listed
                for u in signs for v in signs)
    return negation, meets


def test_sign_cube_examples():
    cube = list(product((-1, 0, 1), repeat=3))
    assert _is_sign_cube(cube)
    assert _pairwise_closed(cube) == (True, True)
    assert _is_sign_cube([()])  # the trivial center: one zero tripotent
    # (1, 1, 0) is the meet of (1, 1, 1) and (1, 1, -1) and the negation of (-1, -1, 0)
    assert not _is_sign_cube([e for e in cube if e != (1, 1, 0)])
    assert not _is_sign_cube(cube + [(1, 1, 0)])  # a vector listed twice
    # closed under negation but not under meets
    assert not _is_sign_cube([(1, 1), (-1, -1), (1, -1), (-1, 1)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(lambda c: st.lists(
    st.tuples(*[st.sampled_from((-1, 0, 1))] * c), min_size=1, unique=True)))
def test_sign_cube_check_accepts_exactly_the_full_cube(signs):
    c = len(signs[0])
    full = set(signs) == set(product((-1, 0, 1), repeat=c))
    assert _is_sign_cube(signs) == full
    assert _is_sign_cube(sorted(signs, reverse=True)) == full
    if full:
        assert _pairwise_closed(signs) == (True, True)


def test_classify_reports_both_verdicts_false_without_the_certificate(monkeypatch):
    monkeypatch.setattr(tripotents_module, "atoms_certificate", lambda atoms, z: False)
    info = classify(diagonal_tro(2))
    assert (info.negation_closed, info.meet_closed) == (False, False)
    assert info.natural_cone_count == 9


@pytest.mark.parametrize("host,dims", [(lambda: diagonal_tro(3), (3, 0)),
                                       (lambda: corner_tro(3), (0, 4))])
def test_classify_decomposes_once(monkeypatch, host, dims):
    z = host()
    calls = []
    decompose = ordering_module.decompose

    def counting(z, u):
        calls.append(u.signs)
        return decompose(z, u)

    monkeypatch.setattr(ordering_module, "decompose", counting)
    info = classify(z)
    assert len(calls) == 1
    assert info.decomposition_dims == dims


def test_classify_reports_certified_lattice_checks():
    info = classify(block_host(1, 2))
    assert info.negation_closed and info.meet_closed


def _count_certifications(monkeypatch) -> tuple[list, list]:
    """Record every ``Tripotent.certify`` and ``atoms_certificate`` call."""
    certify_calls, certificate_calls = [], []
    certify = Tripotent.certify
    certificate = tripotents_module.atoms_certificate

    def counting_certify(u, host):
        certify_calls.append(1)
        return certify(u, host=host)

    def counting_certificate(atoms, z):
        certificate_calls.append(1)
        return certificate(atoms, z)

    monkeypatch.setattr(Tripotent, "certify", staticmethod(counting_certify))
    monkeypatch.setattr(tripotents_module, "atoms_certificate", counting_certificate)
    return certify_calls, certificate_calls


def test_enumeration_certifies_each_sign_vector_once(monkeypatch):
    # 8 points in 4 swapped pairs: 8 joint blocks but 4 atoms, so 3^4
    # sign vectors where 3^8 block codes would be tried blockwise; the
    # one atom certificate covers all 81, none is certified on its own
    z = _discrete_embedding(8)
    certify_calls, certificate_calls = _count_certifications(monkeypatch)
    trips = enumerate_central_tripotents(z)
    assert len(trips) == 81
    assert len(certify_calls) == 0
    assert len(certificate_calls) == 1


def test_only_meet_certifies_a_tripotent_on_its_own(monkeypatch):
    z = block_host(2, 1)
    certify_calls, _ = _count_certifications(monkeypatch)
    trips = enumerate_central_tripotents(z)
    info = classify(z)
    assert (len(trips), len(maximal_central_tripotents(z)), info.natural_cone_count) == (9, 4, 9)
    assert len(certify_calls) == 0
    assert meet(trips[0], trips[-1], z).is_central
    assert len(certify_calls) == 1


@settings(max_examples=10, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda ds: sum(ds) <= 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_per_vector_certification_confirms_every_enumerated_tripotent(dims, seed):
    # per-vector certification is the oracle for the atom certificate, on
    # block hosts conjugated by a random unitary and scaled
    d = sum(dims)
    gens = block_host(*dims).space.basis()
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    for scale in (1.0, 1e-6, 1e6):
        z = closure_from_generators([scale * u @ g @ u.conj().T for g in gens], dim=d)
        trips = enumerate_central_tripotents(z)
        assert len(trips) == 3 ** len(dims)
        for tp in trips:
            checked = Tripotent.certify(tp.u, host=z)
            assert checked.is_central
            assert np.array_equal(checked.u, tp.u)


def test_uncertified_center_is_refused(monkeypatch):
    # blocks that group into too few atoms: M_1+M_1+M_2+M_1+M_1 at tol 0.5
    gens = block_host(1, 1, 2, 1, 1).space.basis()
    with pytest.raises(TroError, match="does not split into 5 certified atoms at tol 0.5"):
        center_atoms(closure_from_generators(gens, dim=6, tol=0.5))
    # atoms that fail their certificate
    monkeypatch.setattr(tripotents_module, "atoms_certificate", lambda atoms, z: False)
    for listing in (enumerate_central_tripotents, maximal_central_tripotents):
        with pytest.raises(TroError, match="does not split into 2 certified atoms at tol 1e-09"):
            listing(diagonal_tro(2))


@pytest.mark.parametrize("host", [lambda: diagonal_tro(3),
                                  lambda: _conjugated(block_host(1, 2, 1), 7)])
def test_block_refinement_splits_a_merged_first_clustering(monkeypatch, host):
    # when the generic combination repeats an eigenvalue across blocks,
    # the refinement by each family member must split them apart
    z = host()
    expect_blocks = [q @ q.conj().T for q in central_blocks(z)]
    expect_report = classify(z)
    cluster = tripotents_module._cluster
    calls = []

    def merged_first(values, thr):
        calls.append(1)
        return [np.arange(len(values))] if len(calls) == 1 else cluster(values, thr)

    monkeypatch.setattr(tripotents_module, "_cluster", merged_first)
    blocks = [q @ q.conj().T for q in central_blocks(z)]
    assert len(calls) > 1  # the refinement split the merged block
    assert len(blocks) == len(expect_blocks)
    for p in expect_blocks:
        assert sum(np.allclose(p, q) for q in blocks) == 1
    calls.clear()
    assert classify(z) == expect_report


def test_trivial_center_gives_one_identity_block():
    blocks = central_blocks(corner_tro(3))
    assert len(blocks) == 1
    assert np.array_equal(blocks[0], np.eye(3))


@settings(max_examples=15, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda ds: sum(ds) <= 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_pass_leaves_every_member_scalar_on_every_block(dims, seed):
    # the blocks are exactly the summands' supports, and no member of the
    # center family splits any of them further
    d = sum(dims)
    gens = block_host(*dims).space.basis()
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    ends = np.cumsum(dims)
    supports = [u[:, e - k:e] @ u[:, e - k:e].conj().T for k, e in zip(dims, ends)]
    for scale in (1.0, 1e-6, 1e6):
        z = closure_from_generators([scale * u @ g @ u.conj().T for g in gens], dim=d, tol=1e-9)
        blocks = central_blocks(z)
        projectors = [q @ q.conj().T for q in blocks]
        assert len(projectors) == len(supports)
        for p in supports:
            assert sum(np.allclose(p, q, atol=1e-8) for q in projectors) == 1
        thr = np.sqrt(z.tol.eps)
        for h in tripotents_module._selfadjoint_family(z.center):
            for q in blocks:
                vals = np.linalg.eigvalsh(q.conj().T @ h @ q)
                assert vals[-1] - vals[0] <= thr * max(1.0, float(np.max(np.abs(vals))))


def test_classify_computes_the_blocks_once(monkeypatch):
    calls = []
    blocks = tripotents_module.central_blocks

    def counting(z):
        calls.append(1)
        return blocks(z)

    monkeypatch.setattr(tripotents_module, "central_blocks", counting)
    info = classify(diagonal_tro(3))
    assert info.natural_cone_count == 27 and info.block_count == 3
    assert len(calls) == 1


def test_one_column_blocks_are_not_split_again(monkeypatch):
    # the generic combination splits D_5 into five one-column blocks; no
    # member is compressed to them, since a 1 x 1 matrix is one cluster
    z = diagonal_tro(5)
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    blocks = central_blocks(z)
    assert calls == [(5, 5)]
    assert sorted(int(np.argmax(np.abs(q[:, 0]))) for q in blocks) == [0, 1, 2, 3, 4]
    assert all(q.shape == (5, 1) for q in blocks)


def _central_tripotents_loop(z, atoms, maximal: bool = False) -> list[Tripotent]:
    """The enumeration that ``central_tripotents`` replaced: one Python
    sum of the block projectors per sign vector, in ``product`` order,
    then a stable sort by ``_sort_key``."""
    if atoms.count == 0:
        zero = Tripotent(np.zeros((z.ambient_dim,) * 2, dtype=complex), True, ())
        return [] if maximal else [zero]
    found = []
    for eps in product((-1, 1) if maximal else (-1, 0, 1), repeat=atoms.count):
        alpha = atoms.layout @ np.asarray(eps, dtype=float) + 0.0
        found.append(Tripotent(sum(a * p for a, p in zip(alpha, atoms.projectors)), True, eps))
    found.sort(key=lambda tp: _sort_key(tp.u))
    return found


def _classify_loop(z, atoms) -> ClassificationReport:
    """``classify`` built from the loop's list, as it was before the sign
    matrix: every tripotent built, the first maximal one decomposed."""
    trips = _central_tripotents_loop(z, atoms)
    maximal_indices = tuple(i for i, tp in enumerate(trips) if tp.has_full_support)
    part, comp = decompose(z, trips[maximal_indices[0] if maximal_indices else 0])
    lattice = atoms.certified and _is_sign_cube([tp.signs for tp in trips])
    return ClassificationReport(
        ambient_dim=z.ambient_dim, space_dim=z.dim, square_dim=z.square.dim,
        algebra_part_dim=z.alg_part.dim, center_dim=z.center.dim,
        block_count=len(atoms.projectors), natural_cone_count=len(trips),
        maximal_cone_count=len(maximal_indices), unorderable=is_unorderable(z),
        maximal_indices=maximal_indices, decomposition_dims=(part.dim, comp.dim),
        negation_closed=lattice, meet_closed=lattice)


def _assert_enumeration_matches_loop(z) -> None:
    try:
        atoms = center_atoms(z)
    except TroError:
        with pytest.raises(TroError):
            classify(z)
        return
    for maximal in (False, True):
        got = central_tripotents(z, atoms, maximal=maximal)
        want = _central_tripotents_loop(z, atoms, maximal=maximal)
        assert [tp.signs for tp in got] == [tp.signs for tp in want]
        for a, b in zip(got, want):
            assert a.is_central and a.u.shape == b.u.shape
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(np.signbit(a.u.view(float)), np.signbit(b.u.view(float)))
    assert classify(z) == _classify_loop(z, atoms)


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(1, 2), min_size=1, max_size=6).filter(lambda ds: sum(ds) <= 8),
       conjugate=st.sampled_from((True, True, False)),
       scale=st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e),
       tol=st.floats(-9.0, -3.0).map(lambda e: 10.0 ** e),
       seed=st.integers(0, 2 ** 32 - 1))
def test_enumeration_matches_the_per_code_loop(dims, conjugate, scale, tol, seed):
    # the stacked order and matrices equal the per-code sums sorted by
    # _sort_key bit for bit, on block hosts conjugated by a random
    # unitary and scaled, whole and maximal
    d = sum(dims)
    gens = block_host(*dims).space.basis()
    if conjugate:
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        gens = [u @ g @ u.conj().T for g in gens]
    _assert_enumeration_matches_loop(
        closure_from_generators([scale * g for g in gens], dim=d, tol=tol))


@pytest.mark.parametrize("host", [lambda: corner_tro(3), lambda: _discrete_embedding(6),
                                  lambda: _conjugated(block_host(2, 1, 1), 11)])
def test_enumeration_matches_the_per_code_loop_on_fixed_hosts(host):
    # a trivial center, atoms over sign-paired blocks, complex projectors
    _assert_enumeration_matches_loop(host())


def test_order_keys_imaginary_parts_rounds_and_keeps_ties():
    # projectors onto (1, i) and (1, -i): equal real parts, so the
    # imaginary parts order their sign sums
    p, q = (np.array([[0.5, -0.5j * s], [0.5j * s, 0.5]]) for s in (1, -1))
    atoms = CenterAtoms((p, q), np.eye(2, dtype=int), True)
    signs = [tuple(e) for e in atoms.sorted_signs().tolist()]
    assert signs == [tp.signs for tp in _central_tripotents_loop(None, atoms)]
    assert signs.index((1, 0)) < signs.index((0, 1))
    # blocks that are not projectors, since the order is arithmetic on
    # their entries: 0.1 + 0.2 and 0.3 tie once rounded, so the second
    # entry puts (1, 1, 0, 0) first, and the last two blocks are equal, so
    # their sums tie and keep the order of itertools.product
    blocks = tuple(np.diag(v).astype(complex) for v in ([0.1, 0], [0.2, 0], [0.3, 1], [0.3, 1]))
    atoms = CenterAtoms(blocks, np.eye(4, dtype=int), True)
    signs = [tuple(e) for e in atoms.sorted_signs().tolist()]
    assert signs == [tp.signs for tp in _central_tripotents_loop(None, atoms)]
    assert signs.index((1, 1, 0, 0)) < signs.index((0, 0, 1, 0))
    assert signs.index((0, 0, 0, 1)) == signs.index((0, 0, 1, 0)) - 1


def test_stack_in_row_chunks_is_bitwise_the_whole_stack(monkeypatch):
    # dense complex projectors, and seven rows a chunk, so the last is short
    atoms = center_atoms(_conjugated(block_host(2, 1, 1), 11))
    signs = atoms.sorted_signs()
    whole = atoms.stack(signs)
    monkeypatch.setattr(tripotents_module, "_CHUNK_BYTES", 7 * whole[0].nbytes)
    chunked = atoms.stack(signs)
    assert np.array_equal(chunked, whole)
    assert np.array_equal(np.signbit(chunked.view(float)), np.signbit(whole.view(float)))


def test_classify_builds_one_tripotent_matrix(monkeypatch):
    z = diagonal_tro(5)
    atoms = center_atoms(z)
    rows = []
    stack = CenterAtoms.stack

    def counting(self, signs):
        out = stack(self, signs)
        rows.append(len(out))
        return out

    monkeypatch.setattr(ordering_module, "center_atoms", lambda z, max_blocks: atoms)
    monkeypatch.setattr(CenterAtoms, "stack", counting)
    info = classify(z)
    assert rows == [1]
    assert (info.natural_cone_count, len(info.maximal_indices)) == (243, 32)


def test_enumeration_sorts_with_one_lexsort(monkeypatch):
    calls = []
    lexsort = np.lexsort

    def counting(keys):
        calls.append(len(keys))
        return lexsort(keys)

    def refuse(u):
        raise AssertionError("no tripotent is keyed on its own")

    monkeypatch.setattr(np, "lexsort", counting)
    monkeypatch.setattr(tripotents_module, "_sort_key", refuse)
    assert len(enumerate_central_tripotents(diagonal_tro(4))) == 81
    assert calls == [4]  # the four diagonal entries; every other column is zero


def test_classify_of_d10_stays_within_32_mb():
    z = diagonal_tro(10)
    tracemalloc.start()
    try:
        info = classify(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.natural_cone_count, info.maximal_cone_count) == (3 ** 10, 2 ** 10)
    assert peak < 32 * 2 ** 20
