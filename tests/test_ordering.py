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
    hs_norm,
    is_psd,
    is_unorderable,
    leq,
    leq_table,
    matrix_cone_membership,
    matrix_unit,
    meet,
    op_norm,
    peirce_product,
    peirce_space,
)
from trokit import ordering
from trokit.tripotents import _sort_key

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


# Per-matrix oracles: the cone checks one matrix at a time, as they were
# before the library stacked them.

def _cone_membership_loop(x, u, z) -> bool:
    t = z.tol
    a = np.asarray(x, dtype=complex)
    w = u.u if isinstance(u, Tripotent) else np.asarray(u, dtype=complex)
    if not z.space.contains(a, t):
        return False
    if hs_norm(w @ a @ w - a) > t.cutoff(hs_norm(a)):
        return False
    return is_psd(w @ a, t)


def _sample_loop(cone: NaturalCone, rng, count: int) -> list[np.ndarray]:
    u = cone.tripotent.u
    out = []
    for _ in range(count):
        e = cone.host.space.random_element(rng)
        out.append(e @ u @ e.conj().T)
    return out


def _diagonal_rays_loop(cone: NaturalCone) -> list[np.ndarray]:
    t = cone.host.tol
    d = cone.host.ambient_dim
    offdiag = [abs(b[i, j]) for b in cone.host.space.onb
               for i in range(d) for j in range(d) if i != j]
    if offdiag and max(offdiag) > t.cutoff(1.0):
        raise ValueError("diagonal rays require a diagonal host")
    rays = []
    for i in range(d):
        val = cone.tripotent.u[i, i]
        if abs(val) > t.cutoff(1.0):
            ray = np.zeros((d, d), dtype=complex)
            ray[i, i] = val
            rays.append(ray)
    return rays


def _cone_intersection_loop(u, v, z, rng=None, samples=32, member=_cone_membership_loop):
    """``meet`` and ``NaturalCone.diagonal_rays`` are looked up when
    called, so a fault planted in them reaches the oracle too."""
    rng = rng if rng is not None else np.random.default_rng(0)
    w = ordering.meet(u, v, host=z)
    cu, cv, cw = NaturalCone(z, u), NaturalCone(z, v), NaturalCone(z, w)

    def inside(cone, x):
        return member(x, cone.tripotent, z)

    for x in _sample_loop(cw, rng, samples):
        if not (inside(cu, x) and inside(cv, x)):
            return False, x
    both = [x for x in _sample_loop(cu, rng, samples) + _sample_loop(cv, rng, samples)
            if inside(cu, x) and inside(cv, x)]
    both.extend(a + b for a, b in zip(both[::2], both[1::2]))
    for x in both:
        if not inside(cw, x):
            return False, x
    try:
        rays_u, rays_v, rays_w = cu.diagonal_rays(), cv.diagonal_rays(), cw.diagonal_rays()
    except ValueError:
        return True, None

    def keyset(rays):
        return {_sort_key(r) for r in rays}

    common = keyset(rays_u) & keyset(rays_v)
    if common != keyset(rays_w):
        d = z.ambient_dim
        diff = common.symmetric_difference(keyset(rays_w))
        return False, np.array(list(diff)[0][: d * d]).reshape(d, d).astype(complex)
    for r in rays_u:
        if (inside(cu, r) and inside(cv, r)) != inside(cw, r):
            return False, r
    return True, None


def _assert_same_result(got, want) -> None:
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        assert got[1] is not None and np.max(np.abs(got[1] - want[1])) <= 1e-12


@pytest.mark.parametrize("host,cycle", [(lambda: diagonal_tro(2), False),
                                        (lambda: direct_sum(full_matrix_tro(2), diagonal_tro(2)),
                                         True)], ids=["D2", "M2+D2"])
def test_intersection_matches_loop_on_every_pair(host, cycle):
    # every pair with 0, 1 and 7 samples per cone; on the larger host the
    # pairs take the three sample counts in turn
    z = host()
    trips = enumerate_central_tripotents(z)
    for i, u in enumerate(trips):
        for j, v in enumerate(trips):
            counts = (0, 1, 7)
            for samples in [counts[(i + j) % 3]] if cycle else counts:
                seed = [i, j, samples]
                got = cone_intersection_is_meet(u, v, z, np.random.default_rng(seed), samples)
                want = _cone_intersection_loop(u, v, z, np.random.default_rng(seed), samples)
                _assert_same_result(got, want)


def test_intersection_matches_loop_at_the_zero_tripotent_of_a_trivial_center():
    z = corner_tro(3)
    (zero,) = enumerate_central_tripotents(z)
    for samples in (0, 1, 7):
        got = cone_intersection_is_meet(zero, zero, z, np.random.default_rng(3), samples)
        _assert_same_result(got, _cone_intersection_loop(zero, zero, z, np.random.default_rng(3),
                                                          samples))
        assert got == (True, None)


def _plant_refusal(monkeypatch, refuse):
    """Plant one fault in both membership tests: ``refuse(x, w)`` takes x
    out of the cone of the tripotent matrix w.  Returns the faulty
    per-matrix oracle."""
    table = ordering._cone_table

    def faulty_table(xs, ws, z):
        out = table(xs, ws, z)
        return out & ~np.array([[refuse(x, w) for x in xs] for w in ws], dtype=bool).reshape(
            out.shape)

    monkeypatch.setattr(ordering, "_cone_table", faulty_table)
    return lambda x, u, z: _cone_membership_loop(x, u, z) and not refuse(x, u.u)


def _d3(signs):
    return Tripotent(np.diag(signs).astype(complex), is_central=True)


@pytest.mark.parametrize("fault", ["u", "zero"])
def test_planted_meet_fault_gives_the_loop_witness(monkeypatch, fault):
    # "meet" returns u, whose samples leave the cone of v (first check),
    # or 0, whose samples are 0 but whose cone holds no common sample
    # (second check)
    z = diagonal_tro(3)
    u, v = _d3([1.0, 1.0, 1.0]), _d3([0.0, 1.0, 1.0])
    zero = Tripotent(np.zeros((3, 3), dtype=complex), is_central=True)
    monkeypatch.setattr(ordering, "meet", lambda a, b, host: a if fault == "u" else zero)
    want = _cone_intersection_loop(u, v, z, np.random.default_rng(5), 8)
    assert want[0] is False
    if fault == "zero":
        assert np.trace(want[1]).real > 0
    _assert_same_result(cone_intersection_is_meet(u, v, z, np.random.default_rng(5), 8), want)


# the seed of "pair sums" makes the third of the four sums the first one
# above every single sample
@pytest.mark.parametrize("stage,seed", [("meet samples", 5), ("pair sums", 4), ("rays", 5)])
def test_planted_membership_fault_gives_the_loop_witness(monkeypatch, stage, seed):
    z = diagonal_tro(3)
    samples = 8
    u, v = _d3([1.0, 1.0, 1.0]), _d3([0.0, 1.0, 1.0] if stage != "rays" else [-1.0, 1.0, 1.0])
    w = meet(u, v, host=z).u
    stream = np.random.default_rng(seed)
    drawn = [np.trace(x).real for cone in (NaturalCone(z, Tripotent(w, True)), NaturalCone(z, u),
                                           NaturalCone(z, v))
             for x in _sample_loop(cone, stream, samples)]
    if stage == "meet samples":
        # refuse the meet samples above their median trace in the cone of u
        cut = sorted(drawn[:samples])[samples // 2]
        refuse = lambda x, t: np.allclose(t, u.u) and np.trace(x).real > cut
    elif stage == "pair sums":
        # no single sample the meet cone is asked about (the meet samples,
        # then the common ones, which are the samples of v) is refused
        cut = max(drawn[:samples] + drawn[2 * samples:])
        refuse = lambda x, t: np.allclose(t, w) and np.trace(x).real > cut
    else:
        # the meet cone refuses the last two rays of u, so the first of
        # them, diag(0, 1, 0), is the witness
        refuse = lambda x, t: np.allclose(t, w) and any(
            np.allclose(x, np.diag(r)) for r in ([0, 1.0, 0], [0, 0, 1.0]))
    oracle = _plant_refusal(monkeypatch, refuse)
    want = _cone_intersection_loop(u, v, z, np.random.default_rng(seed), samples, member=oracle)
    assert want[0] is False
    if stage == "meet samples":
        assert np.trace(want[1]).real != drawn[0]
    elif stage == "pair sums":
        assert np.trace(want[1]).real > cut
    else:
        assert np.allclose(want[1], np.diag([0, 1.0, 0]))
    _assert_same_result(cone_intersection_is_meet(u, v, z, np.random.default_rng(seed), samples),
                        want)


def test_planted_ray_fault_fails_the_ray_comparison(monkeypatch):
    # the meet cone loses its last ray, so the ray sets disagree
    z = diagonal_tro(3)
    u, v = _d3([1.0, -1.0, 1.0]), _d3([1.0, 1.0, 1.0])
    w = meet(u, v, host=z).u
    rays = NaturalCone.diagonal_rays

    def faulty(cone):
        out = rays(cone)
        return out[:-1] if np.allclose(cone.tripotent.u, w) else out

    monkeypatch.setattr(NaturalCone, "diagonal_rays", faulty)
    want = _cone_intersection_loop(u, v, z, np.random.default_rng(2), 4)
    assert want[0] is False and np.allclose(want[1], np.diag([0, 0, 1.0]))
    _assert_same_result(cone_intersection_is_meet(u, v, z, np.random.default_rng(2), 4), want)


def test_intersection_checks_on_stacks(monkeypatch):
    # no single-matrix membership test, and as many eigen-solves for 8
    # samples per cone as for 64: at d = 2 one chunk of the stacked check
    # holds 256 matrices against two tripotents
    z = diagonal_tro(2)
    u, v = _trip(z, [1.0, -1.0]), _trip(z, [1.0, 0.0])
    assert ordering._STACK_CHUNK // (2 * 2 ** 2) >= 2 * 64
    single, solves = [], []
    membership, eigvalsh = ordering.cone_membership, np.linalg.eigvalsh
    monkeypatch.setattr(ordering, "cone_membership",
                        lambda *a: single.append(1) or membership(*a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: solves.append(1) or eigvalsh(*a))
    counts = []
    for samples in (8, 64):
        solves.clear()
        verdict = cone_intersection_is_meet(u, v, z, np.random.default_rng(1), samples)
        assert verdict == (True, None)
        counts.append(len(solves))
    assert single == []
    assert counts[0] == counts[1]


def test_ambient_dimension_zero_matches_loop():
    z = closure_from_generators([], dim=0)
    zero = Tripotent(np.zeros((0, 0), dtype=complex), is_central=True)
    x = np.zeros((0, 0), dtype=complex)
    assert cone_membership(x, zero, z) is True
    assert _cone_membership_loop(x, zero, z) is True
    for samples in (0, 3):
        _assert_same_result(cone_intersection_is_meet(zero, zero, z, samples=samples),
                            _cone_intersection_loop(zero, zero, z, samples=samples))


def test_chunks_give_the_same_table(monkeypatch, rng):
    z = direct_sum(full_matrix_tro(2), diagonal_tro(2))
    trips = enumerate_central_tripotents(z)
    ws = np.stack([tp.u for tp in trips[::4]])
    xs = np.stack([x for tp in trips[::3] for x in NaturalCone(z, tp).sample(rng, 3)]
                  + [-x for x in NaturalCone(z, trips[-1]).sample(rng, 3)])
    whole = ordering._cone_table(xs, ws, z)
    assert whole.any() and not whole.all()
    # one, three and five matrices a chunk
    for chunk in (1, 3 * len(ws) * 16, 5 * len(ws) * 16):
        monkeypatch.setattr(ordering, "_STACK_CHUNK", chunk)
        assert np.array_equal(ordering._cone_table(xs, ws, z), whole)


def test_sample_draws_the_per_sample_stream():
    for z in (diagonal_tro(3), direct_sum(full_matrix_tro(2), diagonal_tro(1)), corner_tro(2)):
        for u in enumerate_central_tripotents(z):
            cone = NaturalCone(z, u)
            rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
            got, want = cone.sample(rng_a, 5), _sample_loop(cone, rng_b, 5)
            assert len(got) == 5 and np.max(np.abs(np.array(got) - np.array(want))) <= 1e-12
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
    # a zero space draws nothing
    z = closure_from_generators([], dim=2)
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    zero = NaturalCone(z, Tripotent(np.zeros((2, 2), dtype=complex), True))
    assert np.array_equal(np.array(zero.sample(rng, 3)), np.zeros((3, 2, 2)))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("host", [lambda: diagonal_tro(3), lambda: full_matrix_tro(2),
                                  lambda: block_host(1, 2), lambda: corner_tro(2),
                                  lambda: closure_from_generators([], dim=2)],
                         ids=["D3", "M2", "M1+M2", "corner", "zero"])
def test_diagonal_rays_match_loop(host):
    z = host()
    d = z.ambient_dim
    for u in [Tripotent(np.diag(s).astype(complex), True)
              for s in ([1.0] * d, [0.0] * d, [-1.0] + [0.0] * (d - 1))]:
        cone = NaturalCone(z, u)
        try:
            want = _diagonal_rays_loop(cone)
        except ValueError:
            with pytest.raises(ValueError):
                cone.diagonal_rays()
            continue
        got = cone.diagonal_rays()
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


def _matrix_cone_loop(blocks, u, z) -> bool:
    """matrix_cone_membership with the space test one block at a time."""
    t = z.tol
    n = len(blocks)
    w = u.u if isinstance(u, Tripotent) else np.asarray(u, dtype=complex)
    if not all(z.space.contains(np.asarray(b, dtype=complex), t) for row in blocks for b in row):
        return False
    big = np.block([[np.asarray(b, dtype=complex) for b in row] for row in blocks])
    amp = np.kron(np.eye(n), w)
    if hs_norm(amp @ big @ amp - big) > t.cutoff(hs_norm(big)):
        return False
    return is_psd(amp @ big, t)


@pytest.mark.parametrize("host,u", [
    # off Z the amplified u x u = x test also fails
    (lambda: direct_sum(full_matrix_tro(2), diagonal_tro(1)), [1.0, 1.0, -1.0]),
    # u = 1 keeps u x u = x and the steps are Hermitian: only the space
    # test sees them
    (lambda: diagonal_tro(3), [1.0, 1.0, 1.0])], ids=["M2+D1", "D3"])
def test_matrix_cone_membership_matches_block_loop(rng, host, u):
    z = host()
    u = np.diag(u).astype(complex)
    off = (matrix_unit(3, 0, 2) + matrix_unit(3, 2, 0)) / np.sqrt(2.0)
    t = z.tol
    for _ in range(10):
        a = np.diag(rng.uniform(0.5, 2.0, size=3)).astype(complex) @ u
        if z.dim > 3:
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a[:2, :2] = g @ g.conj().T
        for level in (1, 2, 3):
            for f in (0.0, 0.99, 1.01, 1e3):
                # the last block moved off Z by a multiple of its cutoff
                b = a + f * t.cutoff(hs_norm(a)) * off
                blocks = [[a if i == j else 0 * a for j in range(level)] for i in range(level)]
                blocks[-1][-1] = b
                assert z.space.contains(b, t) == (f < 1.0)
                verdict = matrix_cone_membership(blocks, u, z)
                assert verdict == _matrix_cone_loop(blocks, u, z)
                if z.dim == 3:
                    assert verdict == (f < 1.0)


def _unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def _block_mask(dims):
    mask = np.zeros((sum(dims),) * 2, dtype=bool)
    s = 0
    for b in dims:
        mask[s:s + b, s:s + b] = True
        s += b
    return mask


def _sign_diag(signs, dims):
    return np.diag(np.repeat(np.asarray(signs, dtype=float), dims)).astype(complex)


def _placed_matrices(dims, signs, scale, eps, rng):
    """A cone element of the block host for the sign vector ``signs`` and
    copies of it moved just inside (factor 0.99) and just outside (1.01)
    each cutoff: the residual against Z, ``|w x w - x|`` and the Hermitian
    and eigenvalue tests of ``w x``.  Each move leaves the other criteria
    alone.  Returns (matrix, expected verdict) pairs."""
    d = sum(dims)
    starts = np.cumsum([0] + list(dims))[:-1]
    base = np.zeros((d, d), dtype=complex)
    for s, b, e in zip(starts, dims, signs):
        g = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
        base[s:s + b, s:s + b] = e * scale * (g @ g.conj().T + np.eye(b))
    # |w x| = |x|, as x vanishes where w does
    cut = eps * max(1.0, float(np.linalg.norm(base)))
    live = [i for i, e in enumerate(signs) if e != 0]
    zero = [i for i, e in enumerate(signs) if e == 0]
    twins = [(i, j) for i in live for j in live if i < j and signs[i] == signs[j]]
    out = [(base, True)]
    for f in (0.99, 1.01):
        keep = f < 1.0
        if twins:
            # a Hermitian step off Z between two blocks of equal sign
            p, q = starts[twins[0][0]], starts[twins[0][1]]
            step = np.zeros((d, d), dtype=complex)
            step[p, q] = step[q, p] = f * cut / np.sqrt(2.0)
            out.append((base + step, keep))
        if zero:
            # mass on a block where w vanishes: |w x w - x| is that mass
            s = starts[zero[0]]
            step = np.zeros((d, d), dtype=complex)
            step[s, s] = f * cut
            out.append((base + step, keep))
        if live:
            i = live[0]
            s, e, b = starts[i], signs[i], dims[i]
            # w x gains the skew part 2i * f * cut / 2
            step = np.zeros((d, d), dtype=complex)
            step[s, s] = e * 1j * f * cut / 2.0
            out.append((base + step, keep))
            if len(live) > 1 or b > 1:
                # one eigenvalue of w x just below zero, the largest one
                # elsewhere
                neg = base.copy()
                neg[s:s + b, s:s + b] = 0.0
                for j in range(1, b):
                    neg[s + j, s + j] = e * scale
                w = np.diag(np.repeat(np.asarray(signs, dtype=float), dims))
                top = float(np.max(np.abs(np.linalg.eigvalsh(w @ neg))))
                neg[s, s] = -e * f * eps * max(1.0, top)
                out.append((neg, keep))
    return out


@settings(max_examples=12, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda ds: sum(ds) <= 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_membership_matches_the_loop(dims, seed):
    rng = np.random.default_rng(seed)
    d = sum(dims)
    gens = block_host(*dims).space.basis()
    q = _unitary(rng, d)
    signs = [tuple(rng.integers(-1, 2, size=len(dims))) for _ in range(2)]
    signs += [(0,) * len(dims), (1,) * len(dims)]
    for scale in (1.0, 1e-6, 1e6):
        z = closure_from_generators([scale * q @ g @ q.conj().T for g in gens], dim=d)
        ws = np.stack([q @ _sign_diag(e, dims) @ q.conj().T for e in signs])
        xs, expect = [], []
        for e in signs:
            for x, ok in _placed_matrices(dims, e, scale, z.tol.eps, rng):
                xs.append(q @ x @ q.conj().T)
                expect.append((e, ok))
        xs = np.stack(xs)
        table = ordering._cone_table(xs, ws, z)
        loop = np.array([[_cone_membership_loop(x, w, z) for x in xs] for w in ws])
        assert np.array_equal(table, loop)
        for j, w in enumerate(ws):
            assert [cone_membership(x, w, z) for x in xs] == list(loop[j])
        # the placed matrices sit where they were meant to, in their own cone
        for i, (e, ok) in enumerate(expect):
            assert loop[signs.index(e), i] == ok


def _placed_leq_pairs(rng):
    """Pairs (a, b) with |a b a - a| just under and just over leq's bound
    eps * max(1, |a|)^2 * max(1, |b|), conjugated by a random unitary."""
    eps = 1e-9
    out = []
    for top_a, top_b in ((1.0, 1.0), (2.0, 0.5), (0.5, 3.0)):
        for f in (0.99, 1.01):
            # a b a - a = diag(top_a^2 * (b0 - 1 / top_a), 0, 0) on the first entry
            bound = eps * max(1.0, top_a) ** 2 * max(1.0, top_b)
            b0 = 1.0 / top_a + f * bound / top_a ** 2
            a = np.diag([top_a, 0.0, 0.0]).astype(complex)
            b = np.diag([b0, top_b, 0.0]).astype(complex)
            q = _unitary(rng, 3)
            out.append((q @ a @ q.conj().T, q @ b @ q.conj().T, f < 1.0))
    return out


def test_leq_table_matches_leq_per_pair(rng):
    for z in (diagonal_tro(3), direct_sum(full_matrix_tro(2), diagonal_tro(2))):
        trips = enumerate_central_tripotents(z)
        u, v = trips[4], trips[-3]
        vs = (u, v, meet(u, v, host=z))
        table = leq_table(trips, vs, z.tol)
        assert table.shape == (3, len(trips))
        assert np.array_equal(table, [[leq(c, b, z.tol) for c in trips] for b in vs])
    pairs = _placed_leq_pairs(rng)
    for a, b, below in pairs:
        assert leq(a, b) == below
        assert leq_table([a], [b])[0, 0] == below
    table = leq_table([a for a, _, _ in pairs], [b for _, b, _ in pairs])
    assert np.array_equal(table, [[leq(a, b) for a, _, _ in pairs] for _, b, _ in pairs])


def test_leq_table_in_chunks(monkeypatch):
    z = diagonal_tro(3)
    trips = enumerate_central_tripotents(z)
    whole = leq_table(trips, trips[:3])
    # four tripotents a chunk: 3 products of 3 x 3 complex matrices each
    monkeypatch.setattr("trokit.tripotents._CHUNK_BYTES", 4 * 3 * 9 * 16)
    assert np.array_equal(leq_table(trips, trips[:3]), whole)
    assert np.array_equal(leq_table(np.stack([tp.u for tp in trips]), trips[:3]), whole)
    assert leq_table([], trips[:3]).shape == (3, 0)
