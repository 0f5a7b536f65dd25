"""Finite involutive spaces: sections, antisymmetric sets, maximality.

Everything here is exact integer combinatorics, which is what makes the
commutative theory a genuine oracle for the matrix-side classification
(covered by the embedding cross-checks at the bottom)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trokit import (
    FiniteInvolutiveSpace,
    SectionCone,
    Tolerance,
    antisymmetric_open_sets,
    build_sections,
    classify,
    cone_inclusion_matches_set_inclusion,
    cone_of_open_set,
    embed_as_tro,
    enumerate_spaces,
    is_maximal_antisymmetric,
    recover_open_set,
    subspace_equal,
    orthonormalize,
    vanishing_ideal,
)


def two_point_swap(discrete: bool = True) -> FiniteInvolutiveSpace:
    if discrete:
        return FiniteInvolutiveSpace.build(2, (1, 0), discrete=True)
    return FiniteInvolutiveSpace.build(2, (1, 0), opens=[])


def four_point_discrete() -> FiniteInvolutiveSpace:
    return FiniteInvolutiveSpace.build(4, (1, 0, 3, 2), discrete=True)


def test_build_validates_involution():
    with pytest.raises(ValueError):
        FiniteInvolutiveSpace.build(3, (1, 2, 0), discrete=True)  # 3-cycle
    with pytest.raises(ValueError):
        FiniteInvolutiveSpace.build(2, (0, 0), discrete=True)  # not a permutation


def test_build_validates_topology():
    # {0}, missing {1}: the swap does not map opens to opens
    with pytest.raises(ValueError):
        FiniteInvolutiveSpace.build(2, (1, 0), opens=[{0}])
    # union/intersection closure violation
    with pytest.raises(ValueError):
        FiniteInvolutiveSpace.build(4, (1, 0, 3, 2), opens=[{0, 2}, {1, 3}, {0, 3}, {1, 2}])


@st.composite
def _families(draw):
    """(n, tau, opens): an involution on 1-5 points and a family of
    subsets holding the empty and the full set.  Half the families are
    closed under union, intersection and tau before one set may be
    dropped again, so topologies and near-topologies both occur."""
    n = draw(st.integers(1, 5))
    order = draw(st.permutations(range(n)))
    swaps = draw(st.integers(0, n // 2))
    tau = list(range(n))
    for i in range(swaps):
        a, b = order[2 * i], order[2 * i + 1]
        tau[a], tau[b] = b, a
    full = (1 << n) - 1
    opens = {0, full} | set(draw(st.lists(st.integers(0, full), max_size=8)))
    if draw(st.booleans()):
        while True:
            grown = opens | {a | b for a in opens for b in opens} \
                | {a & b for a in opens for b in opens} \
                | {sum(1 << tau[p] for p in range(n) if a >> p & 1) for a in opens}
            if grown == opens:
                break
            opens = grown
        extra = sorted(opens - {0, full})
        if extra and draw(st.booleans()):
            opens.discard(draw(st.sampled_from(extra)))
    return n, tuple(tau), frozenset(opens)


@settings(max_examples=300, deadline=None)
@given(_families())
def test_topology_check_matches_pairwise_rule(family):
    n, tau, opens = family
    tau_closed = all(sum(1 << tau[p] for p in range(n) if a >> p & 1) in opens
                     for a in opens)
    pairwise = all(a | b in opens and a & b in opens for a in opens for b in opens)
    if tau_closed and pairwise:
        FiniteInvolutiveSpace(n=n, opens=opens, tau=tau)
        return
    message = ("involution does not map opens to opens" if not tau_closed
               else "family is not closed under union/intersection")
    with pytest.raises(ValueError, match=message):
        FiniteInvolutiveSpace(n=n, opens=opens, tau=tau)


def test_section_space_dimensions():
    assert build_sections(two_point_swap()).dim == 1
    assert build_sections(four_point_discrete()).dim == 2
    fixed = FiniteInvolutiveSpace.build(1, (0,), discrete=True)
    assert build_sections(fixed).dim == 0


def test_sections_are_odd():
    secs = build_sections(four_point_discrete())
    f = secs.element(np.array([2.0, -3.0]))
    assert secs.is_section(f)
    tau = secs.space.tau
    for p in range(4):
        assert f[tau[p]] == -f[p]
    assert not secs.is_section(np.array([1.0, 1.0, 0.0, 0.0]))


def test_sections_vanish_at_fixed_points():
    mixed = FiniteInvolutiveSpace.build(3, (1, 0, 2), discrete=True)
    secs = build_sections(mixed)
    assert secs.dim == 1
    for row in secs.basis:
        assert row[2] == 0.0


def test_antisymmetric_sets_two_point():
    assert [sorted(s) for s in antisymmetric_open_sets(two_point_swap())] == [[], [0], [1]]
    assert [sorted(s) for s in antisymmetric_open_sets(two_point_swap(False))] == [[]]


def test_antisymmetric_count_discrete():
    # 3^k sets and 2^k maximal ones for k free orbits, discrete topology
    for n, k in ((2, 1), (4, 2), (6, 3)):
        tau = tuple(p + 1 if p % 2 == 0 else p - 1 for p in range(n))
        sp = FiniteInvolutiveSpace.build(n, tau, discrete=True)
        sets = antisymmetric_open_sets(sp)
        assert len(sets) == 3 ** k
        maximal = [u for u in sets if is_maximal_antisymmetric(sp, u).maximal]
        assert len(maximal) == 2 ** k


def test_cone_examples():
    sp = two_point_swap()
    secs = build_sections(sp)
    cone = cone_of_open_set(secs, {1})
    # sections with f(1) >= 0
    assert cone.contains(np.array([-2.0, 2.0]))
    assert not cone.contains(np.array([2.0, -2.0]))
    assert cone.contains(np.zeros(2))

    empty = cone_of_open_set(secs, frozenset())
    assert empty.contains(np.zeros(2))
    assert not empty.contains(np.array([1.0, -1.0]))


def test_cone_span_dimension():
    sp = four_point_discrete()
    secs = build_sections(sp)
    cone = cone_of_open_set(secs, {1, 3})
    assert cone.span_dim() == 2
    assert len(cone.generators()) == 2


def test_cone_requires_open_antisymmetric():
    sp = two_point_swap(False)  # indiscrete
    secs = build_sections(sp)
    with pytest.raises(ValueError):
        cone_of_open_set(secs, {0})  # not open
    sp2 = two_point_swap()
    with pytest.raises(ValueError):
        cone_of_open_set(build_sections(sp2), {0, 1})  # meets its image


def test_recover_open_set_roundtrip():
    for sp in (two_point_swap(), four_point_discrete()):
        secs = build_sections(sp)
        for u in antisymmetric_open_sets(sp):
            assert recover_open_set(cone_of_open_set(secs, u)) == u


def test_maximality_examples_four_point():
    sp = four_point_discrete()
    r = is_maximal_antisymmetric(sp, frozenset({1}))
    assert not r.maximal
    assert r.agree  # all four conditions say no
    assert r.witness is not None and frozenset({1}) < r.witness

    r2 = is_maximal_antisymmetric(sp, frozenset({1, 3}))
    assert r2.maximal and r2.agree

    r3 = is_maximal_antisymmetric(sp, frozenset())
    assert not r3.maximal


def test_two_point_indiscrete_splits_conditions():
    # the empty set has no strictly larger antisymmetric open (v holds)
    # yet its complement is the whole space, not a boundary (ii fails):
    # the two points are topologically indistinguishable
    sp = two_point_swap(False)
    r = is_maximal_antisymmetric(sp, frozenset())
    assert r.conditions["v"]
    assert not r.conditions["ii"]
    assert not r.agree
    assert not sp.separates_orbits()


def test_four_point_indistinguishable_pair_splits_conditions():
    # one discrete orbit {0,1}; orbit {2,3} glued by the topology: every
    # open containing 2 contains 3 and conversely
    sp = FiniteInvolutiveSpace.build(
        4, (1, 0, 3, 2),
        opens=[{0}, {1}, {0, 1}, {2, 3}, {0, 2, 3}, {1, 2, 3},
               {0, 1, 2, 3}])
    assert not sp.separates_orbits()
    r = is_maximal_antisymmetric(sp, frozenset({0}))
    assert r.conditions["v"]
    assert not r.conditions["ii"]
    assert not r.agree


def test_first_three_conditions_always_agree():
    for n in (2, 4):
        for sp in enumerate_spaces(n):
            for u in antisymmetric_open_sets(sp):
                r = is_maximal_antisymmetric(sp, u)
                assert r.conditions["ii"] == r.conditions["iii"] == r.conditions["iv"]


def test_divergence_only_without_orbit_separation():
    for n in (2, 4):
        for sp in enumerate_spaces(n):
            agree = all(is_maximal_antisymmetric(sp, u).agree
                        for u in antisymmetric_open_sets(sp))
            if sp.separates_orbits():
                assert agree


def test_separating_spaces_have_nontrivial_antisymmetric_set():
    for n in (2, 4):
        for sp in enumerate_spaces(n):
            if sp.separates_orbits():
                assert any(len(u) > 0 for u in antisymmetric_open_sets(sp))


def test_cone_inclusion_matches_set_inclusion():
    for sp in (two_point_swap(), four_point_discrete(), two_point_swap(False)):
        ok, witness = cone_inclusion_matches_set_inclusion(sp)
        assert ok, witness
    for sp in enumerate_spaces(4):
        ok, witness = cone_inclusion_matches_set_inclusion(sp)
        assert ok, witness


def _is_section_loop(sections, f, t):
    """Oracle: the per-point oddness rule, ``max|f|`` taken at every point."""
    f = np.asarray(f, dtype=float)
    tau = sections.space.tau
    return all(abs(f[tau[p]] + f[p]) <= t.cutoff(float(np.max(np.abs(f))) if f.size else 0.0)
               for p in range(sections.space.n))


def _contains_loop(cone, f, t):
    """Oracle: cone membership point by point."""
    f = np.asarray(f, dtype=float)
    if not _is_section_loop(cone.sections, f, t):
        return False
    sp = cone.sections.space
    sym = set(cone.open_set) | {sp.tau[p] for p in cone.open_set}
    scale = float(np.max(np.abs(f))) if f.size else 0.0
    for p in range(sp.n):
        if p not in sym and abs(f[p]) > t.cutoff(scale):
            return False
    for p in cone.open_set:
        if f[p] < -t.cutoff(scale):
            return False
    return True


@st.composite
def _cones_and_vectors(draw):
    """(cone, f, tol) on a discrete space of 1-6 points whose involution
    may fix points but moves at least two.  f is either an arbitrary
    vector or a scaled member ``sum a_p g_p`` of the cone, ``a_p`` in
    {0, 1/2, 1}, whose value at one point q is moved by, or set to, a
    multiple of its cutoff, and at tau q then set to its negative or
    left; a value of +-cutoff lands on the oddness, support or sign
    cutoff itself."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    tau = list(range(n))
    for i in range(draw(st.integers(min(1, n // 2), n // 2))):
        a, b = order[2 * i], order[2 * i + 1]
        tau[a], tau[b] = b, a
    sections = build_sections(FiniteInvolutiveSpace.build(n, tau, discrete=True))
    u = draw(st.sampled_from(antisymmetric_open_sets(sections.space)))
    cone = cone_of_open_set(sections, u)
    t = Tolerance(draw(st.sampled_from([1e-9, 1e-3, 0.3])))
    if draw(st.booleans()):
        return cone, np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))), t
    f = np.zeros(n)
    for g in cone.generators():
        f += draw(st.sampled_from([0.0, 0.5, 1.0])) * g
    f *= draw(st.sampled_from([1.0, 1e-6, 1e6]))
    q = draw(st.sampled_from(sorted(u) + list(range(n))))
    move = draw(st.sampled_from([1.0, -1.0, 0.5, -2.0])) * t.cutoff(float(np.max(np.abs(f))))
    f[q] = move if draw(st.booleans()) else f[q] + move
    if tau[q] != q and draw(st.booleans()):
        f[tau[q]] = -f[q]
    return cone, f, t


def _on_the_cutoff(u, f):
    """A two-point case whose value sits exactly on a cutoff at tol 1e-9."""
    cone = cone_of_open_set(build_sections(two_point_swap()), frozenset(u))
    return cone, np.array(f) * 1e-9, Tolerance(1e-9)


@settings(max_examples=400, deadline=None)
@given(_cones_and_vectors())
@example(_on_the_cutoff({0}, [-1.0, 1.0]))  # sign on U
@example(_on_the_cutoff((), [1.0, -1.0]))  # support off U and tau(U)
@example(_on_the_cutoff({0}, [1.0, 0.0]))  # oddness
def test_membership_matches_per_point_loops(case):
    cone, f, t = case
    assert cone.sections.is_section(f, t) == _is_section_loop(cone.sections, f, t)
    assert cone.contains(f, t) == _contains_loop(cone, f, t)


def _pairwise_inclusion(space, tol=None):
    """Oracle: every ordered pair of antisymmetric opens, one generator
    at a time, in ``combinations`` order."""
    t = Tolerance.of(tol)
    sections = build_sections(space)
    sets = antisymmetric_open_sets(space)
    cones = [cone_of_open_set(sections, u) for u in sets]
    for (u1, c1), (u2, c2) in combinations(list(zip(sets, cones)), 2):
        for a, ca, b, cb in ((u1, c1, u2, c2), (u2, c2, u1, c1)):
            set_incl = a <= b
            cone_incl = all(cb.contains(g, t) for g in ca.generators())
            if set_incl != cone_incl:
                return False, (a, b)
    return True, None


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_inclusion_table_matches_pairwise_oracle(tol):
    for sp in enumerate_spaces(4) + enumerate_spaces(6)[::10]:
        assert cone_inclusion_matches_set_inclusion(sp, tol) == _pairwise_inclusion(sp, tol)


def _planted(monkeypatch, point, open_set=None, accept=False):
    """Make ``SectionCone.contains`` refuse the generator of ``point``
    (in every cone, or only in the cone of ``open_set``), or accept it."""
    original = SectionCone.contains

    def contains(self, f, tol=None):
        sp = self.sections.space
        is_gen = f[point] == 1.0 and f[sp.tau[point]] == -1.0 and np.count_nonzero(f) == 2
        if is_gen and (open_set is None or self.open_set == open_set):
            return accept
        return original(self, f, tol)

    monkeypatch.setattr(SectionCone, "contains", contains)


@pytest.mark.parametrize("point,open_set,accept,witness", [
    (0, None, False, ({0}, {0, 2})),
    (2, frozenset({0, 2}), False, ({2}, {0, 2})),
    (1, frozenset({0}), True, ({1}, {0})),
])
def test_planted_fault_gives_the_oracle_witness(monkeypatch, point, open_set, accept, witness):
    _planted(monkeypatch, point, open_set, accept)
    got = cone_inclusion_matches_set_inclusion(four_point_discrete())
    assert got == _pairwise_inclusion(four_point_discrete())
    assert got == (False, tuple(frozenset(u) for u in witness))


def test_refusing_any_generator_gives_the_oracle_witness(monkeypatch):
    for sp in enumerate_spaces(4):
        for point in range(sp.n):
            with monkeypatch.context() as m:
                _planted(m, point)
                assert cone_inclusion_matches_set_inclusion(sp) == _pairwise_inclusion(sp)


def test_inclusion_asks_each_cone_once_per_point(monkeypatch):
    calls = []
    original = SectionCone.contains
    monkeypatch.setattr(SectionCone, "contains",
                        lambda self, f, tol=None: calls.append(1) or original(self, f, tol))
    sp = FiniteInvolutiveSpace.build(8, tuple(p ^ 1 for p in range(8)), discrete=True)
    assert cone_inclusion_matches_set_inclusion(sp) == (True, None)
    # n * N = 8 * 81; generator by generator over every ordered pair it was 8688
    assert len(calls) <= 8 * 81


def test_vanishing_ideal_examples():
    sp = four_point_discrete()
    secs = build_sections(sp)
    assert vanishing_ideal(secs, frozenset({0, 1, 2, 3})).shape[0] == 0
    assert vanishing_ideal(secs, frozenset()).shape[0] == 2
    assert vanishing_ideal(secs, frozenset({0, 1})).shape[0] == 1


def test_vanishing_ideal_validates_input():
    sp = four_point_discrete()
    secs = build_sections(sp)
    with pytest.raises(ValueError):
        vanishing_ideal(secs, frozenset({0}))  # not symmetric
    indiscrete4 = FiniteInvolutiveSpace.build(4, (1, 0, 3, 2), opens=[])
    with pytest.raises(ValueError):
        # symmetric but not closed: the only closed sets are trivial
        vanishing_ideal(build_sections(indiscrete4), frozenset({0, 1}))
    vanishing_ideal(build_sections(indiscrete4), frozenset({0, 1, 2, 3}))


def test_vanishing_ideal_refuses_a_point_outside_the_range():
    secs = build_sections(four_point_discrete())  # tau = (1, 0, 3, 2)
    with pytest.raises(ValueError, match="closed set outside the point range"):
        vanishing_ideal(secs, frozenset({5}))


def test_vanishing_ideals_are_ternary_ideals_and_biject():
    # discrete case: closed symmetric sets correspond one to one with
    # ternary ideals of the section space, reversing inclusion
    sp = four_point_discrete()
    secs = build_sections(sp)
    closed_sets = [frozenset(), frozenset({0, 1}), frozenset({2, 3}),
                   frozenset({0, 1, 2, 3})]
    ideals = {c: vanishing_ideal(secs, c) for c in closed_sets}
    dims = {c: m.shape[0] for c, m in ideals.items()}
    assert sorted(dims.values()) == [0, 1, 1, 2]
    for c1 in closed_sets:
        for c2 in closed_sets:
            if c1 <= c2:
                assert dims[c1] >= dims[c2]
    # ternary ideal property: f g h stays inside, entrywise products
    for c, rows in ideals.items():
        for f in rows:
            for g in secs.basis:
                for h in secs.basis:
                    prod = f * g * h
                    if rows.shape[0]:
                        coeffs, *_ = np.linalg.lstsq(rows.T, prod, rcond=None)
                        assert np.allclose(rows.T @ coeffs, prod, atol=1e-12)
                    else:
                        assert np.allclose(prod, 0)


def test_embed_two_point_swap():
    secs = build_sections(two_point_swap())
    z = embed_as_tro(secs)
    assert z.dim == 1
    expected = orthonormalize([np.diag([1.0, -1.0]).astype(complex)])
    assert subspace_equal(z.space, expected)


def test_embed_fixed_point_space_is_zero():
    fixed = FiniteInvolutiveSpace.build(2, (0, 1), discrete=True)
    z = embed_as_tro(build_sections(fixed))
    assert z.dim == 0


def test_embedding_counts_match_combinatorics():
    for n in (2, 4):
        tau = tuple(p + 1 if p % 2 == 0 else p - 1 for p in range(n))
        sp = FiniteInvolutiveSpace.build(n, tau, discrete=True)
        sets = antisymmetric_open_sets(sp)
        maximal = [u for u in sets if is_maximal_antisymmetric(sp, u).maximal]
        info = classify(embed_as_tro(build_sections(sp)))
        assert info.natural_cone_count == len(sets)
        assert info.maximal_cone_count == len(maximal)


def test_enumerate_spaces_counts_and_validity():
    assert len(enumerate_spaces(2)) == 2  # indiscrete and discrete
    spaces4 = enumerate_spaces(4)
    assert len(spaces4) == 19
    for sp in spaces4[:5]:
        for a in sp.opens:
            assert sp.tau_mask(a) in sp.opens
    with pytest.raises(ValueError):
        enumerate_spaces(3)
    with pytest.raises(ValueError):
        enumerate_spaces(8)
