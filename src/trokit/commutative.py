"""Odd function spaces over finite topological spaces with involution.

The commutative model: a finite point set with a topology, carrying an
involution tau that maps open sets to open sets.  The section space W
consists of all real functions f with ``f(tau w) = -f(w)``: one degree
of freedom per free orbit, zero at fixed points.  An open set U is
antisymmetric when it misses its own tau-image; each such U induces the
cone of sections that vanish off ``U \\cup tau(U)`` and are nonnegative
on U.  The combinatorics of these sets mirrors the ordering theory of
commutative *-TROs exactly, and :func:`embed_as_tro` realizes W as
diagonal matrices so the two classifications can be cross-checked.

Point sets are ``range(n)``; subsets are frozensets externally and
bitmasks internally.  Topologies are handled through minimal open
neighborhoods (finite spaces are Alexandrov: arbitrary intersections of
opens are open), which makes closure, interior, and boundary loop-free
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import Tolerance
from .tro import Tro, closure_from_generators

__all__ = [
    "FiniteInvolutiveSpace",
    "SectionSpace",
    "SectionCone",
    "MaximalityReport",
    "build_sections",
    "antisymmetric_open_sets",
    "cone_of_open_set",
    "recover_open_set",
    "is_maximal_antisymmetric",
    "cone_inclusion_matches_set_inclusion",
    "embed_as_tro",
    "vanishing_ideal",
    "enumerate_spaces",
]


def _mask(points: frozenset[int] | set[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _unmask(mask: int, n: int) -> frozenset[int]:
    return frozenset(p for p in range(n) if mask >> p & 1)


def _tau_mask(mask: int, tau: tuple[int, ...]) -> int:
    """The image of a set under tau, one step per point of the set;
    bits beyond the points are dropped."""
    out = 0
    mask = int(mask) & ((1 << len(tau)) - 1)
    while mask:
        low = mask & -mask
        out |= 1 << tau[low.bit_length() - 1]
        mask ^= low
    return out


@dataclass(frozen=True)
class FiniteInvolutiveSpace:
    """A finite topological space with a compatible involution.

    ``opens`` is the full family of open sets as bitmasks; ``tau`` is a
    permutation tuple with ``tau[tau[p]] == p``.  Fixed points are
    allowed; sections vanish there.  Construction validates the topology
    axioms and tau-compatibility.  Every open ``a`` is the union of the
    minimal opens ``m(p)``, ``p in a``, so a family holding the two
    trivial sets is closed under union and intersection iff it holds
    ``a | m(p)`` for every open ``a`` and point ``p``: ``O(n |opens|)``
    checks instead of one per pair of opens.
    """

    n: int
    opens: frozenset[int]
    tau: tuple[int, ...]

    def __post_init__(self) -> None:
        full = (1 << self.n) - 1
        if sorted(self.tau) != list(range(self.n)):
            raise ValueError("tau must be a permutation of the points")
        for p in range(self.n):
            if self.tau[self.tau[p]] != p:
                raise ValueError("tau must be an involution")
        if 0 not in self.opens or full not in self.opens:
            raise ValueError("a topology contains the empty set and the full set")
        for a in self.opens:
            if a & ~full:
                raise ValueError("open set outside the point range")
            if self.tau_mask(a) not in self.opens:
                raise ValueError("involution does not map opens to opens")
        minimal = []
        for p in range(self.n):
            m = full
            for a in self.opens:
                if a >> p & 1:
                    m &= a
            minimal.append(m)
        if any(a | m not in self.opens for m in minimal for a in self.opens):
            raise ValueError("family is not closed under union/intersection")
        object.__setattr__(self, "_minimal", tuple(minimal))

    @staticmethod
    def build(n: int, tau: tuple[int, ...] | list[int],
              opens: list[frozenset[int] | set[int]] | None = None,
              discrete: bool = False) -> "FiniteInvolutiveSpace":
        """Friendly constructor from explicit sets.  The empty and full
        sets are always included; the rest must come closed under union
        and intersection already."""
        t = tuple(tau)
        if discrete:
            masks = frozenset(range(1 << n))
        else:
            given = {0, (1 << n) - 1}
            for s in opens or []:
                given.add(_mask(s))
            masks = frozenset(given)
        return FiniteInvolutiveSpace(n=n, opens=masks, tau=t)

    def tau_mask(self, mask: int) -> int:
        return _tau_mask(mask, self.tau)

    def orbit_representatives(self) -> list[int]:
        """Smaller endpoint of each free orbit; fixed points carry no
        section freedom and are omitted."""
        return [p for p in range(self.n) if p < self.tau[p]]

    def minimal_open(self, p: int) -> int:
        """Intersection of all opens containing p (open in a finite space)."""
        return self._minimal[p]  # type: ignore[attr-defined]

    def interior(self, mask: int) -> int:
        out = 0
        for p in range(self.n):
            if mask >> p & 1 and (self.minimal_open(p) | mask) == mask:
                out |= 1 << p
        return out

    def closure(self, mask: int) -> int:
        full = (1 << self.n) - 1
        return full & ~self.interior(full & ~mask)

    def boundary(self, mask: int) -> int:
        return self.closure(mask) & ~mask

    def is_open(self, mask: int) -> bool:
        return mask in self.opens

    def separates_orbits(self) -> bool:
        """True when no point is topologically indistinguishable from its
        involution partner (the involution stays free after identifying
        indistinguishable points)."""
        return all(self.minimal_open(p) != self.minimal_open(self.tau[p])
                   for p in range(self.n))

    def points(self, mask: int) -> frozenset[int]:
        return _unmask(mask, self.n)


@dataclass(frozen=True)
class SectionSpace:
    """All odd sections over the space: f(tau w) = -f(w), one basis
    vector e_w - e_{tau w} per orbit (smaller endpoint first)."""

    space: FiniteInvolutiveSpace
    basis: np.ndarray  # (orbits, n)

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs, dtype=float) @ self.basis

    def is_section(self, f: np.ndarray, tol: Tolerance | float | None = None) -> bool:
        f = np.asarray(f, dtype=float)
        return self._is_odd(f, _cutoff(f, Tolerance.of(tol)))

    @cached_property
    def _tau(self) -> np.ndarray:
        return np.asarray(self.space.tau, dtype=np.intp)

    def _is_odd(self, f: np.ndarray, cut: float) -> bool:
        """``|f(tau p) + f(p)| <= cut`` at every point."""
        return bool((np.abs(f[self._tau] + f) <= cut).all())


def _cutoff(f: np.ndarray, t: Tolerance) -> float:
    """The cutoff relative to ``max|f|``, the one scale of a membership test."""
    return t.cutoff(float(np.abs(f).max()) if f.size else 0.0)


def _orbit_section(space: FiniteInvolutiveSpace, p: int) -> np.ndarray:
    """``g_p = e_p - e_{tau p}``, the generator that point p gives a cone."""
    g = np.zeros(space.n)
    g[p] = 1.0
    g[space.tau[p]] = -1.0
    return g


def build_sections(space: FiniteInvolutiveSpace) -> SectionSpace:
    reps = space.orbit_representatives()
    basis = np.zeros((len(reps), space.n))
    for k, p in enumerate(reps):
        basis[k, p] = 1.0
        basis[k, space.tau[p]] = -1.0
    return SectionSpace(space=space, basis=basis)


def antisymmetric_open_sets(space: FiniteInvolutiveSpace) -> list[frozenset[int]]:
    """All open U with U disjoint from tau(U), sorted deterministically."""
    masks = sorted(m for m in space.opens if m & space.tau_mask(m) == 0)
    return [space.points(m) for m in masks]


@dataclass(frozen=True)
class SectionCone:
    """The cone of an antisymmetric open U: sections vanishing on the
    complement of ``U \\cup tau(U)`` and nonnegative on U.  Generated by
    the orbit sections of the points of U."""

    sections: SectionSpace
    open_set: frozenset[int]

    def generators(self) -> list[np.ndarray]:
        return [_orbit_section(self.sections.space, p) for p in sorted(self.open_set)]

    def contains(self, f: np.ndarray, tol: Tolerance | float | None = None) -> bool:
        """An odd f within the cutoff of ``max|f|``, vanishing off
        ``U \\cup tau(U)`` and nonnegative on U within the same cutoff."""
        f = np.asarray(f, dtype=float)
        cut = _cutoff(f, Tolerance.of(tol))
        if not self.sections._is_odd(f, cut):
            return False
        u, off = self._support
        return not ((np.abs(f[off]) > cut).any() or (f[u] < -cut).any())

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        """The points of U, and the mask of the points off ``U \\cup tau(U)``."""
        u = np.array(sorted(self.open_set), dtype=np.intp)
        off = np.ones(self.sections.space.n, dtype=bool)
        off[u] = False
        off[self.sections._tau[u]] = False
        return u, off

    def span_dim(self) -> int:
        return len(self.open_set)


def cone_of_open_set(sections: SectionSpace, u: frozenset[int] | set[int]) -> SectionCone:
    sp = sections.space
    mask = _mask(u)
    if not sp.is_open(mask):
        raise ValueError("cone requires an open set")
    if mask & sp.tau_mask(mask):
        raise ValueError("cone requires an antisymmetric set")
    return SectionCone(sections=sections, open_set=frozenset(u))


def recover_open_set(cone: SectionCone) -> frozenset[int]:
    """Union of the strict positivity sets of the cone generators; the
    round trip U -> cone -> U is the identity."""
    out: set[int] = set()
    for g in cone.generators():
        out.update(int(p) for p in np.nonzero(g > 0)[0])
    return frozenset(out)


@dataclass(frozen=True)
class MaximalityReport:
    """Verdicts of the four maximality conditions for an antisymmetric
    open set U with residual set C = complement of U and tau(U):

    ii  : C equals the boundary of U
    iii : C equals the boundary of tau(U)
    iv  : the two boundaries agree and C has empty interior
    v   : no strictly larger antisymmetric open set contains U

    ``maximal`` is the conjunction; ``agree`` records whether all four
    conditions returned the same verdict (they can genuinely split on
    spaces where some point is indistinguishable from its partner).
    """

    conditions: dict[str, bool]
    maximal: bool
    agree: bool
    witness: frozenset[int] | None


def is_maximal_antisymmetric(space: FiniteInvolutiveSpace,
                             u: frozenset[int] | set[int]) -> MaximalityReport:
    mask = _mask(u)
    if not space.is_open(mask):
        raise ValueError("maximality is asked of open sets")
    tmask = space.tau_mask(mask)
    if mask & tmask:
        raise ValueError("maximality is asked of antisymmetric sets")
    full = (1 << space.n) - 1
    c = full & ~(mask | tmask)
    bdy_u = space.boundary(mask)
    bdy_tu = space.boundary(tmask)
    cond = {
        "ii": c == bdy_u,
        "iii": c == bdy_tu,
        "iv": bdy_u == bdy_tu and space.interior(c) == 0,
    }
    larger = None
    for o in space.opens:
        if o != mask and (o & mask) == mask and (o & space.tau_mask(o)) == 0:
            larger = o
            break
    cond["v"] = larger is None
    values = set(cond.values())
    return MaximalityReport(
        conditions=cond,
        maximal=all(cond.values()),
        agree=len(values) == 1,
        witness=space.points(larger) if larger is not None else None,
    )


def cone_inclusion_matches_set_inclusion(space: FiniteInvolutiveSpace,
                                         tol: Tolerance | float | None = None,
                                         ) -> tuple[bool, tuple | None]:
    """Over all pairs of antisymmetric opens: U1 is a subset of U2 iff
    the cone of U1 is contained in the cone of U2 (checked on the
    generators, which span the cones extremally).

    The cone of U is generated by ``g_p``, p in U, so it lies in the
    cone of V exactly when U is inside ``{p : g_p in cone(V)}``.  That
    table takes one :meth:`SectionCone.contains` per point and open
    instead of one per generator and pair; both inclusions are then
    compared for every pair at once.  Opens are numbered as
    :func:`antisymmetric_open_sets` lists them; the witness is the first
    disagreeing pair ``i < j`` in lexicographic order, as ``(U_i, U_j)``
    when that direction disagrees and as ``(U_j, U_i)`` otherwise."""
    t = Tolerance.of(tol)
    sections = build_sections(space)
    sets = antisymmetric_open_sets(space)
    cones = [cone_of_open_set(sections, u) for u in sets]
    member = np.zeros((len(sets), space.n), dtype=bool)
    for i, u in enumerate(sets):
        member[i, sorted(u)] = True
    inside = np.zeros_like(member)
    for p in np.flatnonzero(member.any(axis=0)):
        g = _orbit_section(space, int(p))
        inside[:, p] = [c.contains(g, t) for c in cones]
    set_incl = ~(member @ ~member.T)
    cone_incl = ~(member @ ~inside.T)
    wrong = set_incl != cone_incl
    pairs = np.argwhere(np.triu(wrong | wrong.T, 1))
    if not len(pairs):
        return True, None
    i, j = pairs[0]
    return False, (sets[i], sets[j]) if wrong[i, j] else (sets[j], sets[i])


def vanishing_ideal(sections: SectionSpace,
                    closed_set: frozenset[int] | set[int]) -> np.ndarray:
    """Basis (rows) of the sections vanishing on a closed symmetric set;
    these are exactly the ternary ideals of the section space when the
    topology is discrete."""
    sp = sections.space
    mask = _mask(closed_set)
    full = (1 << sp.n) - 1
    if mask & ~full:
        raise ValueError("closed set outside the point range")
    if (full & ~mask) not in sp.opens:
        raise ValueError("vanishing ideals are indexed by closed sets")
    if sp.tau_mask(mask) != mask:
        raise ValueError("vanishing ideals are indexed by symmetric sets")
    rows = [row for row in sections.basis
            if all(not (mask >> p & 1) or row[p] == 0.0 for p in range(sp.n))]
    return np.array(rows) if rows else np.zeros((0, sp.n))


def embed_as_tro(sections: SectionSpace,
                 tol: Tolerance | float | None = None) -> Tro:
    """Realize the section space as diagonal matrices: point w becomes
    the diagonal slot w, and each orbit section becomes E_ww - E_vv for
    the partner v.  The topology plays no role in the embedding; only
    the discrete space has matching cone combinatorics."""
    t = Tolerance.of(tol)
    n = sections.space.n
    gens = []
    for row in sections.basis:
        gens.append(np.diag(row.astype(complex)))
    return closure_from_generators(gens, dim=max(n, 1), tol=t)


def _preorder_topologies(n: int, tau: tuple[int, ...]) -> list[frozenset[int]]:
    """All tau-compatible topologies on n points, via minimal-open maps.

    A finite topology is determined by the assignment p -> minimal open
    m(p); validity demands p in m(p) and q in m(p) implying m(q) a
    subset of m(p).  Compatibility forces m(tau p) = tau(m(p)), so only
    orbit representatives are free; at a fixed point the minimal open
    must itself be symmetric."""
    reps = [p for p in range(n) if p <= tau[p]]
    choices: list[list[int]] = []
    for p in reps:
        opts = [m for m in range(1 << n)
                if m >> p & 1 and (p < tau[p] or _tau_mask(m, tau) == m)]
        choices.append(opts)

    topologies = []

    def assign(idx: int, minimal: dict[int, int]) -> None:
        if idx == len(reps):
            m = dict(minimal)
            for p in range(n):
                for q in range(n):
                    if m[p] >> q & 1 and (m[q] | m[p]) != m[p]:
                        return
            opens = frozenset(
                s for s in range(1 << n)
                if all(not (s >> p & 1) or (m[p] | s) == s for p in range(n)))
            topologies.append(opens)
            return
        p = reps[idx]
        for cand in choices[idx]:
            minimal[p] = cand
            minimal[tau[p]] = _tau_mask(cand, tau)
            assign(idx + 1, minimal)
        minimal.pop(p, None)
        minimal.pop(tau[p], None)

    assign(0, {})
    return topologies


def enumerate_spaces(n: int) -> list[FiniteInvolutiveSpace]:
    """Every involutive space on n points with the standard pairing
    involution (0 1)(2 3)...: all tau-compatible topologies.  n must be
    even and small; n <= 6 is the intended range."""
    if n <= 0 or n % 2:
        raise ValueError("a free involution needs a positive even point count")
    if n > 6:
        raise ValueError("exhaustive enumeration is limited to 6 points")
    tau = tuple(p + 1 if p % 2 == 0 else p - 1 for p in range(n))
    spaces = []
    for opens in _preorder_topologies(n, tau):
        spaces.append(FiniteInvolutiveSpace(n=n, opens=opens, tau=tau))
    spaces.sort(key=lambda s: (len(s.opens), sorted(s.opens)))
    return spaces
