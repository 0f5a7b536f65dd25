"""``commutative``: finite involutive spaces and their odd sections.

Inputs: the discrete spaces on 4, 6 and 8 points with a free involution,
all 19 spaces of ``enumerate_spaces(4)`` and every 20th of the 427 spaces
of ``enumerate_spaces(6)``.  The seed relabels the points of each space,
so the documents differ from seed to seed while the work does not.  The
CLI runs ``commutative`` on every space; the library runs the maximality
table, the cone/set inclusion check and, on the discrete spaces with 4
and 6 points, ``embed_as_tro`` followed by ``classify``.  The top rung is
the CLI on the discrete space with 8 points, whose ``O(4^n)`` open-set
validation and 3^8 enumeration codes dominate.

The expectations are counted by brute force over the list of open sets:
interiors are unions of the opens inside a set, and the four maximality
conditions are evaluated from their definitions.  A discrete space with
2m points has 3^m antisymmetric opens and 2^m maximal ones.
"""

from __future__ import annotations

import re

import numpy as np

import trokit as tk

from common import Cli, Op, report_fields

SET_LINE = re.compile(r"^set \d+ \{([^}]*)\} (.*)$")


class BruteForce:
    """Maximality conditions of every antisymmetric open, from the opens."""

    def __init__(self, n: int, tau: tuple[int, ...], opens: set[int]) -> None:
        self.n, self.tau, self.opens = n, tau, opens
        self.full = (1 << n) - 1

    def tau_mask(self, m: int) -> int:
        return sum(1 << self.tau[p] for p in range(self.n) if m >> p & 1)

    def interior(self, s: int) -> int:
        out = 0
        for o in self.opens:
            if o & ~s == 0:
                out |= o
        return out

    def boundary(self, s: int) -> int:
        closure = self.full & ~self.interior(self.full & ~s)
        return closure & ~s

    def antisymmetric(self) -> list[int]:
        return [o for o in self.opens if o & self.tau_mask(o) == 0]

    def conditions(self) -> dict[frozenset[int], dict[str, bool]]:
        anti = self.antisymmetric()
        out = {}
        for u in anti:
            tu = self.tau_mask(u)
            c = self.full & ~(u | tu)
            bu, btu = self.boundary(u), self.boundary(tu)
            out[self.points(u)] = {
                "ii": c == bu,
                "iii": c == btu,
                "iv": bu == btu and self.interior(c) == 0,
                "v": not any(o != u and o & u == u for o in anti),
            }
        return out

    def points(self, m: int) -> frozenset[int]:
        return frozenset(p for p in range(self.n) if m >> p & 1)


def _relabel(n: int, tau: tuple[int, ...], opens, perm) -> tuple[tuple[int, ...], set[int]]:
    new_tau = [0] * n
    for p in range(n):
        new_tau[perm[p]] = perm[tau[p]]
    new_opens = {sum(1 << perm[p] for p in range(n) if m >> p & 1) for m in opens}
    return tuple(new_tau), new_opens


def _doc(n: int, tau, opens: set[int], discrete: bool) -> str:
    lines = ["kind: commutative", f"points: {n}", "tau: " + " ".join(map(str, tau))]
    if discrete:
        lines.append("topology: discrete")
    else:
        full = (1 << n) - 1
        for m in sorted(opens):
            if m not in (0, full):
                lines.append("open: " + " ".join(str(p) for p in range(n) if m >> p & 1))
    return "\n".join(lines) + "\n"


CONDITIONS = ("ii", "iii", "iv", "v")


def _cli_ok(result, expect: dict, half: int | None) -> bool:
    """``half`` is m for the discrete space on 2m points, else None."""
    rc, text = result
    f = report_fields(text)
    table = {}
    for line in text.splitlines():
        m = SET_LINE.match(line)
        if m:
            pts = frozenset(int(p) for p in m.group(1).split())
            toks = dict(zip(m.group(2).split()[::2], m.group(2).split()[1::2]))
            table[pts] = {c: toks[c] == "true" for c in CONDITIONS}
    maximal = sum(all(c.values()) for c in expect.values())
    ok = (rc == 0 and f.get("result") == "pass" and table == expect
          and f.get("antisymmetric-count") == str(len(expect))
          and f.get("maximal-count") == str(maximal))
    if half is not None:
        ok = ok and (len(expect) == 3 ** half and maximal == 2 ** half
                     and f.get("embedded-cone-count") == str(3 ** half)
                     and f.get("embedded-maximal-count") == str(2 ** half))
    return ok


def _table_ok(reports, expect: dict) -> bool:
    return all(rep.conditions == conds and rep.maximal == all(conds.values())
               for rep, conds in zip(reports, expect.values()))


def build(rng: np.random.Generator, check_rng: np.random.Generator, cli: Cli) -> list[Op]:
    ops: list[Op] = []
    spaces = []
    for n in (4, 6, 8):
        tau = tuple(p + 1 if p % 2 == 0 else p - 1 for p in range(n))
        spaces.append((f"disc{n}", n, tau, set(range(1 << n)), True))
    small = tk.enumerate_spaces(4)
    large = tk.enumerate_spaces(6)[::20]
    for i, s in enumerate(small + large):
        spaces.append((f"space{s.n}-{i}", s.n, s.tau, set(s.opens), False))

    for i, (name, n, tau, opens, discrete) in enumerate(spaces):
        tau, opens = _relabel(n, tau, opens, rng.permutation(n))
        expect = BruteForce(n, tau, opens).conditions()
        path = cli.write(f"{name}.cfs", _doc(n, tau, opens, discrete))
        ops.append(Op(f"cli commutative {name}",
                      lambda p=path: cli.call(["commutative", p]),
                      lambda r, e=expect, h=n // 2 if discrete else None: _cli_ok(r, e, h),
                      top=name == "disc8", heavy=name == "disc8"))
        if discrete or i % 4 == 0:
            space = tk.FiniteInvolutiveSpace(n=n, opens=frozenset(opens), tau=tau)
            ops.append(Op(f"maximality {name}",
                          lambda sp=space, us=list(expect): [
                              tk.is_maximal_antisymmetric(sp, u) for u in us],
                          lambda r, e=expect: _table_ok(r, e)))
            ops.append(Op(f"inclusion {name}",
                          lambda sp=space: tk.cone_inclusion_matches_set_inclusion(sp),
                          lambda r: r == (True, None)))
        if discrete and n <= 6:
            m = n // 2
            sections = tk.build_sections(tk.FiniteInvolutiveSpace.build(n, tau, discrete=True))
            ops.append(Op(f"embed+classify {name}",
                          lambda s=sections: tk.classify(tk.embed_as_tro(s)),
                          lambda info, m=m: info.natural_cone_count == 3 ** m
                          and info.maximal_cone_count == 2 ** m and info.center_dim == m))
    return ops
