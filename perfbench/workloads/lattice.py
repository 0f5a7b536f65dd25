"""``lattice``: the central tripotent lattice and the natural cones.

Hosts are built in set-up: the diagonal algebras D_2..D_8 and block sums
of full algebras with 2..6 summands.  The center of such a host has one
atom per summand, so its central tripotents are exactly the sign vectors
``eps in {-1, 0, 1}^c`` spread over the blocks; every expectation below is
computed from those vectors.  Library ``classify``, enumeration and the
maximal tripotents run on the hosts with up to 5 atoms; meets, the order, cone
membership and the cone-intersection check run on all of them.  The CLI
runs ``classify`` on D_2..D_4, and ``cones`` and ``meet`` on D_2..D_5.
The top rung is CLI ``classify`` on D_4: its meet-closure check is
``O(N^3)`` in ``N = 3^n`` (D_5 would take about 35 s).
"""

from __future__ import annotations

import itertools

import numpy as np

import trokit as tk

from common import Cli, Op, block_slices, block_units, is_psd, parse_rows, random_psd, \
    report_fields, report_matrix, sign_matrix, sign_meet, tro_doc, unit

BLOCK_HOSTS = ((2, 2), (1, 2, 1), (2, 1, 1, 1), (1, 1, 2, 1, 1), (1, 1, 1, 2, 1, 1))


def _signs_of(u: np.ndarray, dims: tuple[int, ...]) -> tuple[int, ...] | None:
    """The sign vector of a block-scalar matrix, or None when ``u`` is not
    block-scalar with entries in {-1, 0, 1}."""
    u = np.asarray(u, dtype=complex)
    eps = []
    mask = np.zeros(u.shape, dtype=bool)
    for s in block_slices(dims):
        val = u[s, s][0, 0].real
        e = int(round(val))
        if e not in (-1, 0, 1) or not np.allclose(u[s, s], e * np.eye(s.stop - s.start), atol=1e-7):
            return None
        mask[s, s] = True
        eps.append(e)
    if not np.allclose(u[~mask], 0, atol=1e-7):
        return None
    return tuple(eps)


def _tripotent(u: np.ndarray) -> bool:
    """u = u* = u^3, checked directly."""
    return bool(np.allclose(u, u.conj().T, atol=1e-7) and np.allclose(u @ u @ u, u, atol=1e-7))


def _all_signs(trips, dims, maximal=False) -> bool:
    c = len(dims)
    signs = [_signs_of(tp.u, dims) for tp in trips]
    if None in signs or not all(_tripotent(tp.u) for tp in trips):
        return False
    want = {e for e in itertools.product((-1, 0, 1), repeat=c) if not maximal or 0 not in e}
    return len(signs) == len(want) and set(signs) == want


def _cone_expect(x: np.ndarray, u: np.ndarray, dims: tuple[int, ...]) -> bool:
    """x lies in the cone of u: x is block diagonal, u x u = x, u x >= 0."""
    mask = np.zeros(x.shape, dtype=bool)
    for s in block_slices(dims):
        mask[s, s] = True
    if not np.allclose(x[~mask], 0):
        return False
    return bool(np.allclose(u @ x @ u, x, atol=1e-7)) and is_psd(u @ x)


def _classify_ok(info, dims) -> bool:
    c, n = len(dims), sum(b * b for b in dims)
    return (info.natural_cone_count == 3 ** c and info.maximal_cone_count == 2 ** c
            and info.center_dim == c and info.space_dim == n and not info.unorderable
            and len(info.maximal_indices) == 2 ** c and info.decomposition_dims == (n, 0))


def build(rng: np.random.Generator, check_rng: np.random.Generator, cli: Cli) -> list[Op]:
    ops: list[Op] = []
    hosts = [(f"D{n}", (1,) * n) for n in range(2, 9)]
    hosts += [(f"B{''.join(map(str, dims))}", dims) for dims in BLOCK_HOSTS]
    for name, dims in hosts:
        z = tk.closure_from_generators(block_units(dims))
        c = len(dims)
        if c <= 5:
            ops.append(Op(f"classify {name}", lambda z=z: tk.classify(z),
                          lambda info, dd=dims: _classify_ok(info, dd)))
            ops.append(Op(f"enumerate {name}", lambda z=z: tk.enumerate_central_tripotents(z),
                          lambda t, dd=dims: _all_signs(t, dd)))
            ops.append(Op(f"maximal {name}", lambda z=z: tk.maximal_central_tripotents(z),
                          lambda t, dd=dims: _all_signs(t, dd, maximal=True)))
        for k in range(3):
            a = rng.integers(-1, 2, size=c)
            b = rng.integers(-1, 2, size=c)
            # one order query in three restricts b to a sub-support, so both verdicts occur
            lo = np.where(rng.random(c) < 0.5, b, 0) if k % 2 else a
            ua = tk.Tripotent(sign_matrix(a, dims), is_central=True)
            ub = tk.Tripotent(sign_matrix(b, dims), is_central=True)
            ulo = tk.Tripotent(sign_matrix(lo, dims), is_central=True)
            want = sign_meet(a, b)
            ops.append(Op(f"meet {name} #{k}",
                          lambda ua=ua, ub=ub, z=z: tk.meet(ua, ub, host=z),
                          lambda w, dd=dims, want=want: _signs_of(w.u, dd) == tuple(want)
                          and _tripotent(w.u)))
            ops.append(Op(f"leq {name} #{k}", lambda ulo=ulo, ub=ub: tk.leq(ulo, ub),
                          lambda r, lo=lo, b=b: r == bool(np.all((lo == 0) | (lo == b)))))
            slices = block_slices(dims)
            x = np.zeros((sum(dims),) * 2, dtype=complex)
            for e, s in zip(a, slices):
                x[s, s] = e * random_psd(rng, s.stop - s.start)
            if k == 1:
                # one block with the wrong sign, or with mass where eps is 0
                j = int(rng.integers(c))
                s = slices[j]
                x[s, s] = (-a[j] if a[j] else 1) * random_psd(rng, s.stop - s.start)
            ops.append(Op(f"cone_membership {name} #{k}",
                          lambda x=x, ua=ua, z=z: tk.cone_membership(x, ua, z),
                          lambda r, x=x, ua=ua, dd=dims: r == _cone_expect(x, ua.u, dd)))
        # full support against the first half of it: the seed picks the signs
        # only, so the cone memberships this check samples, and with them its
        # call counts, are the same for every seed
        a = rng.choice((-1, 1), size=c)
        b = np.where(np.arange(c) < (c + 1) // 2, a, 0)
        ua = tk.Tripotent(sign_matrix(a, dims), is_central=True)
        ub = tk.Tripotent(sign_matrix(b, dims), is_central=True)
        sub_seed = int(rng.integers(2 ** 31))
        ops.append(Op(f"cone_intersection_is_meet {name}",
                      lambda ua=ua, ub=ub, z=z, s=sub_seed: tk.cone_intersection_is_meet(
                          ua, ub, z, rng=np.random.default_rng(s)),
                      lambda r: r[0] is True and r[1] is None))

    cli_seed = str(int(rng.integers(2 ** 31)))
    listed: dict[int, list[tuple[int, ...]]] = {}
    for n in range(2, 6):
        scale = rng.uniform(0.5, 2.0, size=n)
        path = cli.write(f"d{n}.tro", tro_doc([s * unit(n, i, i) for i, s in enumerate(scale)]))
        if n <= 4:
            ops.append(Op(f"cli classify D{n}",
                          lambda p=path: cli.call(["--seed", cli_seed, "classify", p]),
                          lambda r, n=n: _cli_classify_ok(r, n), top=n == 4, heavy=n == 4))
        ops.append(Op(f"cli cones D{n}", lambda p=path: cli.call(["--seed", cli_seed, "cones", p]),
                      lambda r, n=n: _cli_cones_ok(r, n, listed)))
        iu, iv = (int(i) for i in rng.integers(0, 3 ** n, size=2))
        ops.append(Op(f"cli meet D{n}",
                      lambda p=path, iu=iu, iv=iv: cli.call(
                          ["--seed", cli_seed, "meet", p, "--u", str(iu), "--v", str(iv)]),
                      lambda r, n=n, iu=iu, iv=iv: _cli_meet_ok(r, listed[n], iu, iv)))
    return ops


def _cli_classify_ok(result, n: int) -> bool:
    rc, text = result
    f = report_fields(text)
    return (rc == 0 and f.get("result") == "pass" and f.get("center-dim") == str(n)
            and f.get("space-dim") == str(n) and f.get("algebra-part-dim") == str(n)
            and f.get("natural-cone-count") == str(3 ** n)
            and f.get("maximal-cone-count") == str(2 ** n))


def _cli_cones_ok(result, n: int, listed: dict) -> bool:
    """Parses the listed tripotents; the meet check of the same pass
    reads them by index."""
    rc, text = result
    lines = text.splitlines()
    f = report_fields(text)
    if rc != 0 or f.get("count") != str(3 ** n):
        return False
    signs, maximal = [], 0
    for i, line in enumerate(lines):
        if line.startswith("tripotent "):
            u = parse_rows(lines[i + 1:i + 1 + n])
            e = _signs_of(u, (1,) * n)
            if e is None:
                return False
            flag = line.split()[-1] == "true"
            if flag != (0 not in e):
                return False
            maximal += flag
            signs.append(e)
    listed[n] = signs
    return len(set(signs)) == 3 ** n and maximal == 2 ** n


def _cli_meet_ok(result, signs: list, iu: int, iv: int) -> bool:
    rc, text = result
    if rc != 0 or report_fields(text).get("result") != "pass":
        return False
    n = len(signs[0])
    return _signs_of(report_matrix(text, "meet"), (1,) * n) == tuple(sign_meet(signs[iu], signs[iv]))
