"""``maps``: ternary *-morphisms, complete positivity, induced
homomorphisms, compressions and the period-two automorphism.

Hosts are built in set-up: M_3..M_5, the block sums M_2 + M_1 and
M_2 + M_2, and the rank-1 corners of M_4 and M_5; so are the maps on
them.  The morphism check runs on the identity, a random unitary
conjugation, the negation and the transpose of each M_d, and on the
conjugation of M_2 + M_2 and of each corner; complete positivity on the
same four maps of each M_d; the induced homomorphism on M_4, M_5 and
M_2 + M_2; the compression by the diagonal expectation on M_3..M_5 and
both block sums; the period-two automorphism on the corners.  The top
rung is the morphism check of the conjugation of M_5: it walks all
k^3 = 15625 basis triples.  The CLI runs ``checkmap`` on generated
identity, conjugation, negation and transpose documents over M_2 and M_3.
A pass has 47 operations; the median one falls inside the cluster of
16-19 ms operations (CLI on M_2, compressions, M_4 homomorphisms), not at
the gap below it.

Expected verdicts follow from the maps themselves: conjugation by a
unitary and negation preserve ``x y* z``; the transpose reverses it.
Identity and conjugation are completely positive.  The negation fails
positivity at level 1, and the transpose fails at level 2 (partial
transposition); each refutation's witness is checked to be positive
and its image to have a negative eigenvalue.
"""

from __future__ import annotations

import numpy as np

import trokit as tk

from common import Cli, Op, block_units, is_psd, map_doc, min_eig, random_unitary, \
    report_fields, report_matrix, unit


def _refuted_at(r, level: int) -> bool:
    if r is None or r[0] != level:
        return False
    _, witness, image = r
    return is_psd(witness) and min_eig(image) < -1e-7 * max(1.0, float(np.max(np.abs(image))))


def _hom_ok(r, u: np.ndarray | None) -> bool:
    """The induced map is well defined and multiplicative on the square;
    for a conjugation by u it is ``a -> u a u*``."""
    pi, well_defined = r
    if not well_defined:
        return False
    sq = pi.domain.space.onb
    d = sq.shape[1]

    def apply(a):
        return (pi.matrix @ a.ravel()).reshape(d, d)

    for a in sq:
        want = a if u is None else u @ a @ u.conj().T
        if not np.allclose(apply(a), want, atol=1e-7):
            return False
        for b in sq[:3]:
            if not np.allclose(apply(a @ b), apply(a) @ apply(b), atol=1e-7):
                return False
    return True


def _compress_ok(system, d: int, rng: np.random.Generator) -> bool:
    rs = system.range_space.onb
    diagonal = all(np.allclose(b, np.diag(np.diag(b)), atol=1e-9) for b in rs)
    p = np.diag(np.abs(rng.standard_normal(d))).astype(complex)
    return (diagonal and system.range_space.dim == d and system.cone_span.dim == d
            and system.cone_contains(p))


def _theta_ok(theta, z) -> bool:
    """theta^2 = id on A = Z^2 + Z, theta fixes Z^2 and negates Z."""
    t = theta.matrix

    def act(m):
        return t @ m.ravel()

    return (all(np.allclose(act(b), b.ravel(), atol=1e-7) for b in z.square.onb)
            and all(np.allclose(act(b), -b.ravel(), atol=1e-7) for b in z.space.onb)
            and all(np.allclose(t @ act(b), b.ravel(), atol=1e-7)
                    for b in theta.algebra.space.onb))


def build(rng: np.random.Generator, check_rng: np.random.Generator, cli: Cli) -> list[Op]:
    ops: list[Op] = []
    for d in (3, 4, 5):
        z = tk.closure_from_generators(block_units((d,)))
        u = random_unitary(rng, d)
        maps = {
            "id": tk.LinearMap.identity(z),
            "conj": tk.LinearMap.conjugation(z, u),
            "neg": tk.LinearMap(z, d, -np.eye(d * d, dtype=complex)),
            "transpose": tk.LinearMap.transpose_map(z),
        }
        for kind, m in maps.items():
            ops.append(Op(f"ternary {kind} M{d}", lambda m=m: tk.is_ternary_star_morphism(m),
                          lambda r, kind=kind: r == (kind != "transpose"),
                          top=d == 5 and kind == "conj", heavy=d == 5))
        for kind, m in maps.items():
            s = int(rng.integers(2 ** 31))
            want = {"neg": 1, "transpose": 2}.get(kind)
            ops.append(Op(f"cp {kind} M{d}",
                          lambda m=m, s=s: tk.cp_refutation(m, max_level=3,
                                                            rng=np.random.default_rng(s)),
                          lambda r, w=want: r is None if w is None else _refuted_at(r, w)))
        for kind, uu in (("id", None), ("conj", u)):
            if d > 3:
                ops.append(Op(f"induced_hom {kind} M{d}",
                              lambda m=maps[kind]: tk.induced_hom(m),
                              lambda r, uu=uu: _hom_ok(r, uu)))
    z = tk.closure_from_generators(block_units((2, 2)))
    u = random_unitary(rng, 4)
    m = tk.LinearMap.conjugation(z, u)
    ops.append(Op("ternary conj B(2, 2)", lambda m=m: tk.is_ternary_star_morphism(m),
                  lambda r: r is True))
    ops.append(Op("induced_hom conj B(2, 2)", lambda m=m: tk.induced_hom(m),
                  lambda r, u=u: _hom_ok(r, u)))
    for dims in ((3,), (4,), (5,), (2, 1), (2, 2)):
        n = sum(dims)
        z = tk.closure_from_generators(block_units(dims))
        e = tk.LinearMap.from_function(lambda x: np.diag(np.diag(x)), z, n)
        s = int(rng.integers(2 ** 31))
        ops.append(Op(f"compress diag {dims}",
                      lambda e=e, s=s: tk.compress(e, rng=np.random.default_rng(s)),
                      lambda r, n=n: _compress_ok(r, n, check_rng)))
    for d in (4, 5):
        v = random_unitary(rng, d)
        # the corner of the rank-1 projection v E11 v*
        z = tk.closure_from_generators([v @ unit(d, 0, j) @ v.conj().T for j in range(1, d)])
        ops.append(Op(f"automorphism corner{d}", lambda z=z: tk.period_two_automorphism(z),
                      lambda r, z=z: _theta_ok(r, z)))
        m = tk.LinearMap.conjugation(z, random_unitary(rng, d))
        ops.append(Op(f"ternary conj corner{d}", lambda m=m: tk.is_ternary_star_morphism(m),
                      lambda r: r is True))

    cli_seed = str(int(rng.integers(2 ** 31)))
    for d in (2, 3):
        units = [unit(d, i, j) for i in range(d) for j in range(d)]
        u = random_unitary(rng, d)
        images = {
            "id": units,
            "conj": [u @ x @ u.conj().T for x in units],
            "neg": [-x for x in units],
            "transpose": [x.T for x in units],
        }
        for kind, ys in images.items():
            path = cli.write(f"{kind}{d}.map", map_doc(units, list(zip(units, ys))))
            ops.append(Op(f"cli checkmap {kind} M{d}",
                          lambda p=path: cli.call(["--seed", cli_seed, "checkmap", p]),
                          lambda r, kind=kind: _cli_checkmap_ok(r, kind)))
    return ops


def _cli_checkmap_ok(result, kind: str) -> bool:
    rc, text = result
    f = report_fields(text)
    lines = set(text.splitlines())
    ternary = "check ternary-star-morphism pass" in lines
    if kind in ("id", "conj"):
        return (rc == 0 and f.get("result") == "pass" and ternary
                and "check induced-hom-well-defined pass" in lines)
    level = {"neg": 1, "transpose": 2}[kind]
    if rc != 1 or f"cp-level {level} fail" not in lines or ternary != (kind == "neg"):
        return False
    witness = report_matrix(text, "cp-witness-input")
    image = report_matrix(text, "cp-witness-image")
    return is_psd(witness) and min_eig(image) < -1e-7 * max(1.0, float(np.max(np.abs(image))))
