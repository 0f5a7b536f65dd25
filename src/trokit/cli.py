"""Command line front end.

Commands operate on line-oriented structured text documents (``#``
starts a comment, blank lines are ignored).  Complex numbers are always
``[re,im]`` pairs; a matrix is given as one line per row with one pair
per column.  Three document kinds exist:

kind: tro          ternary space from generators
    dim: <n>       at most MAX_DIM = 12
    generator:     followed by <dim> matrix rows (repeatable)

kind: commutative  finite involutive space
    points: <n>    at most MAX_DIM = 12
    tau: <p0 p1 ...>            images, zero-based
    topology: discrete          or explicit open sets:
    open: <p p ...>             (empty/full set implied; repeatable)

kind: map          linear map between matrix spaces
    dim: <n>       codim: <m>      each at most MAX_DIM = 12
    generator:     domain generators, as for tro
    pair:          <dim> rows of the input, then
    maps-to:       <codim> rows of the image (repeatable)

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 all checks
pass, 1 a mathematical check was refuted, 2 malformed input or usage.
Reports are byte-identical given identical input, seed, and tolerance.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, field

import numpy as np

from .commutative import (
    FiniteInvolutiveSpace,
    antisymmetric_open_sets,
    build_sections,
    cone_inclusion_matches_set_inclusion,
    cone_of_open_set,
    embed_as_tro,
    is_maximal_antisymmetric,
    recover_open_set,
)
from .linalg import Tolerance, adjoint, as_matrix
from .morphisms import LinearMap, _morphism_pass, cp_refutation
from .ordering import classify
from .tripotents import (
    BlockCapError,
    Tripotent,
    _certified_atoms,
    _sign_chunks,
    _sign_stack,
    leq,
    leq_table,
    meet,
)
from .tro import Tro, TroError, closure_from_generators

__all__ = ["main", "InputDocument", "ParseError", "parse_document", "format_matrix"]

# the closure holds chunks of up to dim^6 complex entries: closing M_12
# took 9-10 s at 270 MB peak resident on one thread of a 2-core Xeon VM.
# The discrete space on n points has 2^n opens: CLI commutative took
# 0.13 s at 40 MB on 10 points and 0.5 s at 49 MB on 12, on the same VM.
# Above 12 points its embedded classify would split into more blocks
# than --max-blocks allows, so one cap serves all three document kinds
MAX_DIM = 12


class ParseError(ValueError):
    def __init__(self, line: int, msg: str) -> None:
        super().__init__(f"line {line}: {msg}" if line > 0 else msg)
        self.line = line


@dataclass
class InputDocument:
    kind: str
    dim: int = 0
    codim: int = 0
    generators: list[np.ndarray] = field(default_factory=list)
    pairs: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    points: int = 0
    tau: tuple[int, ...] = ()
    opens: list[frozenset[int]] = field(default_factory=list)
    discrete: bool = False


def _parse_pair_row(text: str, line_no: int, width: int) -> list[complex]:
    entries = []
    chunks = text.split()
    for chunk in chunks:
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise ParseError(line_no, f"expected [re,im] pair, got {chunk!r}")
        body = chunk[1:-1]
        parts = body.split(",")
        if len(parts) != 2:
            raise ParseError(line_no, f"expected two comma-separated reals in {chunk!r}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ParseError(line_no, f"bad number in {chunk!r}: {exc}") from None
        entries.append(complex(re, im))
    if len(entries) != width:
        raise ParseError(line_no, f"expected {width} entries per row, got {len(entries)}")
    return entries


def _lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((i, stripped))
    return out


def parse_document(text: str) -> InputDocument:
    lines = _lines(text)
    if not lines:
        raise ParseError(0, "empty document")
    pos = 0

    def take() -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(lines[-1][0], "unexpected end of document")
        item = lines[pos]
        pos += 1
        return item

    def read_matrix(dim: int) -> np.ndarray:
        rows = []
        for _ in range(dim):
            no, text_row = take()
            rows.append(_parse_pair_row(text_row, no, dim))
        return np.array(rows, dtype=complex)

    no, first = take()
    if not first.startswith("kind:"):
        raise ParseError(no, "document must start with 'kind:'")
    kind = first.split(":", 1)[1].strip()
    if kind not in ("tro", "commutative", "map"):
        raise ParseError(no, f"unknown kind {kind!r}")
    doc = InputDocument(kind=kind)

    while pos < len(lines):
        no, line = take()
        if ":" not in line:
            raise ParseError(no, f"expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        try:
            if key in ("dim", "codim", "points"):
                size = int(value)
                if size > MAX_DIM:
                    raise ParseError(no, f"'{key}' {size} exceeds the cap {MAX_DIM}")
                setattr(doc, key, size)
            elif key == "tau":
                doc.tau = tuple(int(v) for v in value.split())
            elif key == "topology":
                if value != "discrete":
                    raise ParseError(no, f"unknown topology shorthand {value!r}")
                doc.discrete = True
            elif key == "open":
                doc.opens.append(frozenset(int(v) for v in value.split()))
            elif key == "generator":
                if doc.dim <= 0:
                    raise ParseError(no, "'dim' must be given before generators")
                doc.generators.append(read_matrix(doc.dim))
            elif key == "pair":
                if doc.dim <= 0 or doc.codim <= 0:
                    raise ParseError(no, "'dim' and 'codim' must precede pairs")
                x = read_matrix(doc.dim)
                no2, marker = take()
                if marker != "maps-to:":
                    raise ParseError(no2, "expected 'maps-to:' after the pair input")
                y = read_matrix(doc.codim)
                doc.pairs.append((x, y))
            else:
                raise ParseError(no, f"unknown key {key!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(no, str(exc)) from None

    if doc.kind in ("tro", "map") and doc.dim <= 0:
        raise ParseError(0, "'dim' is required")
    if doc.kind == "map" and doc.codim <= 0:
        raise ParseError(0, "'codim' is required")
    if doc.kind == "commutative":
        if doc.points <= 0:
            raise ParseError(0, "'points' is required")
        if len(doc.tau) != doc.points:
            raise ParseError(0, "'tau' must list an image for every point")
    return doc


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize negative zero
    return format(x, ".12g")


class _Pairs(dict):
    """The ``[re,im]`` text of each pair of entry parts, formatted the
    first time the pair is met."""

    def __missing__(self, key: tuple[float, float]) -> str:
        text = self[key] = f"[{key[0]:.12g},{key[1]:.12g}]"
        return text


def _format_stack(ms: np.ndarray, tol: Tolerance | float | None = None) -> list[str]:
    """The rows of every matrix of an (n, d, d) stack, ``n * d`` lines as
    :func:`format_matrix` prints them.  Each matrix has its own cutoff;
    each distinct pair of parts is formatted once."""
    n, d = len(ms), ms.shape[-1]
    cut = Tolerance.of(tol).eps * np.fmax(1.0, np.abs(ms).max(axis=(1, 2), initial=0.0))
    cut = cut[:, None, None]
    # Python floats format faster than numpy scalars; + 0.0 as in _fmt
    re = (np.where(np.abs(ms.real) <= cut, 0.0, ms.real) + 0.0).reshape(n * d, d).tolist()
    im = (np.where(np.abs(ms.imag) <= cut, 0.0, ms.imag) + 0.0).reshape(n * d, d).tolist()
    text = _Pairs().__getitem__
    return [" ".join(map(text, zip(ra, ia))) for ra, ia in zip(re, im)]


def format_matrix(m: np.ndarray, tol: Tolerance | float | None = None) -> list[str]:
    """Rows of ``[re,im]`` pairs.  A real or imaginary part at or below
    ``tol.cutoff`` of the largest entry modulus is rounding noise and
    prints as 0."""
    return _format_stack(as_matrix(m)[None], tol)


class Report:
    def __init__(self, command: str, digest: str, tol: Tolerance, seed: int) -> None:
        self.lines: list[str] = [
            f"trokit-report {command}",
            f"input {digest}",
            f"tol {_fmt(tol.eps)}",
            f"seed {seed}",
        ]
        self.tol = tol
        self.failed = False

    def line(self, text: str) -> None:
        self.lines.append(text)

    def check(self, name: str, ok: bool) -> None:
        self.lines.append(f"check {name} {'pass' if ok else 'fail'}")
        if not ok:
            self.failed = True

    def matrix(self, label: str, m: np.ndarray) -> None:
        self.lines.append(f"matrix {label} dim {m.shape[0]}")
        self.lines.extend(format_matrix(m, self.tol))

    def flush(self) -> None:
        """Write the lines so far to stdout, so a long report streams."""
        if self.lines:
            sys.stdout.write("\n".join(self.lines) + "\n")
            self.lines = []

    def emit(self) -> int:
        self.lines.append(f"result {'fail' if self.failed else 'pass'}")
        self.flush()
        return 1 if self.failed else 0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _load(path: str) -> tuple[InputDocument, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc}") from None
    return parse_document(text), _digest(text)


def _build_tro(doc: InputDocument, tol: Tolerance) -> Tro:
    return closure_from_generators(doc.generators, dim=doc.dim, tol=tol)


def _set_str(s: frozenset[int]) -> str:
    return "{" + " ".join(str(p) for p in sorted(s)) + "}"


def cmd_classify(doc: InputDocument, digest: str, tol: Tolerance, seed: int,
                 max_blocks: int) -> int:
    z = _build_tro(doc, tol)
    rep = Report("classify", digest, tol, seed)
    info = classify(z, max_blocks=max_blocks)
    rep.line(f"ambient-dim {info.ambient_dim}")
    rep.line(f"space-dim {info.space_dim}")
    rep.line(f"square-dim {info.square_dim}")
    rep.line(f"algebra-part-dim {info.algebra_part_dim}")
    rep.line(f"center-dim {info.center_dim}")
    rep.line(f"block-count {info.block_count}")
    rep.line(f"natural-cone-count {info.natural_cone_count}")
    rep.line(f"maximal-cone-count {info.maximal_cone_count}")
    rep.line(f"unorderable {'true' if info.unorderable else 'false'}")
    rep.line(f"maximal-indices {' '.join(str(i) for i in info.maximal_indices)}".rstrip())
    rep.line(f"decomposition-dims {info.decomposition_dims[0]} {info.decomposition_dims[1]}")
    rep.check("negation-closure", info.negation_closed)
    rep.check("meet-closure", info.meet_closed)
    counts_ok = info.natural_cone_count == 3 ** info.center_dim
    rep.check("count-is-power-of-three", counts_ok)
    return rep.emit()


def cmd_cones(doc: InputDocument, digest: str, tol: Tolerance, seed: int,
              max_blocks: int) -> int:
    z = _build_tro(doc, tol)
    atoms = _certified_atoms(z, max_blocks)
    signs = atoms.sorted_signs()
    rep = Report("cones", digest, tol, seed)
    rep.line(f"count {len(signs)}")
    # the atoms are certified, so nothing below refuses: print as it goes
    d, i = z.ambient_dim, 0
    for chunk in _sign_chunks(z, signs):
        rows = _format_stack(_sign_stack(z, atoms, chunk), tol)
        # the one zero tripotent of a trivial center is not maximal
        for k, full in enumerate((chunk.all(axis=1) & bool(atoms.count)).tolist()):
            rep.line(f"tripotent {i} maximal {'true' if full else 'false'}")
            rep.lines.extend(rows[k * d:(k + 1) * d])
            i += 1
        rep.flush()
    return rep.emit()


def cmd_meet(doc: InputDocument, digest: str, tol: Tolerance, seed: int,
             max_blocks: int, iu: int, iv: int) -> int:
    z = _build_tro(doc, tol)
    atoms = _certified_atoms(z, max_blocks)
    signs = atoms.sorted_signs()
    if not (0 <= iu < len(signs) and 0 <= iv < len(signs)):
        raise ParseError(0, f"indices must lie in [0, {len(signs) - 1}]")
    rep = Report("meet", digest, tol, seed)
    u, v = (Tripotent(x, True) for x in _sign_stack(z, atoms, signs[[iu, iv]]))
    w = meet(u, v, host=z)
    rep.line(f"index-u {iu}")
    rep.line(f"index-v {iv}")
    rep.matrix("meet", w.u)
    rep.check("meet-is-central-tripotent", w.is_central)
    rep.check("meet-leq-u", leq(w, u, tol))
    rep.check("meet-leq-v", leq(w, v, tol))
    # checked against every tripotent's matrix, not its sign vector, so
    # the check does not assume the meet formula it tests
    tables = (leq_table(_sign_stack(z, atoms, chunk), (u, v, w), tol)
              for chunk in _sign_chunks(z, signs))
    rep.check("meet-is-greatest-lower-bound",
              all(bool(np.all(bw | ~(bu & bv))) for bu, bv, bw in tables))
    return rep.emit()


def cmd_commutative(doc: InputDocument, digest: str, tol: Tolerance, seed: int,
                    max_blocks: int) -> int:
    try:
        space = FiniteInvolutiveSpace.build(doc.points, doc.tau, opens=doc.opens,
                                            discrete=doc.discrete)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None
    rep = Report("commutative", digest, tol, seed)
    sections = build_sections(space)
    sets = antisymmetric_open_sets(space)
    rep.line(f"points {space.n}")
    rep.line(f"free-orbits {sections.dim}")
    rep.line(f"section-dim {sections.dim}")
    rep.line(f"opens-count {len(space.opens)}")
    rep.line(f"antisymmetric-count {len(sets)}")
    maximal_count = 0
    agreement = True
    for i, u in enumerate(sets):
        verdict = is_maximal_antisymmetric(space, u)
        if verdict.maximal:
            maximal_count += 1
        if not verdict.agree:
            agreement = False
        conds = " ".join(f"{k} {'true' if v else 'false'}"
                         for k, v in verdict.conditions.items())
        rep.line(f"set {i} {_set_str(u)} {conds} "
                 f"agree {'true' if verdict.agree else 'false'} "
                 f"maximal {'true' if verdict.maximal else 'false'}")
    rep.line(f"maximal-count {maximal_count}")
    rep.line(f"separates-orbits {'true' if space.separates_orbits() else 'false'}")
    rep.line(f"conditions-agree-everywhere {'true' if agreement else 'false'}")
    roundtrip = all(recover_open_set(cone_of_open_set(sections, u)) == u for u in sets)
    rep.check("roundtrip-identity", roundtrip)
    incl_ok, _ = cone_inclusion_matches_set_inclusion(space, tol)
    rep.check("inclusion-equivalence", incl_ok)
    if space.opens == frozenset(range(1 << space.n)):
        z = embed_as_tro(sections, tol)
        info = classify(z, max_blocks=max_blocks)
        rep.line(f"embedded-cone-count {info.natural_cone_count}")
        rep.line(f"embedded-maximal-count {info.maximal_cone_count}")
        rep.check("embedding-crossval",
                  info.natural_cone_count == len(sets)
                  and info.maximal_cone_count == maximal_count)
    else:
        rep.line("embedding-crossval skipped-non-discrete")
    return rep.emit()


def cmd_checkmap(doc: InputDocument, digest: str, tol: Tolerance, seed: int,
                 max_level: int) -> int:
    z = _build_tro(doc, tol)
    rep = Report("checkmap", digest, tol, seed)
    try:
        t_map = LinearMap.from_pairs(z, doc.codim, doc.pairs)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None
    rep.line(f"domain-dim {z.dim}")
    rep.line(f"codomain-dim {doc.codim}")
    selfadjoint, well_defined, ternary = _morphism_pass(t_map)
    rep.check("ternary-star-morphism", ternary)
    rep.check("selfadjoint-map", selfadjoint)
    rng = np.random.default_rng(seed)
    refutation = cp_refutation(t_map, max_level=max_level, rng=rng)
    if refutation is None:
        for level in range(1, max_level + 1):
            rep.line(f"cp-level {level} pass")
        rep.check("completely-positive-up-to-%d" % max_level, True)
    else:
        level, witness, image = refutation
        for k in range(1, level):
            rep.line(f"cp-level {k} pass")
        rep.line(f"cp-level {level} fail")
        eigs = np.linalg.eigvalsh((image + adjoint(image)) / 2.0)
        rep.line(f"witness-min-eigenvalue {_fmt(float(eigs[0]))}")
        rep.matrix("cp-witness-input", witness)
        rep.matrix("cp-witness-image", image)
        rep.check("completely-positive-up-to-%d" % max_level, False)
    if ternary:
        rep.check("induced-hom-well-defined", well_defined)
    return rep.emit()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trokit",
        description="ordering toolkit for selfadjoint ternary matrix spaces")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="relative tolerance (default 1e-9)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks (default 0)")
    parser.add_argument("--max-level", type=int, default=3,
                        help="matrix level cap for positivity checks (max 4)")
    parser.add_argument("--max-blocks", type=int, default=12,
                        help="joint eigenblock cap for enumeration (max 12)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "cones", "commutative", "checkmap"):
        s = sub.add_parser(name)
        s.add_argument("file")
    s = sub.add_parser("meet")
    s.add_argument("file")
    s.add_argument("--u", type=int, required=True, help="index of the first tripotent")
    s.add_argument("--v", type=int, required=True, help="index of the second tripotent")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if not (0 < args.max_level <= 4):
        print("error: --max-level must lie in 1..4", file=sys.stderr)
        return 2
    if not (0 < args.max_blocks <= 12):
        print("error: --max-blocks must lie in 1..12", file=sys.stderr)
        return 2
    try:
        tol = Tolerance(args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        doc, digest = _load(args.file)
        expected = {"classify": "tro", "cones": "tro", "meet": "tro",
                    "commutative": "commutative", "checkmap": "map"}
        if doc.kind != expected[args.command]:
            raise ParseError(0, f"command {args.command} needs kind "
                                f"{expected[args.command]}, got {doc.kind}")
        if args.command == "classify":
            return cmd_classify(doc, digest, tol, args.seed, args.max_blocks)
        if args.command == "cones":
            return cmd_cones(doc, digest, tol, args.seed, args.max_blocks)
        if args.command == "meet":
            return cmd_meet(doc, digest, tol, args.seed, args.max_blocks, args.u, args.v)
        if args.command == "commutative":
            return cmd_commutative(doc, digest, tol, args.seed, args.max_blocks)
        if args.command == "checkmap":
            return cmd_checkmap(doc, digest, tol, args.seed, args.max_level)
        raise AssertionError("unreachable")
    except (ParseError, TroError, BlockCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
