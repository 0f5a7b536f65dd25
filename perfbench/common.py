"""Shared pieces of the workloads: the operation record, independent
numpy checks, generated input documents and in-process CLI calls.

Every check here is computed with plain numpy or from the definitions,
never by asking trokit a second time.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import trokit.cli

# absolute slack for the numpy checks; trokit decides at 1e-9 relative
CHECK_TOL = 1e-7


@dataclass
class Op:
    """One timed call into trokit and the check of its output.

    ``top`` marks the workload's top rung.  ``heavy`` operations are left
    out of the quick mode.  ``known_fault`` marks an operation that fails
    today because of a fault in trokit; its failure is counted in
    ``failed`` and does not make the run incorrect.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    top: bool = False
    heavy: bool = False
    known_fault: bool = False


def unit(d: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def block_units(dims: tuple[int, ...]) -> list[np.ndarray]:
    """Matrix units of each diagonal block of ``M_d1 + ... + M_dc``."""
    d = sum(dims)
    gens, off = [], 0
    for b in dims:
        gens += [unit(d, off + i, off + j) for i in range(b) for j in range(b)]
        off += b
    return gens


def block_slices(dims: tuple[int, ...]) -> list[slice]:
    out, off = [], 0
    for b in dims:
        out.append(slice(off, off + b))
        off += b
    return out


def sign_matrix(eps, dims: tuple[int, ...]) -> np.ndarray:
    """The central element that is ``eps[i]`` times the unit of block i."""
    return np.diag(np.repeat(np.asarray(eps, dtype=float), dims)).astype(complex)


def sign_meet(a, b) -> np.ndarray:
    a, b = np.asarray(a), np.asarray(b)
    return np.where(a == b, a, 0)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a @ a.conj().T + np.eye(d)


def min_eig(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def is_psd(m: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(m))))
    h = (m + m.conj().T) / 2
    return bool(np.allclose(m, h, atol=CHECK_TOL * scale)) and min_eig(h) >= -CHECK_TOL * scale


def orthonormal_rows(onb: np.ndarray) -> np.ndarray | None:
    """The vectorized basis if its rows are orthonormal, else None."""
    k = onb.shape[0]
    v = onb.reshape(k, -1)
    if not np.allclose(v.conj() @ v.T, np.eye(k), atol=CHECK_TOL):
        return None
    return v


def span_residual(v: np.ndarray, m: np.ndarray) -> float:
    """Distance of ``m`` from the span of the orthonormal rows ``v``,
    relative to the norm of ``m``."""
    x = np.asarray(m, dtype=complex).ravel()
    r = x - (v.conj() @ x) @ v if v.shape[0] else x
    return float(np.linalg.norm(r)) / max(1.0, float(np.linalg.norm(x)))


def ternary_closed(onb: np.ndarray, rng: np.random.Generator, trials: int = 3) -> bool:
    """``x y* z`` and ``x*`` stay in the span for random x, y, z of it."""
    v = orthonormal_rows(onb)
    if v is None:
        return False
    k, d = onb.shape[0], onb.shape[1]
    if k == 0:
        return True

    def elem() -> np.ndarray:
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return (c @ v).reshape(d, d)

    for _ in range(trials):
        x, y, z = elem(), elem(), elem()
        if span_residual(v, x @ y.conj().T @ z) > CHECK_TOL:
            return False
        if span_residual(v, x.conj().T) > CHECK_TOL:
            return False
    return True


def tro_doc(gens: list[np.ndarray]) -> str:
    d = gens[0].shape[0]
    lines = ["kind: tro", f"dim: {d}"]
    for g in gens:
        lines.append("generator:")
        lines += matrix_rows(g)
    return "\n".join(lines) + "\n"


def map_doc(gens: list[np.ndarray], pairs: list[tuple[np.ndarray, np.ndarray]]) -> str:
    lines = ["kind: map", f"dim: {gens[0].shape[0]}", f"codim: {pairs[0][1].shape[0]}"]
    for g in gens:
        lines.append("generator:")
        lines += matrix_rows(g)
    for x, y in pairs:
        lines.append("pair:")
        lines += matrix_rows(x)
        lines.append("maps-to:")
        lines += matrix_rows(y)
    return "\n".join(lines) + "\n"


def matrix_rows(m: np.ndarray) -> list[str]:
    return [" ".join(f"[{float(v.real)!r},{float(v.imag)!r}]" for v in row)
            for row in np.asarray(m, dtype=complex)]


def parse_rows(rows: list[str]) -> np.ndarray:
    out = []
    for row in rows:
        vals = []
        for tok in row.split():
            re, im = tok.strip("[]").split(",")
            vals.append(complex(float(re), float(im)))
        out.append(vals)
    return np.array(out, dtype=complex)


def report_fields(text: str) -> dict[str, str]:
    """``key value`` lines of a CLI report; the first occurrence wins."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        out.setdefault(key, rest)
    return out


def report_matrix(text: str, label: str) -> np.ndarray:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"matrix {label} dim "):
            n = int(line.split()[-1])
            return parse_rows(lines[i + 1:i + 1 + n])
    raise ValueError(f"report has no matrix {label}")


class Cli:
    """Runs ``trokit.cli.main`` in-process on documents written under
    one directory of the checkout."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory

    def write(self, name: str, text: str) -> str:
        path = self.directory / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    @staticmethod
    def call(args: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = trokit.cli.main(args)
        return rc, buf.getvalue()
