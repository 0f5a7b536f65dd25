"""Golden reports: the stdout of ``classify``, ``cones``, ``meet``,
``commutative`` and ``checkmap``, compared byte for byte with committed
expectations.

The hosts are every ``.tro`` fixture plus the ``.tro`` documents in
``golden/inputs`` (D_4, D_5, D_6, the block host M_1+M_1+M_2+M_1+M_1
and unitary conjugations of D_3 and of M_2+M_1+M_1).  ``meet`` runs on
two index pairs per host, taken from the tripotent count in the expected
``cones`` report.  The hosts in ``CLASSIFY_ONLY`` run ``classify`` alone:
the ``cones`` report of D_6 would list 729 matrices.
``commutative`` runs on every ``.cfs`` fixture and on the ``.cfs``
documents in ``golden/inputs`` (the discrete spaces on 6 and 8 points
and a 6-point space whose maximality conditions split), and
``checkmap`` on every ``.map`` fixture.  ``classify``, ``cones``, ``meet``,
``commutative`` and ``checkmap`` also run at each of ``TOLS``, the
tolerance in the file name; ``meet`` keeps the index pairs of the
default tolerance.

The expected files record the reports of an earlier implementation;
rewrite them with ``python tests/test_golden.py`` only for a report
change that is intended, and say why in the change log.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
HOSTS = sorted((HERE / "fixtures").glob("*.tro")) + sorted((GOLDEN / "inputs").glob("*.tro"))
SPACES = sorted((HERE / "fixtures").glob("*.cfs")) + sorted((GOLDEN / "inputs").glob("*.cfs"))
MAPS = sorted((HERE / "fixtures").glob("*.map"))
TOLS = ("1e-6", "1e-3")
CLASSIFY_ONLY = {"d6"}


def meet_pairs(count: int) -> list[tuple[int, int]]:
    return sorted({(0, count - 1), (count // 3, 2 * count // 3)})


def cases() -> list[tuple[str, list[str]]]:
    """(expected file name, CLI arguments) for every golden report."""
    out, meets = [], []
    for host in HOSTS:
        out.append((f"{host.stem}.classify.out", ["classify", str(host)]))
        if host.stem in CLASSIFY_ONLY:
            continue
        out.append((f"{host.stem}.cones.out", ["cones", str(host)]))
        cones = GOLDEN / f"{host.stem}.cones.out"
        if cones.exists():
            count = int(next(line.split()[1] for line in cones.read_text().splitlines()
                             if line.startswith("count ")))
            for u, v in meet_pairs(count):
                meets.append((f"{host.stem}.meet-{u}-{v}",
                              ["meet", str(host), "--u", str(u), "--v", str(v)]))
                out.append((f"{meets[-1][0]}.out", meets[-1][1]))
    for space in SPACES:
        out.append((f"{space.stem}.commutative.out", ["commutative", str(space)]))
    for doc in MAPS:
        out.append((f"{doc.stem}.checkmap.out", ["checkmap", str(doc)]))
    for tol in TOLS:
        runs = [(doc, cmd) for doc in HOSTS for cmd in ("classify", "cones")
                if cmd == "classify" or doc.stem not in CLASSIFY_ONLY]
        runs += [(doc, "commutative") for doc in SPACES] + [(doc, "checkmap") for doc in MAPS]
        for doc, cmd in runs:
            out.append((f"{doc.stem}.{cmd}.tol-{tol}.out", ["--tol", tol, cmd, str(doc)]))
        for name, argv in meets:
            out.append((f"{name}.tol-{tol}.out", ["--tol", tol] + argv))
    return out


def report(argv: list[str]) -> tuple[int, str]:
    from trokit.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_report_matches_golden(name, argv):
    code, out = report(argv)
    assert out == (GOLDEN / name).read_text()
    assert code == (0 if out.endswith("result pass\n") else 1)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    # cones first: the meet cases are derived from its counts
    for host in HOSTS:
        if host.stem not in CLASSIFY_ONLY:
            (GOLDEN / f"{host.stem}.cones.out").write_text(report(["cones", str(host)])[1])
    for name, argv in cases():
        (GOLDEN / name).write_text(report(argv)[1])
    print(f"wrote {len(cases())} golden reports to {GOLDEN}")
