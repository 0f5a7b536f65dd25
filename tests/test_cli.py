"""Command line interface: parsing, reports, exit codes, determinism."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import trokit
from trokit import LinearMap, Tolerance, is_psd
from trokit import morphisms as morphisms_module
from trokit import tripotents as tripotents_module
from trokit import tro as tro_module
from trokit.cli import ParseError, _format_stack, format_matrix, main, parse_document
from trokit.linalg import EPS_FLOOR

from hosts import corner_tro, full_matrix_tro, random_projection

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES.parent / "golden"
GOLDEN_INPUT = GOLDEN / "inputs"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def report_value(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + " "):
            return line[len(key) + 1:]
    raise KeyError(key)


def parse_report_matrix(out: str, label: str) -> np.ndarray:
    lines = out.splitlines()
    for k, line in enumerate(lines):
        if line.startswith(f"matrix {label} dim "):
            d = int(line.rsplit(" ", 1)[1])
            rows = []
            for row_text in lines[k + 1:k + 1 + d]:
                row = []
                for chunk in row_text.split():
                    re, im = chunk[1:-1].split(",")
                    row.append(complex(float(re), float(im)))
                rows.append(row)
            return np.array(rows)
    raise KeyError(label)


def test_parse_document_roundtrip():
    doc = parse_document(Path(fixture("d2.tro")).read_text())
    assert doc.kind == "tro"
    assert doc.dim == 2
    assert len(doc.generators) == 2
    assert np.allclose(doc.generators[0], np.diag([1.0, 0.0]))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_document("kind: tro\ndim: 2\ngenerator:\n[1,0] [0,0]\n[bad] [0,0]\n")
    assert "line 5" in str(err.value)
    with pytest.raises(ParseError):
        parse_document("dim: 2\n")
    with pytest.raises(ParseError):
        parse_document("kind: widget\n")


def test_dim_above_the_cap_exits_2_before_any_row(capsys, tmp_path):
    rows = "\n".join(" ".join(["[0,0]"] * 13) for _ in range(13))
    path = tmp_path / "m13.tro"
    path.write_text(f"kind: tro\ndim: 13\ngenerator:\n{rows}\n")
    assert main(["classify", str(path)]) == 2
    assert "line 2: 'dim' 13 exceeds the cap 12" in capsys.readouterr().err
    with pytest.raises(ParseError, match="line 3: 'codim' 14 exceeds the cap 12"):
        # refused at the codim line, before the malformed generator row
        parse_document("kind: map\ndim: 2\ncodim: 14\ngenerator:\n[bad]\n")
    unit = "\n".join(" ".join("[1,0]" if r == c else "[0,0]" for c in range(12))
                     for r in range(12))
    doc = parse_document(f"kind: tro\ndim: 12\ngenerator:\n{unit}\n")
    assert doc.dim == 12
    assert np.allclose(doc.generators[0], np.eye(12))


def test_points_above_the_cap_exits_2_before_tau(capsys, tmp_path):
    path = tmp_path / "disc13.cfs"
    # the malformed tau and open lines are never read
    path.write_text("kind: commutative\npoints: 13\ntau: x\nopen: y\n")
    assert main(["commutative", str(path)]) == 2
    assert "line 2: 'points' 13 exceeds the cap 12" in capsys.readouterr().err
    tau = " ".join(str(p ^ 1) for p in range(12))
    doc = parse_document(f"kind: commutative\npoints: 12\ntau: {tau}\ntopology: discrete\n")
    assert doc.points == 12 and doc.discrete


def test_tolerance_below_the_floor_exits_2(capsys):
    # at 1e-16 rounding beats the cutoffs: M_2 used to report a zero center
    assert main(["--tol", "1e-16", "classify", fixture("m2.tro")]) == 2
    assert "eps must lie in" in capsys.readouterr().err
    code, out = run(capsys, "--tol", repr(EPS_FLOOR), "classify", fixture("m2.tro"))
    assert code == 0
    assert report_value(out, "center-dim") == "1"


def test_format_matrix_normalizes_negative_zero():
    rows = format_matrix(np.array([[-0.0 + 0.0j]]))
    assert rows == ["[0,0]"]
    # parts at or below tol.cutoff(max |entry|) are rounding noise
    noisy = np.array([[1.0 - 3e-16j, 4e-16 + 1e-6j], [-2e-16, 0.5]])
    assert format_matrix(noisy, Tolerance(1e-9)) == ["[1,0] [0,1e-06]", "[0,0] [0.5,0]"]


def _format_loop(m: np.ndarray, tol: Tolerance) -> list[str]:
    """The entry-by-entry formatter that ``format_matrix`` replaced."""
    def fmt(x) -> str:
        return format(0.0 if x == 0.0 else x, ".12g")

    cut = tol.cutoff(float(np.abs(m).max(initial=0.0)))
    re = np.where(np.abs(m.real) <= cut, 0.0, m.real)
    im = np.where(np.abs(m.imag) <= cut, 0.0, m.imag)
    return [" ".join(f"[{fmt(a)},{fmt(b)}]" for a, b in zip(ra, ia)) for ra, ia in zip(re, im)]


def test_format_matrix_at_negative_zero_and_the_cutoff():
    tol = Tolerance(1e-6)
    cut = tol.cutoff(2.0)
    above = float(np.nextafter(cut, 1.0))
    # the largest modulus is 2, so parts at cut print 0 and parts above it do not
    m = np.array([[complex(-0.0, -0.0), complex(-cut, cut)],
                  [complex(above, -above), complex(-2.0, -0.0)]])
    assert format_matrix(m, tol) == ["[0,0] [0,0]", "[2e-06,-2e-06] [-2,0]"]
    rng = np.random.default_rng(7)
    noise = rng.normal(size=(2, 5, 5)) * np.array([1.0, 1e-7])[:, None, None]
    for scale in (1.0, -1.0, 1e-20, -1e-20, 1e6):
        for x in (m, rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)),
                  noise[0] + 1j * noise[1], -np.zeros((3, 3), dtype=complex)):
            assert format_matrix(scale * x, tol) == _format_loop(scale * x, tol)


def test_classify_d2(capsys):
    code, out = run(capsys, "classify", fixture("d2.tro"))
    assert code == 0
    assert out.startswith("trokit-report classify\n")
    assert report_value(out, "natural-cone-count") == "9"
    assert report_value(out, "maximal-cone-count") == "4"
    assert report_value(out, "unorderable") == "false"
    assert report_value(out, "result") == "pass"


def test_classify_d3(capsys):
    code, out = run(capsys, "classify", fixture("d3.tro"))
    assert code == 0
    assert report_value(out, "natural-cone-count") == "27"
    assert report_value(out, "maximal-cone-count") == "8"


def test_classify_corner_is_unorderable(capsys):
    code, out = run(capsys, "classify", fixture("offdiag_m2.tro"))
    assert code == 0
    assert report_value(out, "unorderable") == "true"
    assert report_value(out, "natural-cone-count") == "1"
    assert report_value(out, "maximal-cone-count") == "0"


def test_classify_corner_at_loose_tol_has_no_algebra_part(capsys):
    # span{E12, E21} meets its square span{E11, E22} only in 0
    code, out = run(capsys, "--tol", "1e-3", "classify", fixture("offdiag_m2.tro"))
    assert code == 0
    assert report_value(out, "algebra-part-dim") == "0"
    assert report_value(out, "result") == "pass"


def diagonal_document(tmp_path: Path, n: int) -> str:
    """D_n from its n diagonal units, written as a document under tmp_path."""
    rows = []
    for i in range(n):
        rows.append("generator:")
        rows.extend(" ".join("[1,0]" if r == c == i else "[0,0]" for c in range(n))
                    for r in range(n))
    path = tmp_path / f"d{n}.tro"
    path.write_text(f"kind: tro\ndim: {n}\n" + "\n".join(rows) + "\n")
    return str(path)


def test_classify_d6_completes(capsys, tmp_path):
    # the lattice checks are certified from 6 atoms, not from 729^2 matrix meets
    code, out = run(capsys, "classify", diagonal_document(tmp_path, 6))
    assert code == 0
    assert report_value(out, "natural-cone-count") == "729"
    assert report_value(out, "maximal-cone-count") == "64"
    assert "check meet-closure pass" in out
    assert "check negation-closure pass" in out


def test_classify_full_algebra(capsys):
    code, out = run(capsys, "classify", fixture("m2.tro"))
    assert code == 0
    assert report_value(out, "natural-cone-count") == "3"
    assert report_value(out, "maximal-cone-count") == "2"
    assert report_value(out, "center-dim") == "1"


def test_classify_empty_generators(capsys):
    code, out = run(capsys, "classify", fixture("empty.tro"))
    assert code == 0
    assert report_value(out, "space-dim") == "0"
    assert report_value(out, "natural-cone-count") == "1"


def test_meet_command(capsys):
    # indices follow the documented sorted enumeration of D2 tripotents:
    # 8 is diag(1,1), 6 is diag(1,-1); their meet is diag(1,0)
    code, out = run(capsys, "meet", fixture("d2.tro"), "--u", "8", "--v", "6")
    assert code == 0
    got = parse_report_matrix(out, "meet")
    assert np.allclose(got, np.diag([1.0, 0.0]))
    assert report_value(out, "result") == "pass"


def test_meet_opposite_supports_is_zero(capsys):
    # 7 is diag(1,0), 1 is diag(-1,0)
    code, out = run(capsys, "meet", fixture("d2.tro"), "--u", "7", "--v", "1")
    assert code == 0
    assert np.allclose(parse_report_matrix(out, "meet"), 0)


def test_meet_of_equal_indices_is_identity(capsys):
    code, out = run(capsys, "meet", fixture("d2.tro"), "--u", "8", "--v", "8")
    assert code == 0
    assert np.allclose(parse_report_matrix(out, "meet"), np.eye(2))


def test_meet_index_out_of_range(capsys):
    for u in ("9", "-1"):
        code = main(["meet", fixture("d2.tro"), "--u", u, "--v", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: indices must lie in [0, 8]\n"


def test_cones_and_meet_build_no_tripotent_list(capsys, monkeypatch):
    # both commands work from the sorted sign matrix, a chunk at a time
    def refuse(*args, **kwargs):
        raise AssertionError("the tripotent list was built")

    monkeypatch.setattr(tripotents_module, "enumerate_central_tripotents", refuse)
    monkeypatch.setattr(tripotents_module, "central_tripotents", refuse)
    unitary = str(GOLDEN_INPUT / "block_211_unitary.tro")
    for args, expected in ((["cones", fixture("d3.tro")], "d3.cones"),
                           (["meet", fixture("d3.tro"), "--u", "9", "--v", "18"], "d3.meet-9-18"),
                           (["cones", unitary], "block_211_unitary.cones"),
                           (["meet", fixture("empty.tro"), "--u", "0", "--v", "0"], "empty.meet-0-0")):
        assert run(capsys, *args) == (0, (GOLDEN / f"{expected}.out").read_text())


def test_cones_and_meet_in_chunks_print_the_same_reports(capsys, monkeypatch):
    # five tripotents a chunk, so the last of the 243 chunks is short
    monkeypatch.setattr(tripotents_module, "_CHUNK_BYTES", 5 * 16 * 6 * 6)
    path = str(GOLDEN_INPUT / "block_11211.tro")
    for args, expected in ((["cones", path], "cones"),
                           (["meet", path, "--u", "0", "--v", "242"], "meet-0-242")):
        assert run(capsys, *args) == (0, (GOLDEN / f"block_11211.{expected}.out").read_text())


def test_meet_of_d10_stays_within_32_mb(capsys, tmp_path):
    path = diagonal_document(tmp_path, 10)
    tracemalloc.start()
    try:
        code = main(["meet", path, "--u", "0", "--v", "59048"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert "check meet-is-greatest-lower-bound pass" in out
    assert peak < 32 * 2 ** 20


def test_stack_formatter_matches_format_matrix_per_matrix():
    # each matrix has its own cutoff: parts at 0.5x it print 0, parts at
    # 2x it print, whatever the scale of the other matrices in the stack
    rng = np.random.default_rng(3)
    for tol in (Tolerance(1e-9), Tolerance(1e-3)):
        scales = 10.0 ** rng.uniform(-4, 4, size=12)
        ms = np.empty((len(scales), 4, 4), dtype=complex)
        for m, scale in zip(ms, scales):
            cut = tol.cutoff(scale)
            parts = rng.choice([0.5, -0.5, 2.0, -2.0], size=(2, 4, 4)) * cut
            m[:] = parts[0] + 1j * parts[1]
            m[0, 0] = scale * rng.choice([1, -1, 1j, -1j])
            m[1, 1] = 0.5 * cut + 2j * cut
        rows = _format_stack(ms, tol)
        assert rows == [row for m in ms for row in format_matrix(m, tol)]
        assert rows == [row for m in ms for row in _format_loop(m, tol)]
        for k, scale in enumerate(scales):
            assert rows[4 * k + 1].split()[1] == f"[0,{2 * tol.cutoff(scale):.12g}]"


def test_cones_command_lists_all(capsys):
    code, out = run(capsys, "cones", fixture("d2.tro"))
    assert code == 0
    assert report_value(out, "count") == "9"
    assert out.count("maximal true") == 4
    assert out.count("maximal false") == 5


def test_commutative_discrete(capsys):
    code, out = run(capsys, "commutative", fixture("disc4.cfs"))
    assert code == 0
    assert report_value(out, "antisymmetric-count") == "9"
    assert report_value(out, "maximal-count") == "4"
    assert report_value(out, "embedded-cone-count") == "9"
    assert "check embedding-crossval pass" in out
    assert report_value(out, "result") == "pass"


def test_commutative_discrete_ten_points(capsys, tmp_path):
    path = tmp_path / "disc10.cfs"
    tau = " ".join(str(p ^ 1) for p in range(10))
    path.write_text(f"kind: commutative\npoints: 10\ntau: {tau}\ntopology: discrete\n")
    code, out = run(capsys, "commutative", str(path))
    assert code == 0
    assert report_value(out, "antisymmetric-count") == "243"
    assert report_value(out, "maximal-count") == "32"
    assert "check inclusion-equivalence pass" in out


def test_commutative_indiscrete(capsys):
    code, out = run(capsys, "commutative", fixture("indiscrete2.cfs"))
    assert code == 0
    assert report_value(out, "antisymmetric-count") == "1"
    assert report_value(out, "maximal-count") == "0"
    assert report_value(out, "separates-orbits") == "false"
    assert report_value(out, "conditions-agree-everywhere") == "false"
    assert "embedding-crossval skipped-non-discrete" in out


def test_checkmap_identity_passes(capsys):
    code, out = run(capsys, "checkmap", fixture("identity.map"))
    assert code == 0
    assert "check ternary-star-morphism pass" in out
    assert "check completely-positive-up-to-3 pass" in out
    assert "check induced-hom-well-defined pass" in out


def test_checkmap_negation_is_morphism(capsys):
    code, out = run(capsys, "checkmap", fixture("negation.map"))
    assert code == 0
    assert "check ternary-star-morphism pass" in out


def test_checkmap_transpose_fails(capsys):
    code, out = run(capsys, "checkmap", fixture("transpose.map"))
    assert code == 1
    assert "check ternary-star-morphism fail" in out
    assert "cp-level 2 fail" in out
    assert report_value(out, "result") == "fail"


def test_checkmap_witness_reverifies(capsys):
    _, out = run(capsys, "checkmap", fixture("transpose.map"))
    big = parse_report_matrix(out, "cp-witness-input")
    image = parse_report_matrix(out, "cp-witness-image")
    assert is_psd(big)
    assert not is_psd(image)
    t = LinearMap.transpose_map(full_matrix_tro(2))
    blocks = [[big[2 * i:2 * i + 2, 2 * j:2 * j + 2] for j in range(2)]
              for i in range(2)]
    assert np.allclose(t.apply_blocks(blocks), image)


def test_checkmap_identity_on_a_rank_2_corner_passes(capsys, tmp_path):
    # the induced homomorphism is solved in the square's coordinates; a
    # pseudo-inverse at numpy's default cutoff refused this identity
    e = random_projection(4, 2, np.random.default_rng(0))
    z = corner_tro(4, e)

    def rows(m: np.ndarray) -> list[str]:
        return [" ".join(f"[{x.real!r},{x.imag!r}]" for x in row) for row in m.tolist()]

    lines = ["kind: map", "dim: 4", "codim: 4"]
    for b in z.space.basis():
        lines += ["generator:"] + rows(b)
    for b in z.space.basis():
        lines += ["pair:"] + rows(b) + ["maps-to:"] + rows(b)
    doc = tmp_path / "corner_identity.map"
    doc.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "checkmap", str(doc))
    assert report_value(out, "domain-dim") == "8"
    assert "check ternary-star-morphism pass" in out
    assert "check induced-hom-well-defined pass" in out
    assert code == 0


def test_checkmap_runs_one_morphism_pass(capsys, monkeypatch):
    # the induced map and the center are each derived once: the domain's
    # center when it is certified, and no second one for the square
    calls = {"_induced": 0, "_center_of": 0}
    for module, name in ((morphisms_module, "_induced"), (tro_module, "_center_of")):
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    code, _ = run(capsys, "checkmap", fixture("identity.map"))
    assert code == 0
    assert calls == {"_induced": 1, "_center_of": 1}


def test_reports_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        _, out = run(capsys, "checkmap", fixture("transpose.map"))
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        _, out = run(capsys, "classify", fixture("d3.tro"))
        outputs.append(out)
    assert outputs[2] == outputs[3]


def test_seed_and_tol_are_echoed(capsys):
    _, out = run(capsys, "--seed", "7", "--tol", "1e-08", "classify", fixture("d2.tro"))
    assert report_value(out, "seed") == "7"
    assert report_value(out, "tol") == "1e-08"


def test_kind_mismatch_is_usage_error(capsys):
    code = main(["classify", fixture("disc4.cfs")])
    capsys.readouterr()
    assert code == 2


def test_tol_document_key_is_rejected(capsys, tmp_path):
    text = Path(fixture("d2.tro")).read_text() + "tol: 0.5\n"
    with pytest.raises(ParseError, match="unknown key 'tol'"):
        parse_document(text)
    path = tmp_path / "d2_tol.tro"
    path.write_text(text)
    code = main(["classify", str(path)])
    assert "unknown key 'tol'" in capsys.readouterr().err
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code = main(["classify", fixture("does_not_exist.tro")])
    capsys.readouterr()
    assert code == 2


def test_flag_validation(capsys):
    assert main(["--max-level", "9", "checkmap", fixture("identity.map")]) == 2
    assert "error: --max-level must lie in 1..4" in capsys.readouterr().err
    assert main(["--tol", "-1.0", "classify", fixture("d2.tro")]) == 2
    capsys.readouterr()


def test_uncertified_center_is_refused_with_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(tripotents_module, "atoms_certificate", lambda atoms, z: False)
    assert main(["cones", fixture("d2.tro")]) == 2
    assert main(["meet", fixture("d2.tro"), "--u", "0", "--v", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # cones prints as it goes, but only once the atoms pass
    assert err.count("error: the center does not split into 2 certified atoms at tol 1e-09") == 2
    # classify reports the failed certificate instead of refusing
    code, out = run(capsys, "classify", fixture("d2.tro"))
    assert code == 1
    assert "check negation-closure fail" in out and "check meet-closure fail" in out


GRID_INPUTS = (sorted(FIXTURES.glob("*.tro"))
               + sorted((FIXTURES.parent / "golden" / "inputs").glob("*.tro")))
GRID_COMMANDS = ([[cmd, str(h)] for h in GRID_INPUTS for cmd in ("classify", "cones")]
                 + [["meet", str(h), "--u", "0", "--v", "0"] for h in GRID_INPUTS]
                 + [["commutative", str(p)] for p in sorted(FIXTURES.glob("*.cfs"))]
                 + [["checkmap", str(p)] for p in sorted(FIXTURES.glob("*.map"))])


@pytest.mark.parametrize("tol", ["1e-15", "1e-12", "1e-3", "0.05", "0.2", "0.3", "0.5", "0.9"])
def test_no_exception_escapes_at_any_tolerance(capsys, tol):
    # every command on every fixture and golden input ends in an exit code;
    # below the floor every pair is refused, from 1e-12 to 0.3 none is, and
    # above that the only refusal is an uncertifiable center
    for argv in GRID_COMMANDS:
        code = main(["--tol", tol] + argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if tol == "1e-15":
            assert code == 2 and "eps must lie in" in err, (argv, err)
        elif float(tol) <= 0.3:
            assert code != 2, (argv, err)
        elif code == 2:
            assert "certified atoms at tol" in err, (argv, err)


def test_loose_tolerance_splits_d3_into_three_atoms(capsys):
    code, out = run(capsys, "--tol", "0.5", "classify", fixture("d3.tro"))
    assert code == 0
    assert report_value(out, "center-dim") == "3"
    assert report_value(out, "natural-cone-count") == "27"
    assert report_value(out, "maximal-cone-count") == "8"


def test_module_entry_point_runs():
    # the child imports the same trokit as this process, installed or not
    src = str(Path(trokit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "trokit", "classify", fixture("d2.tro")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "trokit-report classify" in proc.stdout


def run_within_1_gb(*argv: str) -> subprocess.CompletedProcess:
    """The CLI as a child process on one BLAS thread under a 1 GB
    ``RLIMIT_AS``; it must not die with a traceback."""
    src = str(Path(trokit.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limit = 2 ** 30

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "trokit", *argv],
                          capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120)
    assert "Traceback" not in proc.stderr
    return proc


def test_classify_of_a_random_m10_runs_within_1_gb(tmp_path):
    # a cap corner: dim 10 from two generic generators, whose closure
    # reaches all of M_10 through rounds of growing spans
    rng = np.random.default_rng(10)
    lines = ["kind: tro", "dim: 10"]
    for _ in range(2):
        g = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        lines += ["generator:"] + [" ".join(f"[{x.real!r},{x.imag!r}]" for x in row)
                                   for row in g.tolist()]
    doc = tmp_path / "m10.tro"
    doc.write_text("\n".join(lines) + "\n")
    proc = run_within_1_gb("classify", str(doc))
    assert proc.returncode == 0, proc.stderr
    assert report_value(proc.stdout, "center-dim") == "1"


def test_checkmap_of_the_identity_on_m12_runs_within_1_gb(tmp_path):
    # a cap corner: all 144 matrix units as generators and as pairs,
    # so the morphism pass meets the 20736 products of Z^2 with Z
    def unit(i: int, j: int) -> list[str]:
        return [" ".join("[1,0]" if (r, c) == (i, j) else "[0,0]" for c in range(12))
                for r in range(12)]

    units = [unit(i, j) for i in range(12) for j in range(12)]
    lines = ["kind: map", "dim: 12", "codim: 12"]
    lines += [row for u in units for row in ["generator:"] + u]
    lines += [row for u in units for row in ["pair:"] + u + ["maps-to:"] + u]
    doc = tmp_path / "m12_identity.map"
    doc.write_text("\n".join(lines) + "\n")
    proc = run_within_1_gb("--max-level", "4", "checkmap", str(doc))
    assert proc.returncode == 0, proc.stderr
    assert report_value(proc.stdout, "domain-dim") == "144"
    assert report_value(proc.stdout, "result") == "pass"


def test_meet_of_d12_runs_within_1_gb(tmp_path):
    # a cap corner: 531441 tripotents, checked against the meet a chunk
    # of sign rows at a time
    proc = run_within_1_gb("meet", diagonal_document(tmp_path, 12), "--u", "0", "--v", "531440")
    assert proc.returncode == 0, proc.stderr
    assert report_value(proc.stdout, "result") == "pass"
