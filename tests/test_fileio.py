import numpy as np
import pytest

from blindcal import fileio
from blindcal.errors import FormatError
from blindcal.solver import SolverTrace


# ---------------------------------------------------------------------------
# CSV matrices and vectors
# ---------------------------------------------------------------------------

def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3))
    path = tmp_path / "a.csv"
    fileio.write_matrix_csv(path, a)
    np.testing.assert_array_equal(fileio.read_matrix_csv(path), a)
    header = path.read_text().splitlines()[0]
    assert header == "# blindcal matrix 5 3"


def test_vector_csv_round_trip(tmp_path):
    v = np.array([1.5, -2.25, 1e-17, 3.0])
    path = tmp_path / "v.csv"
    fileio.write_vector_csv(path, v)
    np.testing.assert_array_equal(fileio.read_vector_csv(path), v)


@pytest.mark.parametrize("ext, write", [("csv", fileio.write_matrix_csv),
                                        ("bcal", fileio.write_array_binary)],
                         ids=["csv", "binary"])
def test_vector_readers_take_rows_and_columns_only(tmp_path, ext, write):
    v = np.array([1.5, -2.25, 3.0])
    for shape in ((1, 3), (3, 1)):
        write(tmp_path / f"v.{ext}", v.reshape(shape))
        np.testing.assert_array_equal(fileio.read_vector_file(tmp_path / f"v.{ext}"), v)
    write(tmp_path / f"a.{ext}", np.ones((3, 4)))
    with pytest.raises(FormatError, match="expected a vector, got a 3x4 array"):
        fileio.read_vector_file(tmp_path / f"a.{ext}")


def test_matrix_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not a header\n1,2\n")
    with pytest.raises(FormatError):
        fileio.read_matrix_csv(path)


def test_csv_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    p1, p2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    fileio.write_matrix_csv(p1, a)
    fileio.write_matrix_csv(p2, a)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# binary arrays
# ---------------------------------------------------------------------------

def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    for shape in [(7,), (3, 4), (2, 3, 4)]:
        a = rng.standard_normal(shape)
        path = tmp_path / "a.bcal"
        fileio.write_array_binary(path, a)
        out = fileio.read_array_binary(path)
        assert out.shape == a.shape
        np.testing.assert_array_equal(out, a)


def test_binary_header_layout(tmp_path):
    path = tmp_path / "v.bcal"
    fileio.write_array_binary(path, np.array([[1.0, 2.0]]))
    raw = path.read_bytes()
    assert raw[:4] == b"BCAL"
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    assert int.from_bytes(raw[8:12], "little") == 2  # ndims
    assert int.from_bytes(raw[12:20], "little") == 1
    assert int.from_bytes(raw[20:28], "little") == 2


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "x.bcal"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError):
        fileio.read_array_binary(path)


# ---------------------------------------------------------------------------
# netpbm images
# ---------------------------------------------------------------------------

def test_image_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.uniform(0, 1, (1, 6, 5))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    fileio.write_image(p1, img)
    fileio.write_image(p2, fileio.read_image(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_p6_hand_decoded(tmp_path):
    # 3x2 colour image with known bytes
    raster = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255,
                    0, 0, 0, 255, 255, 255, 51, 102, 153])
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n3 2\n255\n" + raster)
    img = fileio.read_image(path)
    assert img.shape == (3, 2, 3)
    np.testing.assert_allclose(img[:, 0, 0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(img[:, 1, 1], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(img[:, 1, 2], [0.2, 0.4, 0.6])


def test_p5_with_comment(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 64, 255]))
    img = fileio.read_image(path)
    assert img.shape == (1, 2, 2)
    np.testing.assert_allclose(img[0].ravel() * 255, [0, 128, 64, 255])


def test_unsupported_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError):
        fileio.read_image(path)


def test_unsupported_magic(tmp_path):
    path = tmp_path / "img.pbm"
    path.write_bytes(b"P4\n2 2\n" + bytes(2))
    with pytest.raises(FormatError):
        fileio.read_image(path)


def test_truncated_raster(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(FormatError):
        fileio.read_image(path)


@pytest.mark.parametrize("shape", [(4, 4), (2, 4, 4)], ids=["2d", "two-channels"])
def test_write_image_rejects_other_shapes(tmp_path, shape):
    with pytest.raises(FormatError):
        fileio.write_image(tmp_path / "img.pgm", np.zeros(shape))


# ---------------------------------------------------------------------------
# traces and grids
# ---------------------------------------------------------------------------

def _sample_trace(with_truth):
    trace = SolverTrace()
    trace.iteration += [0, 1, 2]
    trace.objective += [1.0, 0.25, 1e-9]
    trace.mu_xi += [0.0, 0.5, 0.25]
    trace.mu_gamma += [0.0, 1.5, 0.75]
    if with_truth:
        trace.delta += [2.0, 0.5, 1e-8]
        trace.delta_F += [2.5, 0.75, 2e-8]
    else:
        trace.delta += [None, None, None]
        trace.delta_F += [None, None, None]
    trace.elapsed_seconds += [0.0, 0.001, 0.002]
    return trace


@pytest.mark.parametrize("with_truth", [True, False])
def test_trace_round_trip(tmp_path, with_truth):
    trace = _sample_trace(with_truth)
    path = tmp_path / "trace.csv"
    fileio.write_trace_csv(path, trace)
    out = fileio.read_trace_csv(path)
    assert out.iteration == trace.iteration
    assert out.objective == trace.objective
    assert out.mu_xi == trace.mu_xi
    assert out.mu_gamma == trace.mu_gamma
    assert out.delta == trace.delta
    assert out.delta_F == trace.delta_F
    assert out.elapsed_seconds == trace.elapsed_seconds


def test_grid_round_trip(tmp_path):
    from blindcal.experiments import PhaseGridSpec, run_phase_transition
    spec = PhaseGridSpec(n=8, m=4, p_values=(2, 8), rho_values=(0.1, 0.5),
                         trials_per_cell=2, base_seed=1, max_iterations=200)
    result = run_phase_transition(spec)
    path = tmp_path / "grid.csv"
    fileio.write_grid_csv(path, result)
    rows = fileio.read_grid_csv(path)
    assert len(rows) == 4
    for row, (ip, ir) in zip(rows, [(0, 0), (0, 1), (1, 0), (1, 1)]):
        assert row["p"] == spec.p_values[ip]
        assert row["rho"] == spec.rho_values[ir]
        assert row["probability"] == result.success_probability[ip, ir]
        assert row["successes"] == round(row["probability"] * row["trials"])


def test_trials_csv_pins_header_and_rows(tmp_path):
    from blindcal.experiments import PhaseGridSpec, run_phase_transition
    from blindcal.seeding import derive_seed
    spec = PhaseGridSpec(n=8, m=4, p_values=(2, 8), rho_values=(0.1, 0.5),
                         trials_per_cell=2, base_seed=1, max_iterations=200)
    result = run_phase_transition(spec)
    path = tmp_path / "trials.csv"
    fileio.write_trials_csv(path, result)
    header, *rows = path.read_text(encoding="ascii").splitlines()
    assert header == ("cell,p,rho,trial,seed,stop_reason,iterations,error_db,objective,"
                      "underdetermined,operator_passes")
    assert len(rows) == len(result.trials) == 8
    t = result.trials[5]  # cell 2 is (p=8, rho=0.1); its second trial
    assert (t.cell, t.p, t.rho, t.trial) == (2, 8, 0.1, 1)
    assert t.seed == derive_seed(1, [("cell", 2), ("trial", 1)])
    assert t.operator_passes == t.iterations + 2 and t.seconds > 0.0
    assert rows[5].split(",") == [
        "2", "8", "0.1", "1", str(t.seed), t.stop_reason, str(t.iterations),
        repr(t.error_db), repr(float(t.objective)), "0", str(t.operator_passes)]
    # m*p = 8 < n + m - 1 = 11 at p = 2
    assert [row.split(",")[9] for row in rows] == ["1"] * 4 + ["0"] * 4


def test_report_json(tmp_path):
    path = tmp_path / "report.json"
    fileio.write_report_json(path, {"error_db": -61.5, "iterations": 12,
                                    "stop_reason": "converged", "ls_error_db": -6.0})
    import json
    data = json.loads(path.read_text())
    assert data["error_db"] == -61.5
    assert data["stop_reason"] == "converged"


# ---------------------------------------------------------------------------
# malformed content
# ---------------------------------------------------------------------------

_TRACE_HEADER = b"iteration,f,mu_xi,mu_gamma,delta,delta_F,elapsed_seconds\n"
_GRID_HEADER = b"p,rho,trials,successes,probability\n"


@pytest.mark.parametrize("reader,content", [
    ("read_array_binary", b"BCAL\x01\x00"),
    ("read_array_binary", b"BCAL\x01\x00\x00\x00\x02\x00\x00\x00" + bytes(8)),
    ("read_array_binary", b"BCAL\x02\x00\x00\x00\x01\x00\x00\x00" + bytes([1]) + bytes(15)),
    ("read_array_binary", b"BCAL\x01\x00\x00\x00\x01\x00\x00\x00" + bytes([2]) + bytes(15)),
    ("read_matrix_csv", b"# blindcal matrix 1 x\n1\n"),
    ("read_matrix_csv", b"# blindcal matrix 1 2\n1,abc\n"),
    ("read_matrix_csv", b"# blindcal matrix 2 2\n1,2\n3\n"),
    ("read_matrix_csv", b"# blindcal matrix 2 2\n1,2\n"),
    ("read_matrix_csv", b"# blindcal matrix 1 1\n\xff\n"),
    ("read_image", b"P5\nabc 2\n255\n" + bytes(4)),
    ("read_image", b"P5\n-2 -2\n255\n" + bytes(4)),
    ("read_image", b"P5\n0 2\n255\n"),
    ("read_trace_csv", _TRACE_HEADER + b"0,abc,0.0,0.0,,,0.0\n"),
    ("read_trace_csv", _TRACE_HEADER + b"0.5,1.0,0.0,0.0,,,0.0\n"),
    ("read_grid_csv", _GRID_HEADER + b"4,0.1,10\n"),
    ("read_grid_csv", _GRID_HEADER + b"4,0.1,ten,5,0.5\n"),
], ids=["binary-truncated-header", "binary-truncated-dims", "binary-version",
        "binary-payload-size", "csv-header-dimension", "csv-cell", "csv-ragged",
        "csv-row-count", "csv-not-ascii", "image-width", "image-negative-size", "image-empty", "trace-cell",
        "trace-iteration", "grid-row-length", "grid-cell"])
def test_malformed_content_is_format_error(tmp_path, reader, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(FormatError):
        getattr(fileio, reader)(path)
