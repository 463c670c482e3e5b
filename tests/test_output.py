"""The block-formatted writers against the standard library as oracle."""

import csv
import io
import json
import math
import os

import numpy as np
import pytest

from alphasurf import catalog, cyclic, output, ruled
from alphasurf.cli import main, parse_scalar_expr
from alphasurf.errors import NumericalError, ValidationError
from alphasurf.stationary import ResidualReport

SPECIAL = [-0.0, 0.0, 5e-324, 1e16, 1.0 / 3.0, -2.5e-7, 1e-300, -1e22, 123456.0]
ROW_COUNTS = [1, output.BLOCK_ROWS - 1, output.BLOCK_ROWS, output.BLOCK_ROWS + 1,
              9000]


def _values(n, cols=None):
    """``n`` rows (scalars if ``cols`` is None) over many decades, edge cases
    included."""
    size = n * (cols or 1)
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) * 10.0 ** rng.integers(-40, 40, size)
    x[rng.integers(0, size, 64)] = rng.choice(SPECIAL, 64)
    x[:len(SPECIAL)] = SPECIAL[:size]
    return x if cols is None else x.reshape(n, cols)


def _assert_same_text(got, want):
    """``got == want``, naming the first line that differs: pytest's own diff
    of two texts of megabytes takes minutes."""
    if got != want:
        a, b = got.splitlines(True), want.splitlines(True)
        k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
        pytest.fail(f"line {k + 1}: {a[k:k + 1]!r} != {b[k:k + 1]!r}")


def _nested(arr, depth):
    doc = {"label": "x", "count": 3, "rows": arr, "tail": [1.5, None, True]}
    for _ in range(depth - 1):
        doc = {"alpha": -2.0, "inner": doc}
    return doc


def _as_lists(doc):
    if isinstance(doc, dict):
        return {k: _as_lists(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_as_lists(v) for v in doc]
    return doc.tolist() if isinstance(doc, np.ndarray) else doc


@pytest.mark.parametrize("cols", [None, 1, 8])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_json_matches_json_dump(tmp_path, n, depth, cols):
    doc = _nested(_values(n, cols), depth)
    path = tmp_path / "doc.json"
    output.write_json(path, doc)
    _assert_same_text(path.read_text(),
                      json.dumps(_as_lists(doc), indent=1) + "\n")


def test_json_handles_several_arrays_and_empty_ones(tmp_path):
    doc = {"A": _values(5), "rows": np.empty((0, 8)), "B": np.zeros(0),
           "list": [_values(3, 2), {"deep": _values(4097, 3)}],
           "ints": np.arange(4)}
    path = tmp_path / "doc.json"
    output.write_json(path, doc)
    text = path.read_text()
    _assert_same_text(text, json.dumps(_as_lists(doc), indent=1) + "\n")
    assert '"rows": []' in text


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_csv_matches_csv_writer(tmp_path, n):
    rows = _values(n, 4)
    rows[:, 0] = np.arange(n)
    header = ["step", "a", "b", "c"]
    path = tmp_path / "t.csv"
    # the step column is written as %.17g and must read as %d would
    output.write_csv(path, header, rows)
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([int(row[0])] + [f"{x:.17g}" for x in row[1:]])
    with open(path, newline="") as fh:
        _assert_same_text(fh.read(), buf.getvalue())


def _grid_rows():
    """Report-like rows across a partial last block: u and v columns that
    repeat along the grid, the other columns constant."""
    n = output.BLOCK_ROWS + 384
    rows = np.empty((n, 8))
    rows[:, 0], rows[:, 1] = np.divmod(np.arange(n), 64)
    rows[:, 0] /= 7.0
    rows[:, 1] *= 2.0 * np.pi / 64
    rows[:, 2:] = [1.0 / 3.0, -2.5e-7, 6.0e4, 0.5, 0.5, -0.0]
    return rows


def _signed_zeros():
    rows = np.zeros((50, 3))
    rows[::2, 1] = -0.0
    rows[::3, 2] = -0.0
    rows[7, 2] = 5e-324
    return rows


def _repeated():
    """Arrays whose blocks hold few distinct values, in every memory layout
    the writers may be handed."""
    grid = _grid_rows()
    last = np.full((2 * output.BLOCK_ROWS + 3, 2), 2.0)
    last[-2:, 1] = [-0.0, 1e-300]
    return {
        "grid": grid,
        "signed-zeros": _signed_zeros(),
        "one-value": np.full((output.BLOCK_ROWS, 8), -1.0 / 3.0),
        "partial-last-block": last,
        "fortran-order": np.asfortranarray(grid),
        "transposed-buffer": np.ascontiguousarray(grid[:, :3].T).T,
        "strided-columns": grid[::3, 1::3],
        "column-1d": grid[:, 0],
        "strided-column-1d": grid[:, 1],
    }


REPEATED = _repeated()


def _csv_with_cells(header, rows):
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([f"{x:.17g}" for x in row])
    return buf.getvalue()


@pytest.mark.parametrize("name", REPEATED)
def test_json_of_repeated_values_matches_json_dump(tmp_path, name):
    doc = _nested(REPEATED[name], 2)
    path = tmp_path / "doc.json"
    output.write_json(path, doc)
    _assert_same_text(path.read_text(),
                      json.dumps(_as_lists(doc), indent=1) + "\n")


@pytest.mark.parametrize("name", [k for k, v in REPEATED.items() if v.ndim == 2])
def test_csv_of_repeated_values_matches_csv_writer(tmp_path, name):
    rows = REPEATED[name]
    header = [f"c{k}" for k in range(rows.shape[1])]
    path = tmp_path / "t.csv"
    output.write_csv(path, header, rows)
    with open(path, newline="") as fh:
        _assert_same_text(fh.read(), _csv_with_cells(header, rows))


def test_json_of_float32_and_float16_arrays_matches_json_dump(tmp_path):
    # viewed as int64 without a cast, an (n, 8) float32 array is (n, 4)
    grid = _grid_rows()
    doc = {"f32": grid.astype(np.float32), "f16": grid.astype(np.float16),
           "zeros16": _signed_zeros().astype(np.float16),
           "col32": grid[:, 1].astype(np.float32)}
    path = tmp_path / "doc.json"
    output.write_json(path, doc)
    _assert_same_text(path.read_text(),
                      json.dumps(_as_lists(doc), indent=1) + "\n")


def _list_docs():
    """Documents of plain lists, and the spec documents of three families."""
    neg2 = cyclic.integrate_neg2_family(parse_scalar_expr("1/u"), 0.0, 0.0, 1.0,
                                        1.0, (1.0, 1.2))
    riemann = catalog.riemann_minimal_spec(0.3, 1.0, 0.2)
    ruled_spec = ruled.random_ruled_spec(np.random.default_rng(0))
    return {
        "floats": {"x": list(SPECIAL), "one": [2.5], "deep": {"y": [[-0.0]]}},
        "ints": {"x": [1, 2, 3], "rows": [[1, 2], [3, 4]]},
        "bools": {"x": [True, False], "rows": [[True], [False]]},
        "mixed": {"x": [1.5, 2, True, None, "s"], "rows": [[1.5, 2.0], [3, 4.0]],
                  "float-subclass": [np.float64(1.5), 2.5]},
        "empty": {"x": [], "rows": [[], []], "inner": [[1.5], []]},
        "ragged": {"rows": [[1.5, 2.5], [3.5]], "nested": [[[1.5, -0.0]], [[2.5]]]},
        "rectangular": {"rows": _values(9, 3).tolist(), "col": _values(5, 1).tolist(),
                        "list-of-dicts": [{"x": [1.5]}, {"x": [[0.5, 1e-300]]}]},
        "neg2": catalog.family_to_dict(
            catalog.FamilySpec("frenet_cyclic", {"spec": neg2})),
        "riemann": catalog.family_to_dict(
            catalog.FamilySpec("parallel_cyclic", {"spec": riemann})),
        "ruled": catalog.family_to_dict(
            catalog.FamilySpec("ruled_generic", {"spec": ruled_spec})),
    }


LIST_DOCS = _list_docs()


@pytest.mark.parametrize("name", LIST_DOCS)
def test_json_of_lists_matches_json_dumps(tmp_path, name):
    path = tmp_path / "doc.json"
    output.write_json(path, LIST_DOCS[name])
    _assert_same_text(path.read_text(),
                      json.dumps(LIST_DOCS[name], indent=1) + "\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["list", "rows", "ragged"])
def test_json_list_with_a_non_finite_value_is_refused(tmp_path, bad, where):
    doc = {"list": [1.5, 2.5], "rows": [[1.5, 2.5], [3.5, 4.5]],
           "ragged": [[1.5], [2.5, 3.5]]}
    (doc[where][-1] if where != "list" else doc[where]).append(bad)
    if where == "rows":   # keep the rows rectangular
        doc[where][0].append(0.5)
    with pytest.raises(NumericalError, match="doc.json: Out of range float values"):
        output.write_json(tmp_path / "doc.json", doc)
    assert os.listdir(tmp_path) == []


def test_obj_matches_per_line_formatting(tmp_path):
    verts = _values(output.BLOCK_ROWS + 7, 3)
    tris = np.arange(3 * (output.BLOCK_ROWS + 2)).reshape(-1, 3) % len(verts)
    path = tmp_path / "m.obj"
    output.write_obj(path, verts, tris)
    want = "".join(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n" for v in verts)
    want += "".join(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n" for t in tris)
    _assert_same_text(path.read_text(), want)


def _nan_report():
    rows = _values(10, 8)
    rows[4, 7] = np.nan
    return ResidualReport(alpha=0.0, sample_count=10, sup_abs=1.0, rms=1.0,
                          rows=rows)


def test_non_finite_report_is_refused_and_leaves_no_file(tmp_path):
    report = _nan_report()
    with pytest.raises(NumericalError, match="refusing to write non-finite values to .*r.json"):
        report.write_json(tmp_path / "r.json")
    with pytest.raises(NumericalError, match="refusing to write non-finite values to .*r.csv"):
        report.write_csv(tmp_path / "r.csv")
    with pytest.raises(NumericalError, match="s.json: Out of range float values"):
        output.write_json(tmp_path / "s.json", {"energy": float("inf")})
    with pytest.raises(NumericalError, match="refusing to write non-finite values to .*m.obj"):
        output.write_obj(tmp_path / "m.obj", np.full((3, 3), np.nan),
                         np.array([[0, 1, 2]]))
    assert os.listdir(tmp_path) == []


def test_failed_write_keeps_old_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with output.atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert os.listdir(tmp_path) == ["out.txt"]
    assert path.read_text() == "old"
    with output.atomic_open(path) as fh:
        fh.write("new")
    assert os.listdir(tmp_path) == ["out.txt"]
    assert path.read_text() == "new"
    mask = os.umask(0)
    os.umask(mask)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~mask


def test_unwritable_target_is_bad_input(tmp_path):
    with pytest.raises(ValidationError):
        output.write_csv(tmp_path / "no" / "such" / "dir.csv", ["a"], np.zeros((1, 1)))


def test_directory_target_is_bad_input_and_leaves_no_temporary(tmp_path):
    target = tmp_path / "sub"
    target.mkdir()
    with pytest.raises(ValidationError, match="Is a directory"):
        output.check_writable(tmp_path / "ok.csv", target)
    with pytest.raises(ValidationError, match="Is a directory"):
        with output.atomic_open(target) as fh:
            fh.write("never")
    assert os.listdir(tmp_path) == ["sub"] and os.listdir(target) == []


def test_cli_non_finite_report_exits_3_without_files(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr("alphasurf.stationary.residual_grid",
                        lambda *a, **k: _nan_report())
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--family", "sphere", "--out", "r.json",
                 "--csv", "r.csv"]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "non-finite" in lines[0]
    assert "Traceback" not in captured.err
    assert os.listdir() == []
