import dataclasses
import inspect
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwkit
from cwkit import cli, gallery, io
from cwkit.cli import main
from cwkit.directions import (DEFAULT_FRAME_TAU, Cap, Direction, FiniteSet, Frame,
                              FullSphere, UnionOfCaps, extract_frame, parse_region)
from cwkit.errors import CwkitError, ParseError, RaggedRows
from cwkit.io import (atomic_csv, ingest_samples, load_atomic_csv, projected_csv,
                      samples_csv)
from cwkit.projections import AtomicMeasure, Empirical, ks_distance, project
from cwkit.verdict import VerdictConfig, h2_check


def read_directions(path):
    return [Direction(row) for row in np.loadtxt(path, delimiter=",", ndmin=2)]


@pytest.fixture
def gaussian_files(tmp_path):
    rng = np.random.default_rng(123)
    paths = []
    for n in (100, 1000, 5000):
        p = tmp_path / f"seq_{n}.csv"
        rows = rng.standard_normal((n, 2))
        p.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rows))
        paths.append(p)
    return paths


class TestIngest:
    def test_csv_basic(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("1.0,2.0\n3.0,4.0\n5.5,6.5\n")
        s = ingest_samples(f)
        assert s.n == 3 and s.dim == 2
        assert s.label == "pts"

    def test_csv_header_skipped(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("x,y\n1.0,2.0\n")
        assert ingest_samples(f).n == 1

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError) as err:
            ingest_samples(f)
        assert err.value.row == 2
        assert err.value.column == 2

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("1.0,2.0\n3.0,4.0,5.0\n")
        with pytest.raises(RaggedRows) as err:
            ingest_samples(f)
        assert err.value.row == 2

    def test_ndjson(self, tmp_path):
        f = tmp_path / "pts.ndjson"
        f.write_text('[1, 2, 3]\n[4, 5, 6]\n')
        s = ingest_samples(f)
        assert s.n == 2 and s.dim == 3

    def test_ndjson_bad_line(self, tmp_path):
        f = tmp_path / "pts.ndjson"
        f.write_text('[1, 2]\n{"not": "array"}\n')
        with pytest.raises(ParseError) as err:
            ingest_samples(f)
        assert err.value.row == 2

    def test_ndjson_boolean_rejected(self, tmp_path):
        f = tmp_path / "pts.ndjson"
        f.write_text('[1.0, 2.0]\n[true, 2.0]\n')
        with pytest.raises(ParseError) as err:
            ingest_samples(f)
        assert err.value.row == 2
        assert ":2:" in str(err.value)

    @pytest.mark.parametrize("header", ["x,y", "x1,x2,weight"])
    def test_csv_all_text_first_row_is_header(self, header, tmp_path):
        f = tmp_path / "pts.csv"
        width = header.count(",") + 1
        f.write_text(header + "\n" + ",".join(["1.0"] * width) + "\n")
        loader = load_atomic_csv if width == 3 else ingest_samples
        assert loader(f).n == 1

    @pytest.mark.parametrize("name, loader, text, expected", [
        ("padded.csv", ingest_samples, "\n x , y \n\n 1.0 , 2.0 \n\n3.0,\t4.0\n",
         [[1.0, 2.0], [3.0, 4.0]]),
        ("empty.csv", ingest_samples, "", (ParseError, None, None)),
        ("header_only.csv", ingest_samples, "x,y\n\n", (ParseError, None, None)),
        ("empty_cell.csv", ingest_samples, "1.0,2.0\n3.0,\n", (ParseError, 2, 2)),
        ("bad_cell.csv", ingest_samples, "1.0,2.0\n\nx3,4.0\n", (ParseError, 3, 1)),
        ("ragged.csv", ingest_samples, "1.0,2.0\n3.0\n", (RaggedRows, 2, None)),
        ("ragged_bad.csv", ingest_samples, "1.0,2.0\n3.0,x,5.0\n", (RaggedRows, 2, None)),
        ("padded.ndjson", ingest_samples, "\n [1, 2.5] \n\n[3, 4]\n", [[1.0, 2.5], [3.0, 4.0]]),
        ("empty.ndjson", ingest_samples, "\n\n", (ParseError, None, None)),
        ("invalid.ndjson", ingest_samples, "[1, 2]\n[1, \n", (ParseError, 2, None)),
        ("ragged.ndjson", ingest_samples, "[1, 2]\n\n[1, 2, 3]\n", (RaggedRows, 3, None)),
        ("bool.ndjson", ingest_samples, "[1.0, 2.0]\n[true, 2.0]\n", (ParseError, 2, None)),
        ("atomic.csv", load_atomic_csv, "x1,x2,weight\n0,0,0.25\n 1 , 2 ,0.75\n",
         [[0.0, 0.0, 0.25], [1.0, 2.0, 0.75]]),
        ("one_column.csv", load_atomic_csv, "w\n1.0\n", (ParseError, None, None)),
        # the suffix alone picks the format, in any case
        ("upper.JSONL", ingest_samples, "[1, 2]\n[3, 4]\n", [[1.0, 2.0], [3.0, 4.0]]),
        # cells outside the float range or not finite: named by row and column
        ("overflow.csv", ingest_samples, "1.0,2.0\n3.0,1e400\n", (ParseError, 2, 2)),
        ("nan.csv", ingest_samples, "x,y\n1.0,nan\n3.0,4.0\n", (ParseError, 2, 2)),
        ("inf.csv", ingest_samples, "1.0,2.0\n\n-inf,4.0\n", (ParseError, 3, 1)),
        pytest.param("long_int.ndjson", ingest_samples, "[1, 2]\n[3, " + "9" * 401 + "]\n",
                     (ParseError, 2, 2), id="long_int.ndjson"),
        ("nan.ndjson", ingest_samples, "[1, 2]\n[NaN, 2]\n", (ParseError, 2, 1)),
        ("overflow_atomic.csv", load_atomic_csv, "x1,x2,weight\n0,0,0.25\n1,1e400,0.75\n",
         (ParseError, 3, 2)),
        # a byte-order mark, as spreadsheet exports write, is not part of the first cell
        ("bom.csv", ingest_samples, "\ufeff1.0,2.0\n3.0,4.0\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("bom.ndjson", ingest_samples, "\ufeff[1, 2]\n[3, 4]\n", [[1.0, 2.0], [3.0, 4.0]]),
        # str.splitlines breaks lines at \x0b, \x1c and a lone \r; loadtxt alone would not
        ("vt_in_line.csv", ingest_samples, "1\x0b,2\n3,4\n", (RaggedRows, 2, None)),
        ("fs_in_line.csv", ingest_samples, "1\x1c,2\n3,4\n", (RaggedRows, 2, None)),
        ("cr.csv", ingest_samples, "x,y\r1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
        ("crlf.csv", ingest_samples, "x,y\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("blank_spaces.csv", ingest_samples, "1,2\n \t \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("underscore.csv", ingest_samples, "1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]]),
        ("late_header.csv", ingest_samples, "\n \n\nx,y\n1,2\n", [[1.0, 2.0]]),
        ("column.csv", ingest_samples, "x\n1.5\n-2\n", [[1.5], [-2.0]]),
        # loadtxt strips \x1f from a cell as whitespace; float() does not
        ("us_in_cell.csv", ingest_samples, "\x1f1,2\n", (ParseError, 1, 1)),
    ])
    def test_reader_table(self, name, loader, text, expected, tmp_path):
        # exception type, row and column are the contract; wording may change
        f = tmp_path / name
        f.write_text(text, encoding="utf-8")
        if isinstance(expected, tuple):
            exc, row, column = expected
            with pytest.raises(exc) as err:
                loader(f)
            assert type(err.value) is exc
            assert (getattr(err.value, "row", None), getattr(err.value, "column", None)) \
                == (row, column)
        else:
            got = loader(f)
            rows = got.points if got.weights is None else np.column_stack([got.points,
                                                                           got.weights])
            assert rows.tolist() == expected

    @settings(max_examples=400, deadline=None)
    @given(text=st.lists(st.sampled_from(
        list("0123456789,.e-+_ \t\n\r\x0b\x1c\x1fx") + ["\r\n", "inf", "nan"])).map("".join))
    def test_bulk_parse_matches_row_loop(self, text):
        # the one-call CSV parse must return what the row loop returns, bit for
        # bit, or let it raise the same error
        def outcome(load, path):
            try:
                got = load(path)
            except (CwkitError, ValueError) as err:
                return (type(err), str(err), getattr(err, "row", None),
                        getattr(err, "column", None))
            arr = got.points if got.weights is None else np.column_stack([got.points,
                                                                          got.weights])
            return arr.shape, arr.tobytes()

        def row_loop_samples(path):
            text = io._read_text(path)
            return Empirical(points=io._finite_array(path, text, "csv",
                                                     io._read_rows(path, text, "csv")),
                             label=path.stem)

        def row_loop_atomic(path):
            text = io._read_text(path)
            rows = io._read_rows(path, text, "csv")
            if len(rows[0]) < 2:
                raise ParseError(f"{path}: need at least one coordinate column plus a "
                                 "weight column")
            arr = io._finite_array(path, text, "csv", rows)
            return Empirical(points=arr[:, :-1], weights=arr[:, -1])

        # warnings are errors here, not through a pytest mark: a mark also covers
        # the report hooks of plugins, which may warn themselves
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            path = Path(tmp) / "prop.csv"
            path.write_bytes(text.encode())
            assert outcome(ingest_samples, path) == outcome(row_loop_samples, path)
            assert outcome(load_atomic_csv, path) == outcome(row_loop_atomic, path)

    @pytest.mark.parametrize("text, ok", [
        ("x,y\n1,2\n3,nan\n", False),  # the bad cell's line is looked up in the text
        ("x,y\n1_0,0.25\n3,0.75\n", True),  # loadtxt declines 1_0; the row loop reads 10
    ])
    def test_fallback_reads_each_file_once(self, tmp_path, monkeypatch, text, ok):
        reads = []
        read_text = io._read_text

        def counted(path):
            reads.append(path)
            return read_text(path)

        monkeypatch.setattr(io, "_read_text", counted)
        f = tmp_path / "fallback.csv"
        f.write_text(text)
        for load in (ingest_samples, load_atomic_csv):
            reads.clear()
            if ok:
                load(f)
            else:
                with pytest.raises(ParseError):
                    load(f)
            assert reads == [f]

    def test_csv_first_row_typo_raises(self, tmp_path, capsys):
        # one numeric cell makes the first row data, so its typo is an error,
        # not a header to skip
        f = tmp_path / "typo.csv"
        f.write_text("1.0,2x\n3.0,4.0\n5.0,6.0\n")
        with pytest.raises(ParseError) as err:
            ingest_samples(f)
        assert (err.value.row, err.value.column) == (1, 2)
        atomic = tmp_path / "typo_atomic.csv"
        atomic.write_text("1.0,2x,0.5\n3.0,4.0,0.5\n")
        with pytest.raises(ParseError) as err:
            load_atomic_csv(atomic)
        assert (err.value.row, err.value.column) == (1, 2)
        code = main(["verdict", "--inputs", str(f), "--target", "gaussian",
                     "--out", str(tmp_path / "v")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_csv_writers_match_per_cell_format():
    # formatting a block of rows at once writes what formatting each cell alone wrote
    def rows(arr):
        return "".join(",".join(f"{float(x):.17g}" for x in row) + "\n" for row in arr)

    n = io._WRITE_BLOCK + 3  # a full block and a short one
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    pts[0] = [0.0, -0.0, 5e-324]
    pts[-1] = [1e16, 0.1, 1.7976931348623157e308]
    weights = np.full(n, 1 / n)
    measure = Empirical(points=pts, weights=weights)
    assert samples_csv(Empirical(points=pts)) == rows(pts)
    assert atomic_csv(measure) == "x1,x2,x3,weight\n" + rows(np.column_stack([pts, weights]))
    proj = project(measure, Direction([1.0, 0.0, 0.0]))
    assert projected_csv(proj) == "value,weight\n" + rows(np.column_stack([proj.values,
                                                                          proj.weights]))


class TestParseRegion:
    def test_full(self):
        r = parse_region("full", dim_hint=3)
        assert isinstance(r, FullSphere) and r.dim == 3

    def test_cap(self):
        r = parse_region("cap:1,0,0:0.7853981633974483")
        assert isinstance(r, Cap)
        assert r.half_angle == pytest.approx(np.pi / 4)

    def test_union(self):
        r = parse_region("union:1,0:0.5;0,1:0.5")
        assert isinstance(r, UnionOfCaps) and len(r.caps) == 2

    def test_finite(self):
        r = parse_region("finite:1,0;0,1")
        assert isinstance(r, FiniteSet) and len(r.directions) == 2

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_region("banana:1")

    @pytest.mark.parametrize("spec", ["cap:1,x:0.5", "cap:0,0:0.5", "cap:1,0",
                                      "union:1,0:0.5;0,y:0.5", "union:1,0:0.5;0,0:0.5",
                                      "finite:1,0;a,b", "finite:1,0;0,0"])
    def test_malformed_axis_or_vector(self, spec, tmp_path, capsys):
        with pytest.raises(ValueError):
            parse_region(spec)
        code = main(["sample-directions", "--region", spec, "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


@pytest.mark.parametrize("command", ["verdict", "tightness"])
def test_cli_defaults_parse_to_library_defaults(command):
    # the CLI keeps its defaults as strings; each must parse to the default
    # of the library parameter it feeds, so the two tables cannot drift apart
    library = {f.name: f.default for f in dataclasses.fields(VerdictConfig)
               if f.default is not dataclasses.MISSING}
    assert library["frame_tau"] == DEFAULT_FRAME_TAU
    assert inspect.signature(extract_frame).parameters["tau"].default == DEFAULT_FRAME_TAU
    renamed = {"directions": "n_directions", "reference_n": "reference_sample_size"}
    checked = set()
    for key, text in cli.DEFAULTS[command].items():
        if text is None or key == "region":  # the library has no default region
            continue
        want = library[renamed.get(key, key)]
        assert type(want)(text) == want, key
        checked.add(key)
    assert {"directions", "epsilon", "frame_tau"} <= checked


def test_verdict_rejects_unreachable_frame_tau(tmp_path, gaussian_files, capsys):
    # no frame of unit rows has a smallest singular value above 1, or NaN
    code = main(["verdict", "--inputs", ",".join(str(p) for p in gaussian_files),
                 "--target", "gaussian", "--frame-tau", "nan", "--out", str(tmp_path / "v")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "tau" in err["message"]


class TestSubcommands:
    def test_sample_directions(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sample-directions", "--dim", "3", "--directions", "20",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        dirs = read_directions(out / "directions.csv")
        assert len(dirs) == 20
        assert all(abs(np.linalg.norm(u.coords) - 1) <= 1e-12 for u in dirs)
        # 17 significant digits requested in the output format
        first = (out / "directions.csv").read_text().splitlines()[0]
        assert any(len(cell.split(".")[-1].rstrip("0123456789e-")) == 0 and len(cell) >= 10
                   for cell in first.split(","))

    def test_sample_directions_in_cap(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sample-directions", "--dim", "2", "--directions", "50",
                     "--region", "cap:1,0:1.5707963267948966", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        dirs = read_directions(out / "directions.csv")
        assert all(u.coords[0] >= 0 for u in dirs)

    def test_gallery_sample_and_project(self, tmp_path):
        out1 = tmp_path / "s"
        assert main(["gallery-sample", "--dist", "gaussian", "--dim", "2", "--n", "500",
                     "--seed", "2", "--out", str(out1)]) == 0
        out2 = tmp_path / "p"
        assert main(["project", "--input", str(out1 / "sample.csv"),
                     "--direction", "1,0", "--out", str(out2)]) == 0
        text = (out2 / "projected.csv").read_text().splitlines()
        assert text[0] == "value,weight"
        assert len(text) >= 400

    def test_carleman_lognormal_closed_form(self, tmp_path):
        out = tmp_path / "c"
        assert main(["carleman", "--dist", "lognormal", "--carleman-order", "30",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "carleman.json").read_text())
        assert payload["verdict"] == "converging"
        assert payload["partial_sums"][-1] == pytest.approx(0.581976706869, abs=1e-5)

    def test_carleman_input_matches_h2_check(self, tmp_path, gaussian_files):
        out = tmp_path / "c"
        assert main(["carleman", "--input", str(gaussian_files[2]), "--direction", "0.6,0.8",
                     "--carleman-order", "8", "--out", str(out)]) == 0
        payload = json.loads((out / "carleman.json").read_text())
        u = Direction.from_vector([0.6, 0.8])
        frame = Frame([u, Direction(np.array([1.0, 0.0]))])
        # order 16 stays under 2 n^(1/4) at n = 5000: h2_check adds no note
        report = h2_check(ingest_samples(gaussian_files[2]), frame, 8)[0].to_dict()
        assert {key: payload[key] for key in report} == report

    def test_carleman_gaussian(self, tmp_path):
        out = tmp_path / "c"
        assert main(["carleman", "--dist", "gaussian", "--carleman-order", "100",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "carleman.json").read_text())
        assert payload["verdict"] == "diverging"
        assert 20.0 <= payload["partial_sums"][-1] <= 24.0

    def test_counterexample(self, tmp_path):
        out = tmp_path / "ce"
        assert main(["counterexample", "--kernels", "1,0;0,1", "--out", str(out)]) == 0
        p = load_atomic_csv(out / "counterexample_p.csv")
        q = load_atomic_csv(out / "counterexample_q.csv")
        dirs = read_directions(out / "certified_directions.csv")
        assert p.n == q.n == 2
        assert len(dirs) == 2

    def test_reconstruct(self, tmp_path):
        from cwkit.directions import sample_uniform
        from cwkit.moments import MixedMoments, mixed_to_directional, multi_indices_upto

        table = {a: 0.0 for a in multi_indices_upto(2, 2)}
        table[(0, 0)] = 1.0
        table[(2, 0)] = 0.25
        table[(1, 1)] = -0.5
        table[(0, 2)] = 1.5
        mm = MixedMoments(dim=2, max_order=2, table=table)
        obs = tmp_path / "obs.csv"
        lines = []
        for u in sample_uniform(2, 8, seed=3):
            lines.append(f"{float(u.coords[0])!r},{float(u.coords[1])!r},{mixed_to_directional(mm, u, 2)!r}")
        obs.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rec"
        assert main(["reconstruct", "--input", str(obs), "--order", "2",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "reconstruction.json").read_text())
        got = dict(zip(map(tuple, payload["exponents"]), payload["coefficients"]))
        assert got[(2, 0)] == pytest.approx(0.25, abs=1e-10)
        assert got[(1, 1)] == pytest.approx(-0.5, abs=1e-10)
        assert got[(0, 2)] == pytest.approx(1.5, abs=1e-10)
        csv_lines = (out / "mixed_moments.csv").read_text().splitlines()
        assert csv_lines[0] == "alpha1,alpha2,value"
        assert csv_lines[1].startswith("2,0,")

    def test_reconstruct_bit_equal_to_library(self, tmp_path):
        # rows at 17 digits read back as the very Directions that were written
        from cwkit.directions import sample_uniform
        from cwkit.moments import reconstruct_mixed

        dirs = sample_uniform(3, 20, seed=6)
        values = np.random.default_rng(6).standard_normal(20)
        obs = tmp_path / "obs.csv"
        obs.write_text("".join(",".join(f"{x:.17g}" for x in (*u.coords, v)) + "\n"
                               for u, v in zip(dirs, values)))
        out = tmp_path / "rec"
        assert main(["reconstruct", "--input", str(obs), "--order", "3",
                     "--out", str(out)]) == 0
        got = json.loads((out / "reconstruction.json").read_text())["coefficients"]
        want = reconstruct_mixed(list(zip(dirs, values)), 3, 3).coefficients
        assert np.array(got).tobytes() == want.tobytes()

    def test_trace_and_tightness(self, tmp_path, gaussian_files):
        inputs = ",".join(str(p) for p in gaussian_files)
        out = tmp_path / "tr"
        assert main(["trace", "--inputs", inputs, "--target", str(gaussian_files[-1]),
                     "--direction", "0,1", "--metric", "w1", "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "direction_id,n,distance"
        assert len(lines) == 4
        out2 = tmp_path / "tb"
        assert main(["tightness", "--inputs", inputs, "--epsilon", "0.2",
                     "--directions", "10", "--seed", "3", "--out", str(out2)]) == 0
        payload = json.loads((out2 / "tightness.json").read_text())
        assert min(payload["achieved_coverage"]) >= 0.8


class TestVerdictCommand:
    def run_verdict_cli(self, tmp_path, gaussian_files, target, outname):
        inputs = ",".join(str(p) for p in gaussian_files)
        out = tmp_path / outname
        code = main(["verdict", "--inputs", inputs, "--target", target,
                     "--directions", "20", "--seed", "11", "--out", str(out)])
        return code, out

    def test_gaussian_exit_zero(self, tmp_path, gaussian_files):
        code, out = self.run_verdict_cli(tmp_path, gaussian_files, "gaussian", "v")
        assert code == 0
        payload = json.loads((out / "verdict.json").read_text())
        assert payload["overall"] == "consistent_with_convergence"
        assert (out / "traces.csv").exists()
        assert (out / "config_echo.cfg").exists()

    def test_shifted_exit_one(self, tmp_path, gaussian_files):
        shifted = tmp_path / "shifted.csv"
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((20000, 2)) + np.array([1.0, 0.0])
        shifted.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rows))
        code, out = self.run_verdict_cli(tmp_path, gaussian_files, str(shifted), "v1")
        assert code == 1
        payload = json.loads((out / "verdict.json").read_text())
        assert payload["overall"] == "inconsistent"

    def test_echo_replay_byte_identical(self, tmp_path, gaussian_files):
        code, out = self.run_verdict_cli(tmp_path, gaussian_files, "gaussian", "v2")
        assert code == 0
        replay = tmp_path / "v2_replay"
        assert main(["run", "--config", str(out / "config_echo.cfg"),
                     "--out", str(replay)]) == 0
        for name in ("verdict.json", "traces.csv"):
            assert (out / name).read_bytes() == (replay / name).read_bytes()

    def test_gaussian_moment_order_past_eight(self, tmp_path):
        # the Gaussian moment table has no order cap
        paths = []
        for seed, n in ((1, 300), (2, 2000)):
            out = tmp_path / f"g{seed}"
            assert main(["gallery-sample", "--dist", "gaussian", "--dim", "2", "--n", str(n),
                         "--seed", str(seed), "--out", str(out)]) == 0
            paths.append(str(out / "sample.csv"))
        out = tmp_path / "v9"
        code = main(["verdict", "--inputs", ",".join(paths), "--target", "gaussian",
                     "--directions", "10", "--moment-order", "9", "--out", str(out)])
        assert code in (0, 1)
        rows = json.loads((out / "verdict.json").read_text())["moment_match"]
        assert [r["order"] for r in rows] == list(range(1, 10))

    def test_seed_from_environment(self, tmp_path, gaussian_files, monkeypatch):
        monkeypatch.setenv("CWKIT_SEED", "11")
        inputs = ",".join(str(p) for p in gaussian_files)
        out_env = tmp_path / "venv_seed"
        assert main(["verdict", "--inputs", inputs, "--target", "gaussian",
                     "--directions", "20", "--out", str(out_env)]) == 0
        echo = (out_env / "config_echo.cfg").read_text()
        assert "seed = 11" in echo

    def test_flags_beat_config_file(self, tmp_path, gaussian_files):
        cfgfile = tmp_path / "base.cfg"
        cfgfile.write_text("# base settings\ndirections = 20\nseed = 4\nmetric = w1\n")
        inputs = ",".join(str(p) for p in gaussian_files)
        out = tmp_path / "vflag"
        assert main(["verdict", "--config", str(cfgfile), "--inputs", inputs,
                     "--target", "gaussian", "--seed", "9", "--out", str(out)]) == 0
        echo = (out / "config_echo.cfg").read_text()
        assert "seed = 9" in echo        # flag wins
        assert "metric = w1" in echo     # config survives where no flag given
        assert "directions = 20" in echo

    @pytest.mark.parametrize("target", ["gaussian", "sample"])
    def test_far_from_origin_is_a_verdict(self, tmp_path, target):
        # projections of 1e6 + 1e-4 N(0, I) lie a few floats apart, yet more
        # than MERGE_TOL apart: translated data gets a verdict, not an error
        rng = np.random.default_rng(17)
        paths = []
        for n in (2000, 20000, 5000):
            p = tmp_path / f"off_{n}.csv"
            rows = 1e6 + 1e-4 * rng.standard_normal((n, 2))
            p.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rows))
            paths.append(str(p))
        spec = paths[2] if target == "sample" else target
        out = tmp_path / "voff"
        code = main(["verdict", "--inputs", ",".join(paths[:2]), "--target", spec,
                     "--directions", "20", "--seed", "3", "--out", str(out)])
        assert code in (0, 1)
        assert (out / "verdict.json").exists()


ATOMS = np.array([[1.0, 0.5], [-0.5, 1.5], [0.25, -1.0]])
ATOM_WEIGHTS = np.array([0.5, 0.25, 0.25])


@pytest.fixture
def atomic_file(tmp_path):
    path = tmp_path / "measure.csv"
    path.write_text(atomic_csv(AtomicMeasure(ATOMS, ATOM_WEIGHTS)))
    return path


@pytest.fixture
def atomic_draws(tmp_path, atomic_file):
    paths = []
    for seed, n in enumerate((200, 1000, 5000), start=1):
        out = tmp_path / f"draw{seed}"
        assert main(["gallery-sample", "--dist", f"atomic:{atomic_file}", "--n", str(n),
                     "--seed", str(seed), "--out", str(out)]) == 0
        paths.append(out / "sample.csv")
    return paths


class TestAtomicForms:
    def test_gallery_sample(self, tmp_path, atomic_file):
        out = tmp_path / "g"
        assert main(["gallery-sample", "--dist", f"atomic:{atomic_file}", "--n", "300",
                     "--seed", "5", "--out", str(out)]) == 0
        expected = gallery.sample(load_atomic_csv(atomic_file), 300, 5)
        assert (out / "sample.csv").read_text() == samples_csv(expected)
        drawn = ingest_samples(out / "sample.csv").points
        assert all(any(np.array_equal(row, atom) for atom in ATOMS) for row in drawn)

    def test_verdict_target(self, tmp_path, atomic_file, gaussian_files):
        out = tmp_path / "v"
        code = main(["verdict", "--inputs", ",".join(str(p) for p in gaussian_files),
                     "--target", f"atomic:{atomic_file}", "--directions", "20",
                     "--seed", "11", "--out", str(out)])
        assert code == 1
        payload = json.loads((out / "verdict.json").read_text())
        assert payload["overall"] == "inconsistent"
        assert payload["h1"]["n_failed"] == 20
        # exact target: no reference draw, no noise note on its Carleman scan
        assert payload["flags"] == []
        assert [c["verdict"] for c in payload["carleman"]] == ["diverging", "diverging"]
        assert all(c["note"] == "" for c in payload["carleman"])
        assert (payload["provenance"]["target_digest"]
                == load_atomic_csv(atomic_file).digest())

    def test_verdict_on_atomic_draws(self, tmp_path, atomic_file, atomic_draws):
        # the draws tie at every tightness quantile
        out = tmp_path / "v"
        code = main(["verdict", "--inputs", ",".join(str(p) for p in atomic_draws),
                     "--target", f"atomic:{atomic_file}", "--directions", "20",
                     "--seed", "11", "--out", str(out)])
        payload = json.loads((out / "verdict.json").read_text())
        assert code == 0
        assert payload["overall"] == "consistent_with_convergence"
        assert min(payload["tightness"]["achieved_coverage"]) >= 0.9 - 1e-9

    def test_trace_target(self, tmp_path, atomic_file, atomic_draws):
        out = tmp_path / "t"
        assert main(["trace", "--inputs", ",".join(str(p) for p in atomic_draws),
                     "--target", f"atomic:{atomic_file}", "--direction", "1,0",
                     "--metric", "ks", "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]]
        u = Direction(np.array([1.0, 0.0]))
        exact = project(load_atomic_csv(atomic_file), u)
        assert [int(r[1]) for r in rows] == [200, 1000, 5000]
        for row, path in zip(rows, atomic_draws):
            assert float(row[2]) == ks_distance(project(ingest_samples(path), u), exact)

    def test_carleman_dist(self, tmp_path, atomic_file):
        out = tmp_path / "c"
        assert main(["carleman", "--dist", f"atomic:{atomic_file}", "--carleman-order", "10",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "carleman.json").read_text())
        assert payload["verdict"] == "diverging"
        v = ATOMS[:, 0]
        terms = [(ATOM_WEIGHTS @ v ** (2 * m)) ** (-1.0 / (2 * m)) for m in range(1, 11)]
        assert payload["terms"] == pytest.approx(terms, rel=1e-12)

    @pytest.mark.parametrize("command", ["gallery-sample", "carleman"])
    def test_sample_csv_as_dist_exit_two(self, tmp_path, capsys, gaussian_files, command):
        code = main([command, "--dist", str(gaussian_files[0]), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "ValueError"
        assert "analytic" in payload["message"]


class TestErrorPaths:
    def test_missing_file_exit_two(self, tmp_path, capsys):
        code = main(["verdict", "--inputs", str(tmp_path / "nope.csv"),
                     "--target", "gaussian", "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] in ("FileNotFoundError", "OSError")

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\nx,y\n")
        code = main(["project", "--input", str(bad), "--direction", "1,0",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["row"] == 2

    def test_negative_h1_tolerance_exit_two(self, tmp_path, capsys, gaussian_files):
        # a negative tolerance would fail every direction: exit 1 on any data
        code = main(["verdict", "--inputs", ",".join(map(str, gaussian_files)),
                     "--target", "gaussian", "--h1-tolerance", "-1", "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "h1_tolerance" in err["message"]

    def test_missing_required_option(self, tmp_path, capsys):
        code = main(["project", "--direction", "1,0", "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "input" in err["message"]

    def test_internal_error_exit_two(self, tmp_path, capsys, gaussian_files, monkeypatch):
        # exit 1 means an inconsistent verdict, so a crash must not produce it
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_verdict", crash)
        out = tmp_path / "o"
        code = main(["verdict", "--inputs", str(gaussian_files[0]), "--target", "gaussian",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "RuntimeError"
        assert payload["message"] == "boom"
        assert "raise RuntimeError" in payload["traceback"]
        assert not (out / "verdict.json").exists()


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(cwkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, cwkit.cli; print(sorted(m for m in "
            "('scipy.stats', 'scipy.special', 'mpmath') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with it unimportable, an analytic
    # Gaussian verdict under the trend rule and the Gaussian Carleman
    # subcommand still run
    src = str(Path(cwkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
from cwkit import FullSphere, Gaussian, VerdictConfig, run_verdict, sample
from cwkit.cli import main
g = Gaussian(np.array([0.5, -1.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
seq = [sample(g, n, seed=i) for i, n in enumerate((100, 1000, 5000))]
config = VerdictConfig(region=FullSphere(2), n_directions=8, h1_rule="monotone_trend",
                       reference_sample_size=5000, seed=3)
report = run_verdict(seq, g, config)
assert any(np.isfinite(r.kendall_tau) for r in report.h1_results)
print(report.overall)
print(main(["carleman", "--dist", "gaussian", "--carleman-order", "30",
            "--out", {str(tmp_path / "carl")!r}]))
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    overall, carleman_code = done.stdout.split()
    assert overall in ("consistent_with_convergence", "inconsistent", "inconclusive")
    assert carleman_code == "0"
    payload = json.loads((tmp_path / "carl" / "carleman.json").read_text())
    assert payload["verdict"] == "diverging"
