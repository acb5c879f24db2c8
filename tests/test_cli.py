import csv
import json
import math

import pytest

from patil.cli import (
    EXIT_CONFIG,
    EXIT_CRITERION,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SEMANTIC,
    SCHEMA_VERSION,
    main,
)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"entry": "example2", "interval": [-1.0, 1.0]}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class TestCatalogCommand:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == EXIT_OK
        out = capsys.readouterr().out.split()
        assert out == ["example1", "example2", "h2pole"]


class TestGrowthCommand:
    def test_example2_meets_prediction(self, tmp_path):
        cfg = write_config(
            tmp_path,
            eval_points=[2.0],
            lambda_grid=[10.0 ** k for k in range(2, 9)],
        )
        out = str(tmp_path / "growth.csv")
        assert main(["growth", "--config", cfg, "--out", out]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["lambda", "x", "magnitude",
                          "fitted_slope", "predicted_slope"]
        assert len(rows) == 7
        assert float(rows[0][4]) == pytest.approx(0.25)
        assert abs(float(rows[0][3]) - 0.25) <= 0.05

    def test_empty_lambda_grid(self, tmp_path):
        cfg = write_config(tmp_path, eval_points=[2.0], lambda_grid=[])
        assert main(["growth", "--config", cfg]) == EXIT_CONFIG

    def test_point_inside_interval(self, tmp_path, capsys):
        cfg = write_config(tmp_path, eval_points=[0.5])
        assert main(["growth", "--config", cfg]) == EXIT_CONFIG
        assert "outside" in capsys.readouterr().err

    def test_point_at_endpoint(self, tmp_path):
        cfg = write_config(tmp_path, eval_points=[1.0])
        assert main(["growth", "--config", cfg]) == EXIT_CONFIG

    def test_slope_criterion_not_met(self, tmp_path):
        cfg = write_config(
            tmp_path,
            eval_points=[2.0],
            lambda_grid=[10.0 ** k for k in range(2, 9)],
            slope_tolerance=1e-6,
        )
        assert main(["growth", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == EXIT_CRITERION

    def test_missing_config_file(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["growth", "--config", missing]) == EXIT_CONFIG

    def test_nonconvergence_exit(self, tmp_path):
        cfg = write_config(
            tmp_path,
            eval_points=[2.0],
            lambda_grid=[10.0 ** k for k in range(2, 9)],
            tolerances={"abs_tol": 1e-14, "rel_tol": 1e-14,
                        "max_subdivisions": 3},
        )
        assert main(["growth", "--config", cfg]) == EXIT_NUMERIC


class TestConvergeCommand:
    def test_h2pole_nonincreasing(self, tmp_path):
        cfg = write_config(
            tmp_path,
            entry="h2pole",
            eval_points=[[0.0, 1.0], [0.5, 0.5]],
            lambda_grid=[1e2, 1e4, 1e6],
            window=[-2.0, 2.0],
            n_samples=11,
        )
        out = str(tmp_path / "conv.csv")
        assert main(["converge", "--config", cfg, "--out", out]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["lambda", "sup_error", "l2_error"]
        sups = [float(r[1]) for r in rows]
        l2s = [float(r[2]) for r in rows]
        assert sups == sorted(sups, reverse=True)
        assert l2s == sorted(l2s, reverse=True)

    def test_single_lambda_ok(self, tmp_path):
        cfg = write_config(
            tmp_path,
            entry="h2pole",
            eval_points=[[0.0, 1.0]],
            lambda_grid=[1e3],
            window=[-2.0, 2.0],
            n_samples=5,
        )
        assert main(["converge", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OK

    def test_entry_without_reference(self, tmp_path, capsys):
        cfg = write_config(tmp_path, entry="example1",
                           eval_points=[[0.0, 1.0]], lambda_grid=[1e2, 1e4])
        assert main(["converge", "--config", cfg]) == EXIT_SEMANTIC
        assert "reference" in capsys.readouterr().err

    def test_real_point_rejected(self, tmp_path):
        cfg = write_config(tmp_path, entry="h2pole", eval_points=[2.0],
                           lambda_grid=[1e2, 1e4])
        assert main(["converge", "--config", cfg]) == EXIT_CONFIG

    def test_zero_samples_rejected(self, tmp_path):
        cfg = write_config(tmp_path, entry="h2pole", eval_points=[[0.0, 1.0]],
                           lambda_grid=[1e2], n_samples=0)
        assert main(["converge", "--config", cfg]) == EXIT_CONFIG

    def test_nonfinite_quadrature_exit(self, tmp_path, capsys):
        # the window sample at -1 is nudged to -0.999996, where a
        # quadrature node lands on the endpoint
        cfg = write_config(tmp_path, entry="h2pole", eval_points=[[0.0, 1.0]],
                           lambda_grid=[1e10, 1e11, 1e12],
                           window=[-5.0, 5.0], n_samples=101)
        out = str(tmp_path / "o.csv")
        assert main(["converge", "--config", cfg, "--out", out]) == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err


class TestContourCommand:
    def test_example2_identity(self, tmp_path):
        cfg = write_config(
            tmp_path,
            contour={"xi": [0.5, 1.0], "alpha": [2.0, 3.0], "R": 20.0},
        )
        out = str(tmp_path / "contour.csv")
        assert main(["contour", "--config", cfg, "--out", out]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["xi", "alpha", "R", "height", "residual"]
        assert len(rows) == 4
        assert all(float(r[4]) < 1e-6 for r in rows)

    def test_bad_height(self, tmp_path):
        cfg = write_config(tmp_path, contour={"height": math.pi})
        assert main(["contour", "--config", cfg]) == EXIT_CONFIG

    def test_r_too_small(self, tmp_path):
        cfg = write_config(tmp_path, contour={"R": 1.0, "alpha": [2.0]})
        assert main(["contour", "--config", cfg]) == EXIT_CONFIG


class TestOutputFormats:
    def _growth_cfg(self, tmp_path):
        return write_config(
            tmp_path,
            eval_points=[2.0],
            lambda_grid=[10.0 ** k for k in range(2, 9)],
        )

    def test_reproducible_csv_is_bit_identical(self, tmp_path):
        cfg = self._growth_cfg(tmp_path)
        outs = [str(tmp_path / f"g{i}.csv") for i in (1, 2)]
        for out in outs:
            assert main(["growth", "--config", cfg, "--out", out,
                         "--reproducible"]) == EXIT_OK
        a, b = (open(o).read() for o in outs)
        assert a == b
        assert not a.startswith("#")

    def test_nonreproducible_csv_has_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0]})
        out = str(tmp_path / "c.csv")
        assert main(["contour", "--config", cfg, "--out", out]) == EXIT_OK
        assert open(out).read().startswith("# generated ")

    def test_unknown_format_rejected(self, tmp_path):
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0]},
                           format="xml")
        assert main(["contour", "--config", cfg]) == EXIT_CONFIG

    def test_json_document(self, tmp_path):
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0]})
        out = str(tmp_path / "c.json")
        assert main(["contour", "--config", cfg, "--out", out,
                     "--format", "json", "--reproducible"]) == EXIT_OK
        doc = json.load(open(out))
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["columns"] == ["xi", "alpha", "R", "height", "residual"]
        assert "generated" not in doc
        assert len(doc["rows"]) == 1
