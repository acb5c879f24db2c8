import csv
import datetime
import importlib.util
import json
import math
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patil.cli as cli
from patil.cli import (
    EXIT_CONFIG,
    EXIT_CRITERION,
    EXIT_INTERNAL,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SEMANTIC,
    SCHEMA_VERSION,
    ConfigError,
    ExperimentConfig,
    main,
)

# the benchmark's mpmath oracle, loaded read-only from its file
_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"entry": "example2", "interval": [-1.0, 1.0]}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def no_cell(*args, **kwargs):
    raise AssertionError("a g_lambda value was computed")


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

    @pytest.mark.parametrize("x", [-1.0, 1.0])
    def test_point_at_endpoint(self, tmp_path, capsys, x):
        cfg = write_config(tmp_path, eval_points=[x])
        assert main(["growth", "--config", cfg]) == EXIT_CONFIG
        assert "outside the closed interval" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["example2", "h2pole"])
    def test_point_beside_endpoint_matches_oracle(self, tmp_path, entry):
        # the residue path takes points as near an endpoint as a double goes
        points = [-1.0 - 1e-12, 1.0 + 1e-7]
        cfg = write_config(tmp_path, entry=entry, eval_points=points)
        out = str(tmp_path / "o.csv")
        assert main(["growth", "--config", cfg, "--out", out]) == EXIT_OK
        _, rows = read_csv(out)
        assert [float(r[1]) for r in rows[:2]] == points
        c, w = oracle.RATIONAL_ENTRIES[entry]
        for lam, x, mag, *_ in rows:
            want = abs(oracle.approximant(float(x), float(lam), -1.0, 1.0, c, w))
            assert abs(float(mag) - want) <= 1e-12 * want, (lam, x)

    def test_no_eval_points(self, tmp_path, capsys):
        cfg = write_config(tmp_path, eval_points=[])
        assert main(["growth", "--config", cfg]) == EXIT_CONFIG
        assert "at least one eval point" in capsys.readouterr().err

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

    @pytest.mark.parametrize("grid", [[10, 100], [10, 100, 1000, 10000]])
    def test_short_grid_refused_before_any_cell(self, tmp_path, capsys,
                                                monkeypatch, grid):
        monkeypatch.setattr(cli, "approximant_table", no_cell)
        cfg = write_config(tmp_path, eval_points=[2.0], lambda_grid=grid)
        assert main(["growth", "--config", cfg]) == EXIT_CONFIG
        assert "bad lambda_grid" in capsys.readouterr().err

    def test_interval_of_strip_poles_enforced(self, tmp_path, capsys, monkeypatch):
        # example1's strip pole at i pi needs I = (-a, a); every other
        # entry derives its strip poles from the configured interval
        monkeypatch.setattr(cli, "approximant_table", no_cell)
        cfg = write_config(tmp_path, entry="example1", interval=[-1.0, 2.0],
                           eval_points=[3.0],
                           lambda_grid=[10.0 ** k for k in range(2, 9)])
        assert main(["growth", "--config", cfg]) == EXIT_CONFIG
        assert "Interval(lo=-1.0, hi=2.0)" in capsys.readouterr().err

    def test_interval_of_entry_args_accepted(self, tmp_path, monkeypatch):
        # the entry's interval is the config's; entry_args cannot set it
        monkeypatch.setattr(cli, "approximant_table",
                            lambda xs, lams, *a, **k: [[1.0] * len(xs)] * len(lams))
        cfg = write_config(tmp_path, entry="example1", interval=[-2.0, 2.0],
                           eval_points=[3.0],
                           lambda_grid=[10.0 ** k for k in range(2, 9)])
        assert main(["growth", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OK
        for args in ({"a": 2.0}, {"interval": [-2.0, 2.0]}):
            cfg = write_config(tmp_path, entry="example1", entry_args=args,
                               interval=[-2.0, 2.0], eval_points=[3.0])
            assert main(["growth", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("command,points", [("growth", [2.0, -3.0]),
                                                ("converge", [[0.0, 1.0]])])
    def test_tolerances_do_not_act(self, tmp_path, command, points):
        # every catalog entry declares its period, so growth and converge
        # take the residue sum, which no quadrature tolerance reaches
        rows = []
        for tolerances in ({}, {"abs_tol": 1e-14, "rel_tol": 1e-14,
                                "max_subdivisions": 3}):
            out = tmp_path / f"{len(rows)}.csv"
            cfg = write_config(tmp_path, entry="h2pole", eval_points=points,
                               lambda_grid=[10.0 ** k for k in range(2, 9)],
                               tolerances=tolerances)
            assert main([command, "--config", cfg, "--out", str(out),
                         "--reproducible"]) in (EXIT_OK, EXIT_CRITERION)
            rows.append(out.read_text())
        assert rows[0] == rows[1]


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

    def test_point_beside_endpoint_matches_oracle(self, tmp_path):
        # sup_error against the same aggregate of oracle values, to 1e-12
        # of the reference's scale on the points, as perfbench checks it
        points = [[-1.0, 1e-7], [1.0, 1e-12]]
        cfg = write_config(tmp_path, entry="h2pole", eval_points=points,
                           n_samples=11)
        out = str(tmp_path / "o.csv")
        assert main(["converge", "--config", cfg, "--out", out]) == EXIT_OK
        _, rows = read_csv(out)
        c, w = oracle.RATIONAL_ENTRIES["h2pole"]
        zs = [complex(*p) for p in points]
        scale = max(abs(oracle.data(z, c, w)) for z in zs)
        assert len(rows) == 8
        for lam, sup, _ in rows:
            want = max(abs(oracle.deviation(z, float(lam), -1.0, 1.0, c, w)) for z in zs)
            assert abs(float(sup) - want) <= 1e-12 * scale, lam

    def test_point_where_doubles_end_refused(self, tmp_path, capsys):
        # (z - hi)/(z - lo) overflows a double there: a typed refusal, no NaN row
        cfg = write_config(tmp_path, entry="h2pole", eval_points=[[-1.0, 1e-310]])
        out = tmp_path / "o.csv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == EXIT_SEMANTIC
        assert "within 1e-300*|I| of endpoint x=-1.0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_samples_rejected(self, tmp_path):
        cfg = write_config(tmp_path, entry="h2pole", eval_points=[[0.0, 1.0]],
                           lambda_grid=[1e2], n_samples=0)
        assert main(["converge", "--config", cfg]) == EXIT_CONFIG

    def test_near_endpoint_window_exits_ok(self, tmp_path, capsys):
        # the window sample at -1 is nudged to -0.999996, inside I, where
        # the t-domain principal value once put a quadrature node on lo
        cfg = write_config(tmp_path, entry="h2pole", eval_points=[[0.0, 1.0]],
                           lambda_grid=[1e10, 1e11, 1e12],
                           window=[-5.0, 5.0], n_samples=101)
        out = str(tmp_path / "o.csv")
        # no numpy divide or invalid-value warning may escape either
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["converge", "--config", cfg, "--out", out]) == EXIT_OK
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert all(math.isfinite(float(v)) for row in rows for v in row)


class TestContourCommand:
    def test_nonconvergence_names_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0]},
                           tolerances={"max_subdivisions": 9})
        assert main(["contour", "--config", cfg]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        # the bottom edge starts on 20 panels, more than the budget allows
        assert err.startswith("numeric error: contour at xi=1.0, alpha=2.0, "
                              "bottom edge: error ")
        assert err.rstrip().endswith("after 20 panels (max_subdivisions=9)")

    @pytest.mark.parametrize("R", [1e9, 1e300])
    def test_huge_r_refused(self, tmp_path, capsys, R):
        # refused before any of its int(R) initial panels is made
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0], "R": R})
        start = time.perf_counter()
        assert main(["contour", "--config", cfg]) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "R must be at most 744.44" in err
        assert err.count("\n") == 1

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

    def test_h2pole_pole_above_pi(self, tmp_path):
        # the pullback pole 2 artanh(-2i) + 2 pi i at Im 1.295 pi is enclosed
        cfg = write_config(tmp_path, entry="h2pole", entry_args={"w": "-2j"},
                           contour={"xi": [0.5, 2.0], "alpha": [2.0], "R": 20.0})
        out = str(tmp_path / "contour.csv")
        assert main(["contour", "--config", cfg, "--out", out]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 2
        assert all(float(r[4]) < 1e-10 for r in rows)

    def test_h2pole_pole_beyond_sides(self, tmp_path):
        # w = 1.001 - 0.0001i lists a pole near 7.596 + 3.241i: below the
        # top but right of R = 5, so it is not enclosed
        cfg = write_config(tmp_path, entry="h2pole",
                           entry_args={"w": "1.001-0.0001j"},
                           contour={"xi": [0.5, 2.0], "alpha": [2.0], "R": 5.0})
        out = str(tmp_path / "contour.csv")
        assert main(["contour", "--config", cfg, "--out", out]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 2
        assert all(float(r[4]) < 1e-10 for r in rows)

    @pytest.mark.parametrize("height,code", [(1.5 * math.pi, EXIT_SEMANTIC),
                                             (1.25 * math.pi, EXIT_OK)])
    def test_h2pole_default_pole_at_top(self, tmp_path, capsys, height, code):
        # w = -i puts the pullback pole at 3 pi i / 2: on the default top
        # edge, and above a top at 1.25 pi, where it is not enclosed
        cfg = write_config(tmp_path, entry="h2pole",
                           contour={"xi": [0.5, 2.0], "alpha": [2.0],
                                    "R": 20.0, "height": height})
        out = str(tmp_path / "contour.csv")
        assert main(["contour", "--config", cfg, "--out", out]) == code
        if code == EXIT_SEMANTIC:
            assert "on a contour edge" in capsys.readouterr().err
        else:
            assert all(float(r[4]) < 1e-10 for r in read_csv(out)[1])

    def test_example1_wide_interval(self, tmp_path):
        # on (-3e7, 3e7) the pullback is about 1.7e8 at the regular kernel
        # pole i pi + ln 2: large, yet no pole
        cfg = write_config(tmp_path, entry="example1", interval=[-3e7, 3e7],
                           contour={"xi": [0.5, 2.0], "alpha": [2.0, 3.0]})
        out = str(tmp_path / "contour.csv")
        assert main(["contour", "--config", cfg, "--out", out]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 4
        assert all(float(r[4]) < 1e-6 for r in rows)

    @pytest.mark.parametrize("lists", [{"xi": []}, {"alpha": []}])
    def test_empty_list_refused(self, tmp_path, capsys, lists):
        # no (xi, alpha) pair means no residual, not a criterion met
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0],
                                              **lists})
        assert main(["contour", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: bad contour: ")

    def test_eval_points_not_read(self, tmp_path):
        # contour computes no g_lambda value, so a point near hi is no error
        cfg = write_config(tmp_path, eval_points=[0.99999999],
                           contour={"xi": [1.0], "alpha": [2.0]})
        out = str(tmp_path / "contour.csv")
        assert main(["contour", "--config", cfg, "--out", out]) == EXIT_OK

    def test_runner_returns_rows(self, capsys):
        cfg = ExperimentConfig.from_dict(
            {"entry": "example2", "contour": {"xi": [1.0], "alpha": [2.0]}})
        header, rows, criterion_met = cli.run_contour_check(cfg)
        assert header == ["xi", "alpha", "R", "height", "residual"]
        assert len(rows) == 1 and rows[0][:2] == (1.0, 2.0)
        assert criterion_met
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("height", [math.pi, math.pi + 5e-7])
    def test_bad_height(self, tmp_path, height):
        cfg = write_config(tmp_path, contour={"height": height})
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
        a, b = (Path(o).read_text() for o in outs)
        assert a == b
        assert not a.startswith("#")

    @pytest.mark.parametrize("flags", [[], ["--out", "-"], ["--out", ""]])
    def test_default_is_csv_on_stdout(self, tmp_path, capsys, flags):
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0]})
        out = tmp_path / "c.csv"
        assert main(["contour", "--config", cfg, "--reproducible", "--out", str(out),
                     "--format", "csv"]) == EXIT_OK
        assert main(["contour", "--config", cfg, "--reproducible", *flags]) == EXIT_OK
        assert capsys.readouterr().out == out.read_text()

    def test_nonreproducible_csv_has_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0]})
        out = str(tmp_path / "c.csv")
        assert main(["contour", "--config", cfg, "--out", out]) == EXIT_OK
        assert Path(out).read_text().startswith("# generated ")

    def test_nonreproducible_json_has_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0]})
        out = str(tmp_path / "c.json")
        assert main(["contour", "--config", cfg, "--out", out,
                     "--format", "json"]) == EXIT_OK
        doc = json.loads(Path(out).read_text())
        assert datetime.datetime.fromisoformat(doc["generated"])
        assert len(doc["rows"]) == 1

    @pytest.mark.parametrize("where", ["missing/o.csv", "."])
    def test_unwritable_out_refused_before_any_cell(self, tmp_path, capsys,
                                                    monkeypatch, where):
        # a missing directory or a directory as the file: exit 2 at once
        monkeypatch.setattr(cli, "approximant_table", no_cell)
        cfg = write_config(tmp_path, entry="h2pole", eval_points=[[0.0, 1.0]],
                           lambda_grid=[1e2, 1e4])
        out = str(tmp_path / where)
        assert main(["converge", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: cannot write output file {out!r}\n"

    def test_failed_run_leaves_no_file(self, tmp_path):
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0]},
                           tolerances={"max_subdivisions": 9})
        out = tmp_path / "o.csv"
        assert main(["contour", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
        assert not out.exists()

    def test_unknown_format_rejected(self, tmp_path):
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0]},
                           format="xml")
        assert main(["contour", "--config", cfg]) == EXIT_CONFIG

    def test_json_document(self, tmp_path):
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0]})
        out = str(tmp_path / "c.json")
        assert main(["contour", "--config", cfg, "--out", out,
                     "--format", "json", "--reproducible"]) == EXIT_OK
        doc = json.loads(Path(out).read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["columns"] == ["xi", "alpha", "R", "height", "residual"]
        assert "generated" not in doc
        assert len(doc["rows"]) == 1


class TestConfigErrors:
    """Malformed, non-finite or unknown config values exit 2, never a traceback."""

    @pytest.mark.parametrize("command,overrides", [
        ("converge", {"entry": "h2pole", "eval_points": [[0, 1]],
                      "n_samples": "many"}),
        ("growth", {"lambda_grid": [100, "x"]}),
        ("growth", {"entry_args": {"b": 1}}),
        ("growth", {"entry_args": ["a"]}),
        ("contour", {"contour": {"xi": ["a"]}}),
        ("contour", {"contour": {"xi": 1.0}}),
        ("contour", {"contour": "x"}),
        ("converge", {"entry": "h2pole", "eval_points": [[1]]}),
        ("growth", {"tolerances": {"abs_tol": "x"}}),
        ("growth", {"slope_tolerance": "x"}),
        ("growth", {"lambda_grid": [10, 100, 1e3, 1e4, 1e5, "NaN"]}),
        ("growth", {"entry": "nosuch"}),
        ("contour", {"contour": {"alpha": [1.0]}}),
        ("contour", {"contour": {"xi": [-50.0]}}),
    ])
    def test_bad_value_exits_config(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, **{"eval_points": [2.0], **overrides})
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,overrides,fault", [
        # a runner that fails as no config can make it fail, a fault of the program
        ("contour", {"contour": {"xi": [1.0], "alpha": [2.0]}}, "ValueError"),
    ])
    def test_unexpected_error_exits_internal(self, tmp_path, capsys, monkeypatch,
                                             command, overrides, fault):
        def runner(cfg):
            raise ValueError("a fault of the runner")
        monkeypatch.setattr(cli, "run_contour_check", runner)
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", cfg]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith(f"internal error: {fault}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,overrides,key", [
        ("converge", {"entry": "h2pole", "eval_points": [[0, 1]],
                      "n_samples": 3.7}, "bad n_samples: "),
        ("growth", {"tolerances": {"max_subdivisions": 4000.9}},
         "bad max_subdivisions: "),
    ])
    def test_fractional_count_exits_config(self, tmp_path, capsys, command,
                                           overrides, key):
        cfg = write_config(tmp_path, **{"eval_points": [2.0], **overrides})
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err and "need a whole number" in err

    def test_whole_float_count_accepted(self):
        cfg = ExperimentConfig.from_dict({
            "entry": "h2pole", "n_samples": 101.0,
            "tolerances": {"max_subdivisions": 4000.0}})
        assert cfg.n_samples == 101 and type(cfg.n_samples) is int
        assert cfg.tolerances.max_subdivisions == 4000
        assert type(cfg.tolerances.max_subdivisions) is int

    @pytest.mark.parametrize("command,overrides,message", [
        # numbers given as JSON strings or booleans used to be converted
        ("converge", {"entry": "h2pole", "eval_points": [[0, 1]],
                      "lambda_grid": ["1e2"], "n_samples": True},
         "bad lambda_grid: need a number, got '1e2'"),
        ("converge", {"entry": "h2pole", "eval_points": [[0, 1]],
                      "lambda_grid": [1e2], "n_samples": True},
         "bad n_samples: need a number, got True"),
        ("growth", {"interval": [True, "2"], "eval_points": [3.0]},
         "bad interval: need a number, got True"),
        # a list of pairs used to be turned into an object
        ("growth", {"entry": "h2pole", "entry_args": [["w", "-2j"]]},
         "bad entry_args: need a JSON object, got [['w', '-2j']]"),
        ("growth", {"lambda_grid": [1e2, 1e2]},
         "bad lambda_grid: need a nonempty, positive, strictly increasing"),
        ("growth", {"lambda_grid": [0, 1e2]},
         "bad lambda_grid: need a nonempty, positive, strictly increasing"),
        ("converge", {"entry": "h2pole", "eval_points": [[0, 1]],
                      "n_samples": 0},
         "bad n_samples: need a whole number >= 1, got 0.0"),
        # json reads NaN and Infinity, and json.dumps writes them
        ("growth", {"slope_tolerance": math.nan},
         "bad slope_tolerance: need a finite number, got nan"),
        ("growth", {"lambda_grid": [10, math.inf]},
         "bad lambda_grid: need a finite number, got inf"),
    ])
    def test_malformed_value_named(self, tmp_path, capsys, command, overrides,
                                   message):
        cfg = write_config(tmp_path, **{"eval_points": [2.0], **overrides})
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("command", ["growth", "converge", "contour"])
    @pytest.mark.parametrize("interval", [[1e308, 1.5e308], [-1.7e308, 1.7e308]],
                             ids=["center-inf", "width-inf"])
    def test_overflowing_interval_named(self, tmp_path, capsys, command, interval):
        # center inf, then width inf: both used to fail late, naming another fault
        cfg = write_config(tmp_path, entry="h2pole", interval=interval,
                           eval_points=[[0.0, 1.0]])
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: bad interval: interval center or width overflows")

    @pytest.mark.parametrize("overrides,flags,key", [
        ({"format": "json"}, ["--format", "json"], "format"),
        ({"output_path": "c.csv"}, ["--out", "c.csv"], "output_path"),
    ])
    def test_output_keys_unknown(self, tmp_path, capsys, monkeypatch,
                                 overrides, flags, key):
        """The output path and format come from --out and --format only."""
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, contour={"xi": [1.0], "alpha": [2.0]},
                           **overrides)
        assert main(["contour", "--config", cfg, *flags]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: unknown config keys: [{key!r}]\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("raw,message", [
        ([], "config must be a JSON object"),
        ({}, "config missing required key 'entry'"),
        ({"bogus": 1}, "unknown config keys: ['bogus']"),
        ({"n_samples": "x"}, "config missing required key 'entry'"),
    ])
    def test_config_shape_messages(self, raw, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(raw)
        assert str(info.value) == message

    def test_entry_args_copied(self):
        raw = {"entry": "h2pole", "entry_args": {"w": "-2j"}}
        cfg = ExperimentConfig.from_dict(raw)
        cfg.entry_args["w"] = "-3j"
        assert raw["entry_args"] == {"w": "-2j"}
        ExperimentConfig.from_dict({"entry": "h2pole"}).entry_args["w"] = "-3j"
        assert ExperimentConfig.from_dict({"entry": "h2pole"}).entry_args == {}

    @pytest.mark.parametrize("overrides,unknown", [
        ({"lamda_grid": [1e2, 1e4]}, "lamda_grid"),
        ({"tolerances": {"abs_tol": 1e-9, "reltol": 1e-9}}, "reltol"),
        ({"contour": {"xi": [1.0], "radius": 20.0}}, "radius"),
    ])
    def test_unknown_key_named(self, tmp_path, capsys, overrides, unknown):
        cfg = write_config(tmp_path, eval_points=[2.0], **overrides)
        assert main(["growth", "--config", cfg]) == EXIT_CONFIG
        assert repr(unknown) in capsys.readouterr().err


# JSON numbers include integers too large for a float
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**308, 10**400)
    | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)
_NUMBERS = st.lists(st.floats() | st.integers(), max_size=4)


def _json_object(keys):
    return st.fixed_dictionaries({}, optional={k: _JSON | _NUMBERS for k in keys})


_CONFIG = st.fixed_dictionaries(
    {"entry": st.sampled_from(["example1", "example2", "h2pole"]) | _JSON},
    optional={
        "entry_args": st.dictionaries(st.sampled_from(["a", "w", "b"]), _JSON,
                                      max_size=2) | _JSON,
        "interval": st.just([-1.0, 1.0]) | _NUMBERS | _JSON,
        "lambda_grid": _NUMBERS | _JSON,
        "eval_points": st.lists(_NUMBERS | st.floats(), max_size=3) | _JSON,
        "tolerances": _json_object(["abs_tol", "rel_tol", "max_subdivisions"])
        | _JSON,
        "slope_tolerance": _JSON,
        "window": st.just([-5.0, 5.0]) | _NUMBERS | _JSON,
        "n_samples": _JSON,
        "contour": _json_object(["xi", "alpha", "R", "height",
                                 "residual_tolerance"]) | _JSON,
    })


@settings(max_examples=200, deadline=None)
@given(raw=_CONFIG, stray=st.dictionaries(st.text(), _JSON, max_size=1))
def test_from_dict_returns_config_or_config_error(raw, stray):
    """Parsing a config and building its entry compute nothing and raise
    nothing but ConfigError, whatever JSON values the keys hold."""
    try:
        ExperimentConfig.from_dict({**stray, **raw}).build_entry()
    except ConfigError:
        pass
