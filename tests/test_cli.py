"""End-to-end tests of the command-line runner: shipped configs, exit codes,
artifact determinism and environment overrides."""

import filecmp
import importlib.util
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from foldbilliards import config as cf
from foldbilliards import runner
from foldbilliards.ambient import MODEL_KINDS
from foldbilliards.cli import main as cli_main
from foldbilliards.table import BUILTIN_TABLES

CONFIG_DIR = resources.files("foldbilliards") / "configs"

# the convex-kink curve is shipped as a deliberate failure witness
EXPECTED_EXIT = {
    "parabola-euclidean": 0,
    "disk-euclidean-scan": 0,
    "halfspace-euclidean-scan": 0,
    "disk-hyperbolic": 0,
    "spherical-halfspace": 0,
    "disk-euclid-convergence": 0,
    "disk-euclid-boundary-geodesic": 0,
    "disk-hausdorff": 0,
    "quasigeodesic-arc": 0,
    "quasigeodesic-corner": 0,
    "quasigeodesic-convex-kink": 1,
    "halfspace-mirror-trajectory": 0,
}


def run(cfg_name, out, *extra):
    return cli_main(["run", str(CONFIG_DIR / f"{cfg_name}.json"),
                     "--out-dir", str(out), *extra])


class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(EXPECTED_EXIT))
    def test_runs_with_expected_exit_code(self, name, tmp_path):
        out = tmp_path / name
        rc = run(name, out)
        assert rc == EXPECTED_EXIT[name]
        for artifact in ("report.json", "report.csv", "manifest.json"):
            assert (out / artifact).is_file()
        report = json.loads((out / "report.json").read_text())
        assert report["experiment"] == json.loads(
            (CONFIG_DIR / f"{name}.json").read_text())["experiment"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"]["foldbilliards"]
        assert set(manifest["artifacts"]) >= {"report.json", "report.csv"}

    def test_mirror_trajectory_artifacts(self, tmp_path):
        out = tmp_path / "mirror"
        assert run("halfspace-mirror-trajectory", out) == 0
        rep = json.loads((out / "report.json").read_text())
        b0 = rep["result"]["bounces"][0]
        assert b0["t"] == pytest.approx(5.0 / 3.0, abs=1e-9)
        assert b0["x"][1] == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert b0["w_out"][0] == pytest.approx(0.6, abs=1e-9)
        rows = (out / "trajectory_billiard.csv").read_text().splitlines()
        assert rows[0] == "t,x_1,x_2,bounce_flag"
        # one flagged sample per bounce
        flags = sum(int(r.rsplit(",", 1)[1]) for r in rows[1:])
        assert flags == len(rep["result"]["bounces"])

    def test_scan_csv_schema(self, tmp_path):
        out = tmp_path / "scan"
        assert run("disk-euclidean-scan", out) == 0
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[0] == "lambda,min_sec"
        assert len(rows) == 5
        # 17 significant digits survive a float round trip
        for r in rows[1:]:
            lam, ms = r.split(",")
            assert float(ms) >= -1e-8


class TestDeterminism:
    @pytest.mark.parametrize("name", ["disk-euclidean-scan",
                                      "halfspace-mirror-trajectory"])
    def test_byte_identical_reports(self, name, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(name, a) == run(name, b)
        for f in ("report.json", "report.csv"):
            assert filecmp.cmp(a / f, b / f, shallow=False)
        for traj in a.glob("trajectory_*.csv"):
            assert filecmp.cmp(traj, b / traj.name, shallow=False)
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        ma.pop("wall_time_s"), mb.pop("wall_time_s")
        assert ma == mb


class TestErrorExits:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"experiment": "curvature-scan"')
        assert cli_main(["run", str(bad)]) == 2
        assert "broken.json:1:" in capsys.readouterr().err

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "experiment": "curvature-scan",
            "table": {"kind": "disk"},
            "model": {"kind": "euclidean"},
            "parameters": {"lambdas": [0.5], "kappa": 0.0, "bogus": 1},
        }))
        assert cli_main(["run", str(bad)]) == 2
        assert "parameters.bogus" in capsys.readouterr().err

    def test_zero_launch_velocity_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "still.json"
        bad.write_text(json.dumps({
            "experiment": "trajectory",
            "table": {"kind": "disk"},
            "model": {"kind": "hyperbolic"},
            "parameters": {"target": "billiard", "x0": [0.1, 0.0], "v0": [0, 0],
                           "T": 1.0, "dt": 0.01},
        }))
        assert cli_main(["run", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert "parameters.v0" in capsys.readouterr().err

    @pytest.mark.parametrize("vertical", [0.0, 1e-10, 1e-9])
    def test_direction_without_vertical_component_exits_2(self, vertical, tmp_path, capsys):
        # the config checks the bound that fold_convergence_experiment enforces
        bad = tmp_path / "flat.json"
        bad.write_text(json.dumps({
            "experiment": "fold-convergence",
            "table": {"kind": "disk"},
            "model": {"kind": "euclidean"},
            "parameters": {"lambdas": [0.5, 0.25], "T": 0.2, "dt": 0.01,
                           "direction": [0.8, vertical]},
        }))
        assert cli_main(["run", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert "parameters.direction" in capsys.readouterr().err

    def test_run_time_precondition_exits_3(self, tmp_path, capsys):
        # the config is well formed, but its only reference point lies on
        # the arc, which only the run can tell
        cfg = tmp_path / "on-arc.json"
        cfg.write_text(json.dumps({
            "experiment": "quasigeodesic-check",
            "table": {"kind": "disk"},
            "model": {"kind": "euclidean"},
            "parameters": {"curve": {"kind": "arc"}, "dt": 0.01,
                           "reference_points": [[1.0, 0.0]]},
        }))
        assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
        assert "PreconditionError: no admissible reference points" in capsys.readouterr().err

    def test_geometry_failure_exits_3(self, tmp_path):
        # nonconvex table rejected by the boundary-geodesic precondition
        bad = tmp_path / "nonconvex.json"
        bad.write_text(json.dumps({
            "experiment": "boundary-geodesic",
            "table": {"kind": "parabola"},
            "model": {"kind": "euclidean"},
            "parameters": {"angles": [0.1], "T": 0.3, "dt": 0.001},
        }))
        assert cli_main(["run", str(bad), "--out-dir", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("kind", ["euclidean", "hyperbolic"])
    def test_bounce_accumulation_exits_3(self, kind, tmp_path, capsys):
        # launched tangent to the unit circle, the billiard grazes it at t = 0
        bad = tmp_path / "tangent.json"
        bad.write_text(json.dumps({
            "experiment": "trajectory",
            "table": {"kind": "disk"},
            "model": {"kind": kind},
            "parameters": {"target": "billiard", "x0": [1.0, 0.0], "v0": [0.0, 1.0],
                           "T": 1.0, "dt": 0.01},
        }))
        assert cli_main(["run", str(bad), "--out-dir", str(tmp_path / "o")]) == 3
        assert "bounces at t = 0.0 and 0.0" in capsys.readouterr().err


def _hyperbolic_disk(experiment, parameters):
    return cf.validate_config({"experiment": experiment, "table": {"kind": "disk"},
                               "model": {"kind": "hyperbolic"}, "parameters": parameters})


FOLD = {"target": "fold-geodesic", "x0": [0.0, 0.0, 0.25], "v0": [1.0, 0.0, 0.0],
        "lam": 0.25, "T": 0.5, "dt": 0.01}


class TestRunnerPaths:
    """The experiment paths no shipped config takes, on the hyperbolic disk."""

    @pytest.mark.parametrize("params, name, t_min, n", [
        (FOLD, "fold_geodesic", -0.5, 101),
        ({**FOLD, "two_sided": False}, "fold_geodesic", 0.0, 51),
        ({"target": "table-geodesic", "x0": [0.1, 0.0], "v0": [0.3, 1.0], "T": 0.5, "dt": 0.01},
         "table_geodesic", 0.0, 51),
        ({"target": "boundary-geodesic", "x0": [1.0, 0.0], "v0": [0.0, 1.0],
          "T": 0.5, "dt": 0.01}, "boundary_geodesic", 0.0, 51),
    ], ids=["fold-two-sided", "fold-one-sided", "table", "boundary"])
    def test_geodesic_trajectories(self, params, name, t_min, n, tmp_path):
        cfg = _hyperbolic_disk("trajectory", params)
        res = runner.run_experiment(cfg, tmp_path / "a")
        assert res.passed and res.verdict is None
        assert res.result == {"n_samples": n, "truncated": False, "t_min": t_min, "t_max": 0.5}
        sample = f"trajectory_{name}.csv"
        d = len(params["x0"])
        assert (tmp_path / "a" / sample).read_text().splitlines()[0] == ",".join(
            ["t", *(f"x_{i + 1}" for i in range(d))])
        assert len((tmp_path / "a" / sample).read_text().splitlines()) == n + 1
        assert (tmp_path / "a" / "report.csv").read_text().splitlines()[0] == (
            "t_min,t_max,n_samples,truncated")
        runner.run_experiment(cfg, tmp_path / "b")
        for artifact in ("report.json", "report.csv", sample):
            assert filecmp.cmp(tmp_path / "a" / artifact, tmp_path / "b" / artifact,
                               shallow=False)

    def test_quasigeodesic_billiard_curve(self, tmp_path):
        cfg = _hyperbolic_disk("quasigeodesic-check", {
            "curve": {"kind": "billiard", "x0": [0.1, 0.0], "v0": [0.3, 1.0], "T": 2.0},
            "dt": 0.01})
        res = runner.run_experiment(cfg, tmp_path / "a")
        assert res.verdict == "pass" and res.passed
        assert (tmp_path / "a" / "report.csv").read_text().splitlines()[0] == (
            "reference_index,residual")
        runner.run_experiment(cfg, tmp_path / "b")
        for artifact in ("report.json", "report.csv"):
            assert filecmp.cmp(tmp_path / "a" / artifact, tmp_path / "b" / artifact,
                               shallow=False)


class TestInterface:
    def test_list_builtins(self, capsys):
        assert cli_main(["list-builtins"]) == 0
        text = capsys.readouterr().out
        for needle in ("disk", "half-space", "parabola", "spherical-halfspace",
                       "euclidean, hyperbolic, spherical",
                       "parabola-euclidean", "disk-hyperbolic"):
            assert needle in text

    def test_list_builtins_covers_the_registries(self, capsys):
        assert cli_main(["list-builtins"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for kind, entry in BUILTIN_TABLES.items():
            assert any(line.split() == [kind, *entry.description.split()]
                       for line in lines)
        models = next(line for line in lines if line.startswith("ambient models:"))
        assert models.split(":")[1].replace(",", " ").split() == list(MODEL_KINDS)

    def test_workers_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("disk-hausdorff", tmp_path / "w", "--workers", "2")
        assert exc.value.code == 2

    def test_workers_env_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FOLDBILLIARDS_WORKERS", "x")
        out = tmp_path / "env"
        assert run("disk-hausdorff", out) == 0
        assert "workers" not in json.loads((out / "manifest.json").read_text())

    def test_env_out_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FOLDBILLIARDS_OUT_DIR", str(tmp_path / "envdir"))
        assert cli_main(["run",
                         str(CONFIG_DIR / "halfspace-mirror-trajectory.json")]) == 0
        assert (tmp_path / "envdir" / "report.json").is_file()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FOLDBILLIARDS_OUT_DIR", str(tmp_path / "envdir"))
        out = tmp_path / "flagdir"
        assert run("halfspace-mirror-trajectory", out) == 0
        assert (out / "report.json").is_file()
        assert not (tmp_path / "envdir").exists()

    def test_seed_flag_reaches_the_sampler(self, tmp_path):
        a, b = tmp_path / "s0", tmp_path / "s1"
        assert run("disk-euclidean-scan", a, "--seed", "0") == 0
        assert run("disk-euclidean-scan", b, "--seed", "1") == 0
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        assert ra["result"]["verdict"] == rb["result"]["verdict"] == "certified"
        # the certified minimum is lattice-dominated and seed-stable, but the
        # random-plane witness moves with the seed
        assert ra["result"]["argmin_point"] != rb["result"]["argmin_point"]
        assert json.loads((b / "manifest.json").read_text())["seed"] == 1
        # the report echoes the config as run, so it can be re-run from it
        assert rb["config"]["seed"] == 1
        assert json.loads((b / "manifest.json").read_text())["config"]["seed"] == 1

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert run("disk-euclidean-scan", tmp_path / "neg", "--seed", "-1") == 2
        assert "config.seed" in capsys.readouterr().err

    def test_parameters_reach_the_report_unchanged(self, tmp_path):
        cfg = tmp_path / "int-kappa.json"
        cfg.write_text(json.dumps({
            "experiment": "curvature-scan",
            "table": {"kind": "disk"},
            "model": {"kind": "euclidean"},
            "parameters": {"lambdas": [0.5], "kappa": 0, "n_grid": 6,
                           "n_random_planes": 1},
        }))
        out = tmp_path / "out"
        assert cli_main(["run", str(cfg), "--out-dir", str(out)]) == 0
        result = json.loads((out / "report.json").read_text())["result"]
        assert result["kappa"] == 0 and isinstance(result["kappa"], int)
        # defaults come from the scan_curvature signature
        assert result["tol"] == 1e-6


def _fmt_per_cell(v) -> str:
    """The per-cell CSV formatter the runner used before rows were written
    with one % operation; the byte oracle of the writer."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return "%.17g" % float(v)


def _csv_per_cell(header, rows) -> str:
    return "\n".join([",".join(header), *(",".join(map(_fmt_per_cell, r)) for r in rows)]) + "\n"


SPECIAL_FLOATS = [0.1, -0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1.5e-7, 1 / 3]


class TestCsvWriter:
    """runner._write_csv formats a row with one % operation; its bytes must
    equal those of the per-cell formatter."""

    TABLES = {
        "one-type columns": (
            ("flag", "count", "big", "x", "y"),
            [(i % 2 == 0, i - 3, np.int64(2**62 - i), v, np.float64(-v))
             for i, v in enumerate(SPECIAL_FLOATS)]),
        "mixed columns": (
            ("none", "int-float", "bool-int", "f32", "np-bool", "np-int-float"),
            [(None, 1, True, np.float32(0.1), np.bool_(True), np.int64(7)),
             (2.5, 2.0, 3, np.float32(-0.0), np.bool_(False), np.float64(np.nan)),
             (None, 2**70, np.int64(-4), np.float32(np.inf), np.bool_(True), -0.0),
             (np.inf, -7, False, np.float32(5e-30), np.bool_(False), np.int32(-1))]),
        "all None": (("a", "b"), [(None, 1.0), (None, 2.0)]),
        "one column": (("t",), [(v,) for v in SPECIAL_FLOATS]),
        "no rows": (("a", "b", "c"), []),
    }

    @pytest.mark.parametrize("name", list(TABLES))
    def test_bytes_equal_the_per_cell_formatter(self, name, tmp_path):
        header, rows = self.TABLES[name]
        for given in (rows, [list(r) for r in rows], iter(rows)):
            runner._write_csv(tmp_path / "t.csv", header, given)
            assert (tmp_path / "t.csv").read_bytes() == _csv_per_cell(header, rows).encode()

    def test_trajectory_rows_from_arrays(self, tmp_path):
        r = np.random.default_rng(0)
        times = np.concatenate([[0.0, -0.0], r.normal(size=50) * 10.0 ** r.integers(-300, 300, 50)])
        points = np.stack([times[::-1], np.full(len(times), 5e-324), r.normal(size=len(times))], 1)
        flags = r.integers(0, 2, len(times))
        runner._write_csv(tmp_path / "t.csv", ("t", "x_1", "x_2", "x_3", "bounce_flag"),
                          zip(times.tolist(), *points.T.tolist(), flags.tolist()))
        rows = [(t, *p, int(f)) for t, p, f in zip(times, points, flags)]
        assert (tmp_path / "t.csv").read_bytes() == _csv_per_cell(
            ("t", "x_1", "x_2", "x_3", "bounce_flag"), rows).encode()


def _bounce_flags_per_bounce(times, bounce_times):
    flags = np.zeros(len(times), dtype=int)
    for tb in bounce_times:
        i = int(np.searchsorted(times, tb - 1e-12))
        flags[min(i, len(flags) - 1)] = 1
    return flags


@pytest.mark.parametrize("bounces, flagged", [
    ([], []),
    ([0.3], [3]),                   # exactly on a grid time
    ([0.3 + 1e-13], [3]),           # within 1e-12 after it
    ([0.35], [4]),                  # between grid times
    ([1.0], [10]),                  # at T
    ([0.41, 0.47], [5]),            # two bounces in one interval
    ([0.0, 0.05, 1.0 + 1e-6], [0, 1, 10]),  # at 0, and after T: the last sample
])
def test_bounce_flags(bounces, flagged):
    times = np.linspace(0.0, 1.0, 11)
    flags = runner._bounce_flags(times, bounces)
    assert flags.dtype == int and flags.tolist() == _bounce_flags_per_bounce(times, bounces).tolist()
    assert np.flatnonzero(flags).tolist() == flagged


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parents[1] / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_artifact_digest_compare_prints_only_the_differences():
    tool = _load_tool("artifact_digests")
    saved = ["a report.json 1111", "a exit 0", "b report.csv 2222", "b exit 0"]
    assert tool.differences(saved, saved + [""]) == []
    now = ["a report.json 1111", "a exit 3", "c report.json 3333", "c exit 0"]
    assert tool.differences(saved, now) == [
        "a exit 0 -> 3", "b report.csv 2222 -> absent", "b exit 0 -> absent",
        "c report.json absent -> 3333", "c exit absent -> 0"]


def test_bench_pairs_summary_counts_wins_by_the_better_direction():
    tool = _load_tool("bench_pairs")

    def side(wall, rate):
        return {"metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "rate": {"value": rate, "unit": "1/s"}}}
    runs = [{"pair": i + 1, "first": "parent" if i % 2 == 0 else "change",
             "parent": side(p, 1.0), "change": side(c, r)}
            for i, (p, c, r) in enumerate([(2.0, 1.0, 2.0), (3.0, 1.5, 0.5),
                                           (4.0, 5.0, 3.0), (5.0, 2.0, 1.0)])]
    out = tool.summary(runs, [{"name": "wall_s", "better": "lower"},
                              {"name": "rate", "better": "higher"}])
    assert out["wall_s"] == {
        "parent_median": 3.5, "parent_q1": 2.75, "parent_q3": 4.25,
        "change_median": 1.75, "change_q1": 1.375, "change_q3": 2.75,
        "change_wins": 3, "rel_change": -0.5}
    # a tie is no win
    assert out["rate"]["change_wins"] == 2
    assert out["rate"]["change_median"] == 1.5
    one = tool.summary(runs[:1], [{"name": "wall_s", "better": "lower"}])["wall_s"]
    assert (one["parent_q1"], one["parent_median"], one["parent_q3"]) == (2.0, 2.0, 2.0)


def test_bench_pairs_traced_counts_keep_count_units_and_name_the_differences():
    tool = _load_tool("bench_pairs")

    def traced(frames, pairs, correct=True):
        return {"correct": correct, "metrics": {
            "fold.frame_at.calls": {"value": frames, "unit": "count"},
            "fold.frame_at.self_s": {"value": 0.5, "unit": "s"},
            "ambient.distance_cross.pairs": {"value": pairs, "unit": "count"}}}
    metrics = [{"name": "fold.frame_at.calls", "unit": "count"},
               {"name": "fold.frame_at.self_s", "unit": "s"},
               {"name": "ambient.distance_cross.bytes_out", "unit": "bytes"},
               {"name": "ambient.distance_cross.pairs", "unit": "count"}]
    out = tool.traced_counts({"parent": traced(4, 100), "change": traced(4, 90, False)}, metrics)
    # seconds are left out, and so is a count the run did not report
    assert out["parent"] == {"fold.frame_at.calls": 4, "ambient.distance_cross.pairs": 100}
    assert out["change"] == {"fold.frame_at.calls": 4, "ambient.distance_cross.pairs": 90}
    assert out["correct"] == {"parent": True, "change": False}
    assert out["differ"] == {"ambient.distance_cross.pairs": [100, 90]}


def test_bench_pairs_traced_self_s_keeps_the_self_seconds():
    tool = _load_tool("bench_pairs")

    def traced(seconds):
        return {"correct": True, "metrics": {
            "fold.frame_at.calls": {"value": 4, "unit": "count"},
            "fold.frame_at.self_s": {"value": seconds, "unit": "s"},
            "fold.sample_table_points.total_s": {"value": 1.0, "unit": "s"}}}
    metrics = [{"name": "fold.frame_at.calls", "unit": "count"},
               {"name": "fold.frame_at.self_s", "unit": "s"},
               {"name": "fold.sample_table_points.total_s", "unit": "s"},
               {"name": "fold.lift.self_s", "unit": "s"}]
    out = tool.traced_self_s({"parent": traced(0.5), "change": traced(0.25)}, metrics)
    # total seconds and counts are left out, and so is a layer the run did not report
    assert out == {"parent": {"fold.frame_at.self_s": 0.5},
                   "change": {"fold.frame_at.self_s": 0.25}}


@pytest.mark.parametrize("wins, change_median, better, met", [
    (9, 2.4, "lower", True),
    (8, 2.4, "lower", False),
    # a gap no larger than the parent's interquartile range
    (10, 2.5, "lower", False),
    (10, 3.6, "lower", False),
    (9, 3.6, "higher", True),
])
def test_bench_pairs_claim_met_follows_the_rule(wins, change_median, better, met):
    tool = _load_tool("bench_pairs")
    stats = {"parent_median": 3.0, "parent_q1": 2.75, "parent_q3": 3.25,
             "change_median": change_median, "change_wins": wins}
    assert tool.claim_met(stats, 10, better) is met
