"""Tests for config parsing and schema validation."""

import inspect
import json

import pytest

from foldbilliards import analysis as an
from foldbilliards import config as cf
from foldbilliards import fold as fd
from foldbilliards.errors import ConfigError


def scan_config(**extra_params):
    raw = {
        "experiment": "curvature-scan",
        "table": {"kind": "disk"},
        "model": {"kind": "euclidean"},
        "parameters": {"lambdas": [0.5, 0.2], "kappa": 0.0},
    }
    raw["parameters"].update(extra_params)
    return raw


class TestValidate:
    def test_minimal_scan_config(self):
        cfg = cf.validate_config(scan_config())
        assert cfg.experiment == "curvature-scan"
        assert cfg.table.name == "disk"
        assert cfg.model.kind == "euclidean"
        assert cfg.model.dim == 3
        assert cfg.seed == 0

    def test_workers_key_is_validated_and_ignored(self):
        cfg = cf.validate_config({**scan_config(), "workers": 4})
        assert not hasattr(cfg, "workers")
        with pytest.raises(ConfigError, match=r"config\.workers: must be >= 1"):
            cf.validate_config({**scan_config(), "workers": 0})

    def test_unknown_experiment(self):
        raw = scan_config()
        raw["experiment"] = "bogus"
        with pytest.raises(ConfigError, match="experiment"):
            cf.validate_config(raw)

    def test_unknown_parameter_key_names_the_path(self):
        with pytest.raises(ConfigError, match=r"parameters\.bogus"):
            cf.validate_config(scan_config(bogus=1))

    def test_missing_required_key(self):
        raw = scan_config()
        del raw["parameters"]["kappa"]
        with pytest.raises(ConfigError, match="kappa"):
            cf.validate_config(raw)

    def test_unknown_table_kind(self):
        raw = scan_config()
        raw["table"] = {"kind": "triangle"}
        with pytest.raises(ConfigError, match="table"):
            cf.validate_config(raw)

    def test_model_dimension_must_extend_table(self):
        raw = scan_config()
        raw["model"] = {"kind": "euclidean", "dim": 5}
        with pytest.raises(ConfigError, match="dim"):
            cf.validate_config(raw)

    def test_tolerances_must_be_positive(self):
        # every tolerance key of every schema is a positive number
        bases = {
            "curvature-scan": ({"lambdas": [0.5, 0.2], "kappa": 0.0}, ("tol",)),
            "quasigeodesic-check": ({"curve": {"kind": "arc"}, "dt": 0.01}, ("tol",)),
            "fold-convergence": ({"lambdas": [0.5, 0.25], "T": 0.5, "dt": 1e-3},
                                 ("tol_conv", "tol_qg")),
            "boundary-geodesic": ({"angles": [0.5, 0.25], "T": 0.5, "dt": 1e-3}, ("tol_rel",)),
        }
        for experiment, (params, keys) in bases.items():
            raw = {"experiment": experiment, "table": {"kind": "disk"},
                   "model": {"kind": "euclidean"}, "parameters": params}
            cf.validate_config(raw)
            for key in keys:
                for bad in (0, -1, True, "x"):
                    with pytest.raises(ConfigError, match=rf"parameters\.{key}: "):
                        cf.validate_config({**raw, "parameters": {**params, key: bad}})
                cf.validate_config({**raw, "parameters": {**params, key: 1e-3}})

    def test_convergence_lambdas_must_decrease(self):
        raw = {
            "experiment": "fold-convergence",
            "table": {"kind": "disk"},
            "model": {"kind": "euclidean"},
            "parameters": {"lambdas": [0.25, 0.5], "T": 0.5, "dt": 1e-3},
        }
        with pytest.raises(ConfigError, match="decreasing"):
            cf.validate_config(raw)

    def test_negative_dt_rejected(self):
        raw = {
            "experiment": "trajectory",
            "table": {"kind": "half-space"},
            "model": {"kind": "euclidean"},
            "parameters": {"target": "billiard", "x0": [1, 0], "v0": [-1, 0],
                           "T": 1.0, "dt": -0.001},
        }
        with pytest.raises(ConfigError, match=r"parameters\.dt"):
            cf.validate_config(raw)

    def test_fold_geodesic_trajectory_needs_lambda_and_ambient_data(self):
        raw = {
            "experiment": "trajectory",
            "table": {"kind": "disk"},
            "model": {"kind": "euclidean"},
            "parameters": {"target": "fold-geodesic", "x0": [0, 0, 1],
                           "v0": [1, 0, 0], "T": 1.0, "dt": 0.001},
        }
        with pytest.raises(ConfigError, match="lam"):
            cf.validate_config(raw)
        raw["parameters"]["lam"] = 1.0
        cfg = cf.validate_config(raw)
        assert cfg.parameters["lam"] == 1.0
        # billiard targets reject the fold thickness
        raw["parameters"]["target"] = "billiard"
        raw["parameters"]["x0"] = [1, 0]
        raw["parameters"]["v0"] = [-1, 0]
        with pytest.raises(ConfigError, match="lam"):
            cf.validate_config(raw)

    @pytest.mark.parametrize("target", ["billiard", "table-geodesic", "boundary-geodesic"])
    def test_two_sided_is_only_for_fold_geodesics(self, target):
        raw = {
            "experiment": "trajectory",
            "table": {"kind": "disk"},
            "model": {"kind": "euclidean"},
            "parameters": {"target": target, "x0": [1, 0], "v0": [0, 1], "T": 1.0,
                           "dt": 0.01, "two_sided": True},
        }
        with pytest.raises(ConfigError, match=r"parameters\.two_sided: only meaningful"):
            cf.validate_config(raw)
        raw["parameters"].update(target="fold-geodesic", x0=[1, 0, 0], v0=[0, 1, 0], lam=0.5)
        assert cf.validate_config(raw).parameters["two_sided"] is True

    @pytest.mark.parametrize("target", ["billiard", "table-geodesic", "boundary-geodesic",
                                        "fold-geodesic"])
    def test_zero_launch_velocity_rejected(self, target):
        dim = 3 if target == "fold-geodesic" else 2
        raw = {
            "experiment": "trajectory",
            "table": {"kind": "disk"},
            "model": {"kind": "hyperbolic"},
            "parameters": {"target": target, "x0": [0.0] * dim, "v0": [0, -0.0, 0][:dim],
                           "T": 1.0, "dt": 0.01, **({"lam": 0.5} if dim == 3 else {})},
        }
        with pytest.raises(ConfigError, match=r"parameters\.v0: .*zero vector"):
            cf.validate_config(raw)

    def test_zero_billiard_curve_velocity_rejected(self):
        raw = {
            "experiment": "quasigeodesic-check",
            "table": {"kind": "disk"},
            "model": {"kind": "euclidean"},
            "parameters": {"curve": {"kind": "billiard", "x0": [0.1, 0.0], "v0": [0.0, 0.0],
                                     "T": 1.0}, "dt": 0.01},
        }
        with pytest.raises(ConfigError, match=r"parameters\.curve\.v0: .*zero vector"):
            cf.validate_config(raw)

    def test_builtin_curve_kinds_are_validated(self):
        raw = {
            "experiment": "quasigeodesic-check",
            "table": {"kind": "disk"},
            "model": {"kind": "euclidean"},
            "parameters": {"curve": {"kind": "spiral"}, "dt": 0.001},
        }
        with pytest.raises(ConfigError, match="curve"):
            cf.validate_config(raw)

    def test_polynomial_table_from_config(self):
        raw = {
            "experiment": "curvature-scan",
            "table": {
                "kind": "polynomial",
                "n": 2,
                "terms": [{"exponents": [0, 1], "coefficient": -1.0}],
                "region": {"center": [0.0, 0.0], "radius": 5.0},
                "p0": [0.0, 0.0],
                "name": "mirror-halfplane",
            },
            "model": {"kind": "euclidean"},
            "parameters": {"lambdas": [0.5], "kappa": 0.0},
        }
        cfg = cf.validate_config(raw)
        assert cfg.table.name == "mirror-halfplane"
        assert cfg.table.f([0.0, -1.0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("experiment, parameters", [
        ("fold-convergence", {"lambdas": [0.5, 0.25], "T": 0.2, "dt": 1e-2}),
        ("boundary-geodesic", {"angles": [0.1, 0.05], "T": 0.3, "dt": 1e-2}),
    ])
    def test_tangent_launch_needs_two_table_dimensions(self, experiment, parameters):
        raw = {
            "experiment": experiment,
            "table": {"kind": "disk", "n": 1},
            "model": {"kind": "euclidean"},
            "parameters": parameters,
        }
        with pytest.raises(ConfigError, match=r"table\.n"):
            cf.validate_config(raw)
        raw["table"]["n"] = 2
        assert cf.validate_config(raw).table.n == 2

    def test_builtin_table_options_come_from_the_builder(self):
        raw = scan_config()
        raw["table"] = {"kind": "disk", "n": 3, "radius_U": 1.5}
        cfg = cf.validate_config(raw)
        assert cfg.table.n == 3
        assert cfg.table.region.radius == 1.5
        # the spherical half-space patch is fixed
        raw["table"] = {"kind": "spherical-halfspace", "radius_U": 1.5}
        with pytest.raises(ConfigError, match=r"table\.radius_U"):
            cf.validate_config(raw)
        raw["table"] = {"kind": "spherical-halfspace"}
        assert cf.validate_config(raw).table.n == 3

    @pytest.mark.parametrize("raw, path", [
        (scan_config(kappa=float("nan")), r"parameters\.kappa"),
        (scan_config(kappa=-10**400), r"parameters\.kappa"),
        (scan_config(lambdas=[float("inf")]), r"parameters\.lambdas\[0\]"),
        ({"experiment": "hausdorff", "table": {"kind": "disk"}, "model": {"kind": "euclidean"},
          "parameters": {"lambdas": [0.5, float("inf")]}}, r"parameters\.lambdas\[1\]"),
        ({"experiment": "trajectory", "table": {"kind": "disk"}, "model": {"kind": "euclidean"},
          "parameters": {"target": "billiard", "x0": [float("nan"), 0.0], "v0": [0.0, 1.0],
                         "T": 1.0, "dt": 0.01}}, r"parameters\.x0\[0\]"),
    ], ids=["scan-kappa", "scan-kappa-beyond-float", "scan-lambdas", "hausdorff-lambdas",
            "trajectory-x0"])
    def test_non_finite_numbers_rejected(self, tmp_path, raw, path):
        # the json module reads and writes NaN, Infinity and integers of any size
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=rf"^{path}: must be finite$"):
            cf.load_config(p)

    def test_non_dict_input_rejected(self):
        with pytest.raises(ConfigError):
            cf.validate_config([1, 2, 3])


@pytest.mark.parametrize("experiment, function, not_forwarded", [
    ("curvature-scan", fd.scan_curvature, set()),
    ("hausdorff", fd.hausdorff_distance, {"lambdas"}),
    ("fold-convergence", an.fold_convergence_experiment, set()),
    ("boundary-geodesic", an.boundary_geodesic_experiment, set()),
])
def test_schema_keys_are_parameters_of_the_library_function(experiment, function, not_forwarded):
    # the runners forward the parameters as keywords: a schema key that the
    # function does not take would pass validation and fail mid-run
    keys = set(cf.EXPERIMENTS[experiment].schema) - not_forwarded
    assert keys and keys <= set(inspect.signature(function).parameters)


class TestLoad:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(scan_config()))
        cfg = cf.load_config(p)
        assert cfg.experiment == "curvature-scan"

    def test_malformed_json_reports_location(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"experiment": "curvature-scan"')
        with pytest.raises(ConfigError, match=r"broken\.json:1:"):
            cf.load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cf.load_config(tmp_path / "nope.json")

    def test_shipped_configs_all_validate(self):
        import importlib.resources as res
        pkg = res.files("foldbilliards") / "configs"
        names = sorted(p.name for p in pkg.iterdir() if p.name.endswith(".json"))
        assert len(names) == 12
        for name in names:
            cfg = cf.load_config(str(pkg / name))
            assert cfg.experiment in cf.EXPERIMENTS

    def test_every_experiment_has_a_shipped_config(self):
        import importlib.resources as res
        pkg = res.files("foldbilliards") / "configs"
        shipped = {json.loads(p.read_text())["experiment"]
                   for p in pkg.iterdir() if p.name.endswith(".json")}
        assert shipped == set(cf.EXPERIMENTS)
