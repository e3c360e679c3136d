import csv
import json
import os
import tracemalloc

import numpy as np
import pytest

from kolmo import cli
from kolmo.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    load_model,
    main,
)
from kolmo.model import ellipticity_check

from conftest import langevin_config


def write_model(tmp_path, cfg, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def heat_cfg():
    return {
        "blocks": [1],
        "B": [[0.0]],
        "coefficients": {"a": {"kind": "constant", "value": 0.5}},
        "mu": 2.0,
        "M": 0.0,
    }


def sinusoid_cfg():
    return {
        "blocks": [1],
        "B": [[0.0]],
        "coefficients": {
            "a": {"kind": "time-sinusoid", "base": 0.625, "amplitude": 0.375}
        },
        "mu": 4.0,
        "M": 0.0,
    }


def deep221_cfg(a):
    """The three-level cascade m = [2, 2, 1] with diffusion coefficient ``a``."""
    B = np.zeros((5, 5))
    B[2:4, 0:2] = np.eye(2)
    B[4, 2:4] = [1.0, 0.0]
    return {"blocks": [2, 2, 1], "B": B.tolist(), "coefficients": {"a": a}, "mu": 4.0, "M": 0.0}


DEEP221_TSIN = {"kind": "time-sinusoid", "base": 0.625, "amplitude": 0.375}
DEEP221_SSIN = {
    "kind": "space-sinusoid", "base": 0.5, "amplitude": 0.1, "wave": [0.5, 0, 0, 0, 0.25]
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestLoadModel:
    def test_valid_langevin(self, langevin_model_path):
        spec = load_model(langevin_model_path)
        mu_low, mu_high = ellipticity_check(spec)
        assert spec.system.d == 2
        assert mu_low <= spec.mu and mu_high <= spec.mu

    def test_monotonicity_failure_exit_code(self, tmp_path, capsys):
        cfg = langevin_config()
        cfg["blocks"] = [1, 2]
        cfg["B"] = np.zeros((3, 3)).tolist()
        path = write_model(tmp_path, cfg)
        assert main(["validate", "--model", path]) == EXIT_VALIDATION
        assert "m-monotonicity" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--model", str(path)]) == EXIT_PARSE

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--model", str(tmp_path / "none.json")]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "cfg, named",
        [
            ({k: v for k, v in heat_cfg().items() if k != "mu"}, "'mu'"),
            (
                {**sinusoid_cfg(), "coefficients": {"a": {"kind": "time-sinusoid", "amplitude": 0.3}}},
                "'base'",
            ),
            ([heat_cfg()], "JSON object, got list"),
            ({**heat_cfg(), "coefficients": []}, "wrong type"),
            ({**heat_cfg(), "coefficients": {"a": "0.5"}}, "wrong type"),
            ({**heat_cfg(), "mu": "x"}, "'mu'"),
            ({**heat_cfg(), "blocks": "ab"}, "'blocks'"),
            ({**heat_cfg(), "B": [["q"]]}, "'B'"),
            (
                {
                    **sinusoid_cfg(),
                    "coefficients": {
                        "a": {"kind": "time-sinusoid", "base": "z", "amplitude": 0.3}
                    },
                },
                "'base'",
            ),
            (
                {**heat_cfg(), "coefficients": {"a": {"kind": "constant", "value": [["q"]]}}},
                "'value'",
            ),
            (
                {
                    **heat_cfg(),
                    "coefficients": {"a": 0.5, "b_low": {"kind": "constant", "value": ["q"]}},
                },
                "'value'",
            ),
            (
                {
                    **heat_cfg(),
                    "coefficients": {
                        "a": {"kind": "tabulated", "points": [0.0], "values": [0.5], "axis": "x"}
                    },
                },
                "'axis'",
            ),
        ],
        ids=[
            "missing-mu", "time-sinusoid-missing-base", "top-level-list",
            "coefficients-list", "field-string", "mu-string", "blocks-string",
            "B-string-entry", "base-string", "matrix-string-entry", "vector-string-entry",
            "table-axis-string",
        ],
    )
    def test_malformed_model_is_parse_error(self, tmp_path, capsys, cfg, named):
        path = write_model(tmp_path, cfg)
        assert main(["validate", "--model", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and named in err

    @pytest.mark.parametrize("grid", ["points", "values"])
    def test_non_finite_table_rejected(self, tmp_path, capsys, grid):
        table = {"kind": "tabulated", "points": [0.0, 1.0], "values": [0.5, 0.6]}
        table[grid][1] = float("nan")  # written as a bare NaN, which JSON readers accept
        path = write_model(tmp_path, {**heat_cfg(), "coefficients": {"a": table}})
        assert main(["validate", "--model", path]) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("mu", "NaN"), ("M", "NaN"), ("mu", "Infinity")])
    @pytest.mark.parametrize("subcommand", ["validate", "kernel"])
    def test_non_finite_declared_constant_rejected(self, tmp_path, capsys, key, value, subcommand):
        text = json.dumps({**heat_cfg(), key: 1.0}).replace("1.0", value)
        path = tmp_path / "model.json"
        path.write_text(text)
        argv = [subcommand, "--model", str(path)]
        if subcommand == "kernel":
            argv += ["--from", "0,0", "--to", "1,0", "--out", str(tmp_path / "k")]
        assert main(argv) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["model.json"]

    def test_undeclared_ellipticity_rejected(self, tmp_path, capsys):
        cfg = langevin_config()
        cfg["mu"] = 1.0  # a = I/2 needs mu >= 2
        path = write_model(tmp_path, cfg)
        assert main(["validate", "--model", path]) == EXIT_VALIDATION
        assert "ellipticity" in capsys.readouterr().err

    @staticmethod
    def slow_sinusoid_cfg(mu):
        # a = 0.5 + 0.45 sin(pi t) falls to 0.05 at t = 1.5, so the exact
        # lower constant is 20; samples at t = k/32 in [0, 1) read 2.
        cfg = langevin_config()
        cfg["coefficients"]["a"] = {
            "kind": "time-sinusoid", "base": 0.5, "amplitude": 0.45, "frequency": 0.5,
        }
        cfg["mu"] = mu
        return cfg

    def test_slow_sinusoid_breaking_declared_mu_rejected(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        path = write_model(tmp_path, self.slow_sinusoid_cfg(2.0))
        code = main(["validate", "--model", path, "--out", str(tmp_path / "out" / "v")])
        assert code == EXIT_VALIDATION
        assert "[ellipticity]" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []

    def test_slow_sinusoid_with_true_mu_validates(self, tmp_path, capsys):
        path = write_model(tmp_path, self.slow_sinusoid_cfg(20.0))
        assert main(["validate", "--model", path]) == EXIT_OK
        mu_low, mu_high = json.loads(capsys.readouterr().out)["mu_sampled"]
        assert abs(mu_low - 20.0) <= 1e-12 and abs(mu_high - 0.95) <= 1e-12
        # Its strength 2a falls to 0.1, so lambda- = 1 is no lower comparison.
        (tmp_path / "out").mkdir()
        code = main(
            [
                "verify-bounds", "--model", path, "--from", "1.0,0,0", "--horizon", "2.0",
                "--lambda-minus", "1", "--lambda-plus", "2", "--seed", "1",
                "--out", str(tmp_path / "out" / "vb"),
            ]
        )
        assert code == EXIT_NUMERIC
        assert "inconsistent comparison range" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize(
        "field, named",
        [
            ({"kind": "tabulated", "points": [0.0, 1.0], "values": [0.5, 0.6], "axis": 5},
             "axis=5"),
            ({"kind": "tabulated", "points": [0.0, 1.0], "values": [0.5, 0.6], "axis": -1},
             "axis=-1"),
            ({"kind": "space-sinusoid", "base": 0.5, "amplitude": 0.1, "wave": [1.0, 0.0, 0.0]},
             "wave=(1.0, 0.0, 0.0)"),
        ],
        ids=["table-axis-5", "table-axis-negative", "wave-3-entries"],
    )
    def test_misfit_field_is_validation_failure(self, tmp_path, capsys, field, named):
        # LANGEVIN has d = 2: a table reads axis 0 or 1, and a wave has 2 entries.
        cfg = langevin_config()
        cfg["coefficients"]["a"] = field
        cfg["mu"] = 20.0
        path = write_model(tmp_path, cfg)
        (tmp_path / "out").mkdir()
        code = main(["validate", "--model", path, "--out", str(tmp_path / "out" / "v")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation failure") and named in err and "coefficient a" in err
        assert os.listdir(tmp_path / "out") == []


    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("a", {"kind": "constant", "value": [[0.5, 0.0], [0.0, 0.5]]},
             "coefficient a: must be 1x1, got (2, 2)"),
            ("a_low", {"kind": "constant", "value": [0.1, 0.2]},
             "coefficient a_low: need a vector field of 1 components, got 2"),
            ("b_low", {"components": []},
             "coefficient b_low: need a vector field of 1 components, got 0"),
        ],
        ids=["matrix-2x2", "a-low-2-components", "b-low-no-components"],
    )
    def test_misfit_shape_is_validation_failure(self, tmp_path, capsys, key, value, named):
        # LANGEVIN has m0 = 1: a is 1x1, and a_low and b_low have one component.
        cfg = langevin_config()
        cfg["coefficients"][key] = value
        cfg["M"] = 1.0
        path = write_model(tmp_path, cfg)
        assert main(["validate", "--model", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"validation failure [None]: {named}\n"


class TestSubcommands:
    def test_validate_ok(self, langevin_model_path, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        assert main(["validate", "--model", langevin_model_path]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["kalman_rank"] == 2
        assert sorted(os.listdir(tmp_path)) == before  # no --out: printed, not written

    def test_validate_prints_only_strict_json(self, langevin_model_path, monkeypatch, capsys):
        # A NaN constant passes the loader's comparisons; the summary check stops it.
        monkeypatch.setattr(cli, "ellipticity_check", lambda spec: (float("nan"), 1.0))
        assert main(["validate", "--model", langevin_model_path]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite value nan for key 'mu_sampled'" in captured.err

    def test_gramian_csv(self, langevin_model_path, tmp_path):
        out = str(tmp_path / "g")
        code = main(
            ["gramian", "--model", langevin_model_path, "--tau-grid", "0.5,1.0", "--out", out]
        )
        assert code == EXIT_OK
        rows = read_csv(out + ".csv")
        assert rows[0] == ["tau", "C_00", "C_01", "C_10", "C_11", "logdet", "det_ratio"]
        last = [float(v) for v in rows[2]]
        assert np.isclose(last[1], 1.0, rtol=1e-10)  # C(1)[0,0]
        assert np.isclose(last[6], 1.0, rtol=1e-9)  # star-free: det ratio 1
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["subcommand"] == "gramian"

    def test_kernel_point_value(self, langevin_model_path, tmp_path):
        out = str(tmp_path / "k")
        code = main(
            [
                "kernel", "--model", langevin_model_path, "--lambda", "1.0",
                "--from", "0,0,0", "--to", "1,0,0", "--out", out,
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(out + ".csv")
        gamma = float(rows[1][2])
        assert np.isclose(gamma, np.sqrt(12.0) / (2 * np.pi), rtol=1e-10)

    def test_kernel_horizon_failure_is_numeric_exit(self, langevin_model_path, tmp_path):
        code = main(
            [
                "kernel", "--model", langevin_model_path,
                "--from", "0,0,0", "--to", "2,0,0",
                "--out", str(tmp_path / "k2"),
            ]
        )
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("option", ["--c-lower", "--c-upper"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_kernel_nonpositive_constant_is_usage_error(
        self, option, value, langevin_model_path, tmp_path, capsys
    ):
        out = tmp_path / "kc"
        code = main(
            [
                "kernel", "--model", langevin_model_path,
                "--from", "0,0,0", "--to", "1,0.5,0.2", option, value, "--out", str(out),
            ]
        )
        assert code == EXIT_USAGE
        assert option in capsys.readouterr().err
        assert list(tmp_path.glob("kc*")) == []

    def test_control_cost(self, langevin_model_path, tmp_path):
        out = str(tmp_path / "c")
        code = main(
            [
                "control", "--model", langevin_model_path,
                "--from", "0,0,0", "--to", "1,1,0", "--out", out,
            ]
        )
        assert code == EXIT_OK
        summary = json.loads(open(out + ".json").read())
        assert np.isclose(summary["cost"], 4.0, rtol=1e-10)
        rows = read_csv(out + ".csv")
        assert len(rows) == 1 + 65

    def test_chain_heat_trace(self, tmp_path):
        model = write_model(tmp_path, heat_cfg())
        out = str(tmp_path / "ch")
        code = main(
            [
                "chain", "--model", model, "--from", "0,0", "--to", "1,1",
                "--beta", "0.5", "--r", "0.25", "--kappa", "1.0", "--out", out,
            ]
        )
        assert code == EXIT_OK
        summary = json.loads(open(out + ".json").read())
        assert summary["J"] == 16
        assert np.isclose(summary["exponent"], 18.0)
        assert summary["verified"] is True
        rows = read_csv(out + ".csv")
        assert len(rows) == 1 + summary["J"] + 1

    def test_simulate_requires_seed(self, tmp_path, capsys):
        model = write_model(tmp_path, heat_cfg())
        code = main(
            ["simulate", "--model", model, "--from", "0,0", "--horizon", "1.0"]
        )
        assert code == EXIT_USAGE

    def test_simulate_deterministic(self, tmp_path):
        model = write_model(tmp_path, heat_cfg())
        args = [
            "simulate", "--model", model, "--from", "0,0", "--horizon", "1.0",
            "--paths", "20000", "--steps", "4", "--seed", "42",
            "--density-at", "0", "--bandwidth", "0.1",
        ]
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert main(args + ["--out", out1]) == EXIT_OK
        assert main(args + ["--out", out2]) == EXIT_OK
        assert open(out1 + ".csv", "rb").read() == open(out2 + ".csv", "rb").read()
        summary = json.loads(open(out1 + ".json").read())
        est = summary["density"]
        assert abs(est["value"] - 0.3989) <= 3 * est["stderr"] + 5e-3

    # One-shot (time sinusoid) and stepped (space sinusoid); a partial last chunk.
    @pytest.mark.parametrize("a", [DEEP221_TSIN, DEEP221_SSIN], ids=["one-shot", "stepped"])
    def test_simulate_outputs_independent_of_lane_count(self, tmp_path, monkeypatch, a):
        model = write_model(tmp_path, deep221_cfg(a))
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("KOLMO_THREADS", threads)
            out = str(tmp_path / f"s{threads}")
            code = main(
                [
                    "simulate", "--model", model, "--from", "0,0.1,0,0,0,0", "--horizon", "0.7",
                    "--paths", str(3 * 2**14 + 5), "--steps", "4", "--seed", "5",
                    "--density-at", "0.1,0,0,0,0", "--out", out,
                ]
            )
            assert code == EXIT_OK
            outputs.append([open(out + ext, "rb").read() for ext in (".csv", ".json")])
        assert outputs[0] == outputs[1]

    def test_simulate_memory_does_not_grow_with_paths(self, tmp_path, monkeypatch):
        # An endpoint matrix of 987,654 paths in d = 5 alone is 39.5 MB; each
        # lane holds a few chunk-sized buffers of 0.66 MB instead.
        monkeypatch.setenv("KOLMO_THREADS", "2")
        model = write_model(tmp_path, deep221_cfg(DEEP221_TSIN))
        argv = [
            "simulate", "--model", model, "--from", "0,0.1,0,0,0,0", "--horizon", "0.7",
            "--paths", "987654", "--seed", "5", "--density-at", "0,0,0,0,0",
            "--out", str(tmp_path / "s"),
        ]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 8e6

    def test_verify_bounds_exact_route(self, tmp_path):
        model = write_model(tmp_path, sinusoid_cfg())
        out = str(tmp_path / "vb")
        code = main(
            [
                "verify-bounds", "--model", model, "--from", "0,0",
                "--horizon", "1.0", "--grid", "radius=3,n=25",
                "--lambda-minus", "0.5", "--lambda-plus", "2.0",
                "--seed", "7", "--out", out,
            ]
        )
        assert code == EXIT_OK
        summary = json.loads(open(out + ".json").read())
        assert summary["exact"] is True
        assert "seed" not in summary and "config" not in summary  # nothing was simulated
        assert json.loads(open(out + ".manifest.json").read())["seed"] == 7
        assert 1e-3 <= summary["C_minus"] <= 1e3
        assert 1e-3 <= summary["C_plus"] <= 1e3
        rows = read_csv(out + ".csv")
        assert rows[0][-2:] == ["ratio_minus", "ratio_plus"]
        for row in rows[1:]:
            assert all(np.isfinite(float(v)) for v in row)

    def test_verify_bounds_exact_route_fast_sinusoid(self, tmp_path):
        # a = 0.525 + 0.5 sin(8 pi s + pi/2): the strength 2a averages 1.05
        # over [0, 1], while equally spaced nodes all read its peak 2.05.
        cfg = {
            **heat_cfg(),
            "coefficients": {
                "a": {
                    "kind": "time-sinusoid", "base": 0.525, "amplitude": 0.5,
                    "frequency": 4.0, "phase": np.pi / 2,
                }
            },
            "mu": 40.0,
        }
        model = write_model(tmp_path, cfg)
        out = str(tmp_path / "vb")
        code = main(
            [
                "verify-bounds", "--model", model, "--from", "0,0",
                "--horizon", "1.0", "--grid", "radius=3,n=5",
                "--lambda-minus", "0.05", "--lambda-plus", "2.05",
                "--seed", "1", "--out", out,
            ]
        )
        assert code == EXIT_OK
        peak = [row for row in read_csv(out + ".csv")[1:] if float(row[0]) == 0.0]
        assert abs(float(peak[0][1]) - 1.0 / np.sqrt(2.0 * np.pi * 1.05)) <= 1e-12

    def test_verify_bounds_mc_route_with_zero_hits(self, tmp_path):
        cfg = {
            "blocks": [1],
            "B": [[0.0]],
            "coefficients": {
                "a": {"kind": "space-sinusoid", "base": 0.5, "amplitude": 0.05, "wave": [1.0]}
            },
            "mu": 2.5,
            "M": 0.0,
        }
        model = write_model(tmp_path, cfg)
        out = str(tmp_path / "vbmc")
        code = main(
            [
                "verify-bounds", "--model", model, "--from", "0,0",
                "--horizon", "1.0", "--grid", "radius=6,n=7",
                "--lambda-minus", "0.8", "--lambda-plus", "1.2",
                "--paths", "30000", "--steps", "8", "--seed", "3",
                "--bandwidth", "0.25", "--out", out,
            ]
        )
        assert code == EXIT_OK
        summary = json.loads(open(out + ".json").read())
        assert summary["exact"] is False
        assert summary["seed"] == 3
        assert summary["config"] == {"n_paths": 30000, "n_steps": 8, "bandwidth": 0.25}
        assert summary["zero_hit_indices"]  # the radius-6 tails are unreachable
        for row in read_csv(out + ".csv")[1:]:
            assert all(np.isfinite(float(v)) for v in row)

    def test_verify_bounds_json_refuses_nan(self, tmp_path, capsys):
        # Both targets sit six standard deviations out, so no path hits
        # either and C- and C+ are undefined: NaN is not JSON.
        cfg = {
            "blocks": [1],
            "B": [[0.0]],
            "coefficients": {
                "a": {"kind": "space-sinusoid", "base": 0.5, "amplitude": 0.05, "wave": [1.0]}
            },
            "mu": 2.5,
            "M": 0.0,
        }
        model = write_model(tmp_path, cfg)
        (tmp_path / "out").mkdir()
        out = str(tmp_path / "out" / "vbnan")
        code = main(
            [
                "verify-bounds", "--model", model, "--from", "0,0",
                "--horizon", "1.0", "--grid", "radius=6,n=2",
                "--lambda-minus", "0.8", "--lambda-plus", "1.2",
                "--paths", "4000", "--steps", "8", "--seed", "3", "--out", out,
            ]
        )
        assert code == EXIT_NUMERIC
        assert "C_minus" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []  # not even the table, which is finite

    def test_non_finite_row_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def inf_row(args, spec):
            return None, (["tau", "value"], [[0.1, 1.0], [0.5, float("inf")], [1.0, 2.0]])

        monkeypatch.setattr("kolmo.cli._cmd_gramian", inf_row)
        model = write_model(tmp_path, heat_cfg())
        (tmp_path / "out").mkdir()
        code = main(["gramian", "--model", model, "--out", str(tmp_path / "out" / "g")])
        assert code == EXIT_NUMERIC
        assert "non-finite value inf in CSV output" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []

    def test_non_finite_option_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # The table and summary are finite; only the manifest's record of
        # the unused bandwidth is not.  The parser refuses such a value, so
        # the handler sets it, as an option with no range check would.
        simulate = cli._cmd_simulate

        def unchecked_bandwidth(args, spec):
            args.bandwidth = float("inf")
            return simulate(args, spec)

        monkeypatch.setattr("kolmo.cli._cmd_simulate", unchecked_bandwidth)
        model = write_model(tmp_path, heat_cfg())
        (tmp_path / "out").mkdir()
        code = main(
            [
                "simulate", "--model", model, "--from", "0,0", "--horizon", "1.0",
                "--paths", "100", "--seed", "1", "--out", str(tmp_path / "out" / "s"),
            ]
        )
        assert code == EXIT_NUMERIC
        assert "params.bandwidth" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("threads", ["0", "-1", "two", "1.5", ""])
    def test_malformed_thread_count_is_usage_error(self, tmp_path, monkeypatch, capsys, threads):
        monkeypatch.setenv("KOLMO_THREADS", threads)
        model = write_model(tmp_path, heat_cfg())
        out = str(tmp_path / "s")
        code = main(
            [
                "simulate", "--model", model, "--from", "0,0", "--horizon", "1.0",
                "--paths", "100", "--seed", "1", "--out", out,
            ]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "KOLMO_THREADS" in err
        assert not os.path.exists(out + ".manifest.json")

    def test_verify_bounds_exact_route_writes_psd_margins(self, langevin_model_path, tmp_path):
        # LANGEVIN's strength is 2a = 1, so lambda- C <= C_w <= lambda+ C
        # holds with equality at lambda+- = 1.
        out = str(tmp_path / "vbpsd")
        code = main(
            [
                "verify-bounds", "--model", langevin_model_path, "--from", "0,0,0",
                "--horizon", "1.0", "--grid", "radius=2,n=3",
                "--lambda-minus", "1", "--lambda-plus", "1", "--seed", "4", "--out", out,
            ]
        )
        assert code == EXIT_OK
        summary = json.loads(open(out + ".json").read())
        assert summary["exact"] is True
        assert len(summary["psd_margins"]) == 2
        assert min(summary["psd_margins"]) >= -1e-12

    def test_equivalence_constants(self, langevin_model_path, tmp_path):
        out = str(tmp_path / "eq")
        code = main(
            ["equivalence", "--model", langevin_model_path, "--tau-grid", "0.5,1.0", "--out", out]
        )
        assert code == EXIT_OK
        summary = json.loads(open(out + ".json").read())
        assert np.isclose(summary["k_dilation"][0], 8 - np.sqrt(52), rtol=1e-9)
        assert np.isclose(summary["k_dilation"][1], 8 + np.sqrt(52), rtol=1e-9)

    def test_unknown_subcommand(self):
        assert main(["frobnicate", "--model", "x"]) == EXIT_USAGE

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "subcommand is required" in capsys.readouterr().err

    def test_help_and_version_succeed(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert main(["--version"]) == EXIT_OK

    def test_validate_reports_exact_constants(self, langevin_model_path, capsys):
        # The summary keeps the key mu_sampled and fills it with the exact pair.
        assert main(["validate", "--model", langevin_model_path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["mu_sampled"] == list(ellipticity_check(load_model(langevin_model_path)))

    def test_chain_horizon_rounded_above_tau_runs(self, langevin_model_path, tmp_path):
        # 1.1 - 0.1 is 1.0000000000000002: within build_chain's time tolerance.
        argv = ["--from", "0.1,0,0", "--to", "1.1,0.1,0", "--out", str(tmp_path / "ch")]
        assert main(["chain", "--model", langevin_model_path, *argv]) == EXIT_OK

    def test_overflowing_gramian_writes_nothing(self, tmp_path, capsys):
        # e^(400 B) overflows, so the Van Loan C(400) is not finite.
        cfg = {"blocks": [1, 1], "B": [[1, 0], [1, 0]], "coefficients": {"a": 0.5}, "mu": 2}
        model = write_model(tmp_path, cfg)
        (tmp_path / "out").mkdir()
        out = str(tmp_path / "out" / "g")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["gramian", "--model", model, "--tau-grid", "400", "--out", out])
        assert code == EXIT_NUMERIC
        assert "covariance is not finite" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []

    def test_gramian_on_invalid_model(self, tmp_path):
        cfg = langevin_config()
        cfg["B"] = [[0.0, 0.0], [0.0, 0.0]]
        model = write_model(tmp_path, cfg)
        assert main(["gramian", "--model", model, "--out", str(tmp_path / "g")]) == EXIT_VALIDATION


class TestOutputs:
    """`main` writes every file; handlers only compute."""

    RUNS = {
        "validate": ["--out", "o"],
        "gramian": ["--out", "o"],
        "kernel": ["--from", "0,0,0", "--to", "1,0.5,0.2", "--grid", "radius=2,n=3", "--out", "o"],
        "control": ["--from", "0,0,0", "--to", "1,1,0", "--n", "9", "--out", "o"],
        "chain": ["--from", "0,0,0", "--to", "1,1,0", "--out", "o"],
        "simulate": ["--from", "0,0,0", "--horizon", "1", "--paths", "2000", "--seed", "4",
                     "--density-at", "0,0", "--out", "o"],
        "verify-bounds": ["--from", "0,0,0", "--horizon", "1", "--lambda-minus", "1",
                          "--lambda-plus", "1", "--grid", "radius=2,n=3", "--seed", "4",
                          "--out", "o"],
        "equivalence": ["--out", "o"],
    }
    FILES = {
        "validate": {"json"},
        "gramian": {"csv"},
        "kernel": {"csv"},
    }

    def test_reruns_identical_and_manifest_lists_the_files(
        self, langevin_model_path, tmp_path, monkeypatch
    ):
        for sub, extra in self.RUNS.items():
            runs = []
            for rerun in ("a", "b"):
                cwd = tmp_path / sub / rerun
                cwd.mkdir(parents=True)
                monkeypatch.chdir(cwd)
                assert main([sub, "--model", langevin_model_path, *extra]) == EXIT_OK
                manifest = json.loads((cwd / "o.manifest.json").read_text())
                assert set(manifest["outputs"]) == self.FILES.get(sub, {"csv", "json"})
                assert sorted(os.listdir(cwd)) == sorted(
                    [*manifest["outputs"].values(), "o.manifest.json"]
                )
                runs.append({name: (cwd / name).read_bytes() for name in os.listdir(cwd)})
            assert runs[0] == runs[1], sub


class TestManifestInputs:
    """The manifest records the model's content hash and the library versions."""

    def manifest(self, tmp_path, name, text):
        model = tmp_path / f"{name}.json"
        model.write_text(text)
        out = str(tmp_path / name)
        assert main(["validate", "--model", str(model), "--out", out]) == EXIT_OK
        return json.loads(open(out + ".manifest.json").read())

    def test_hash_ignores_key_order_and_whitespace(self, tmp_path):
        cfg = langevin_config()
        first = self.manifest(tmp_path, "a", json.dumps(cfg))
        reordered = dict(reversed(list(cfg.items())))
        second = self.manifest(tmp_path, "b", json.dumps(reordered, indent=4))
        assert first["inputs"] == second["inputs"]
        assert set(first["inputs"]) == {"model_sha256", "numpy", "python", "scipy"}
        assert len(first["inputs"]["model_sha256"]) == 64

    def test_changed_coefficient_changes_hash(self, tmp_path):
        first = self.manifest(tmp_path, "a", json.dumps(langevin_config(1.0)))
        cfg = langevin_config(1.0)
        cfg["coefficients"]["a"]["value"] = 0.6
        second = self.manifest(tmp_path, "b", json.dumps(cfg))
        assert first["inputs"]["model_sha256"] != second["inputs"]["model_sha256"]


class TestNegativeTimes:
    """A point with a negative time parses as a separate value, as after ``=``."""

    RUNS = {
        "kernel": ["--to", "-0.1,0.1,0", "--grid", "radius=2,n=3"],
        "control": ["--to", "-0.1,0.1,0", "--n", "9"],
        "chain": ["--to", "-0.1,0.1,0"],
        "simulate": ["--horizon", "0.5", "--paths", "2000", "--seed", "4"],
        "verify-bounds": ["--horizon", "0.5", "--lambda-minus", "1", "--lambda-plus", "1",
                          "--grid", "radius=2,n=3", "--seed", "4"],
    }

    @pytest.mark.parametrize("sub", list(RUNS))
    def test_spaced_and_joined_forms_agree(self, sub, langevin_model_path, tmp_path, monkeypatch):
        spaced = ["--from", "-0.2,0,0", *self.RUNS[sub]]
        joined = ["--from=-0.2,0,0"]
        for opt, value in zip(self.RUNS[sub][::2], self.RUNS[sub][1::2]):
            joined.append(f"{opt}={value}")
        runs = []
        for form, extra in (("spaced", spaced), ("joined", joined)):
            cwd = tmp_path / form
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert main([sub, "--model", langevin_model_path, *extra, "--out", "o"]) == EXIT_OK
            runs.append({name: (cwd / name).read_bytes() for name in os.listdir(cwd)})
        assert runs[0] == runs[1]


class TestMalformedValues:
    """A value that does not parse is a usage error naming its option, and writes nothing."""

    CASES = [
        ("kernel", ["--from", "0,x,0", "--to", "1,0,0"], "--from"),
        ("control", ["--from", "0,0,0", "--to", "1,0.5"], "--to"),
        ("gramian", ["--tau-grid", "0.5,x"], "--tau-grid"),
        ("equivalence", ["--tau-grid", "0.1,,1"], "--tau-grid"),
        ("simulate", ["--from", "0,0,0", "--horizon", "1", "--paths", "2000", "--seed", "4",
                      "--density-at", "1,a"], "--density-at"),
        ("simulate", ["--from", "0,0,0", "--horizon", "1", "--paths", "2000", "--seed", "4",
                      "--density-at", "1,2,3"], "--density-at"),
        ("kernel", ["--from", "0,0,0", "--to", "1,0,0", "--grid", "foo"], "--grid"),
        ("kernel", ["--from", "0,0,0", "--to", "1,0,0", "--grid", "radius=3,m=5"], "--grid"),
        ("kernel", ["--from", "0,0,0", "--to", "1,0,0", "--grid", "radius=x"], "--grid"),
        ("verify-bounds", ["--from", "0,0,0", "--horizon", "1", "--lambda-minus", "1",
                           "--lambda-plus", "1", "--seed", "4", "--grid", "radius=3,n=2.7"],
         "--grid"),
        ("verify-bounds", ["--from", "0,0,0", "--horizon", "1", "--lambda-minus", "1",
                           "--lambda-plus", "1", "--seed", "4", "--grid", "radius=3,n=0"],
         "--grid"),
        *(
            ("control", ["--from", "0,0,0", "--to", "1,1,0", "--n", n], "--n")
            for n in ("1", "0", "-3", "2.5", "x")
        ),
        *(
            (sub, ["--from", "0,0,0", "--horizon", "1", "--seed", "4", *extra, option, value],
             option)
            for sub, extra in (("simulate", []),
                               ("verify-bounds", ["--lambda-minus", "1", "--lambda-plus", "1"]))
            for option, value in (("--paths", "0"), ("--paths", "-5"), ("--steps", "0"),
                                  ("--steps", "1.5"))
        ),
    ]

    # A number outside its option's range: each of these once reached the
    # library and exited 1 with a message that did not name the option.
    KERNEL = ["--from", "0,0,0", "--to", "1,0,0"]
    SIMULATE = ["--from", "0,0,0", "--seed", "4", "--paths", "2000"]
    VERIFY = SIMULATE + ["--lambda-minus", "1", "--lambda-plus", "1"]
    OUT_OF_RANGE = {
        "simulate --bandwidth 0": ("simulate", [*SIMULATE, "--horizon", "1", "--bandwidth", "0"]),
        "kernel --lambda 0": ("kernel", [*KERNEL, "--lambda", "0"]),
        "kernel --lambda nan": ("kernel", [*KERNEL, "--lambda", "nan"]),
        "kernel --c-upper inf": ("kernel", [*KERNEL, "--c-upper", "inf"]),
        "verify-bounds --lambda-minus 0": ("verify-bounds", [
            *SIMULATE, "--horizon", "1", "--lambda-minus", "0", "--lambda-plus", "1"]),
        "verify-bounds --lambda-plus -1": ("verify-bounds", [
            *SIMULATE, "--horizon", "1", "--lambda-minus", "1", "--lambda-plus", "-1"]),
        "chain --beta 0": ("chain", [*KERNEL, "--beta", "0"]),
        "chain --beta 1": ("chain", [*KERNEL, "--beta", "1"]),
        "chain --r -1": ("chain", [*KERNEL, "--r", "-1"]),
        "chain --tau 0": ("chain", [*KERNEL, "--tau", "0"]),
        "chain --kappa -2": ("chain", [*KERNEL, "--kappa", "-2"]),
        "chain --c-harnack x": ("chain", [*KERNEL, "--c-harnack", "x"]),
        "simulate --horizon at t": ("simulate", [*SIMULATE, "--horizon", "0"]),
        "verify-bounds --horizon before t": ("verify-bounds", [*VERIFY, "--horizon", "-0.5"]),
        "simulate --horizon inf": ("simulate", [*SIMULATE, "--horizon", "inf"]),
        "simulate --horizon nan": ("simulate", [*SIMULATE, "--horizon", "nan"]),
        # Chain values that HarnackConfig or build_chain reject, alone or together.
        "chain --c-harnack 0.5": ("chain", [*KERNEL, "--c-harnack", "0.5"]),
        "chain --tau 2": ("chain", [*KERNEL, "--tau", "2"]),
        "chain --r 0.8 with beta 0.5": ("chain", [*KERNEL, "--r", "0.8"]),
        "chain --beta 0.9 with r 0.5": ("chain", [*KERNEL, "--beta", "0.9", "--r", "0.5"]),
        "chain --to past tau": ("chain", ["--from", "0,0,0", "--to", "1.5,0,0"]),
    }
    CASES += [(sub, extra, case.split()[1]) for case, (sub, extra) in OUT_OF_RANGE.items()]
    # Numbers that parse but are not finite, and horizons that are not
    # positive: each once exited 1 as a computational failure.
    CASES += [
        ("kernel", ["--from=nan,0,0", "--to", "1,0,0"], "--from"),
        ("control", ["--from", "0,0,0", "--to=1,inf,0"], "--to"),
        ("chain", ["--from", "0,0,0", "--to=1,nan,0"], "--to"),
        ("simulate", ["--from=0,nan,0", *SIMULATE[2:], "--horizon", "1"], "--from"),
        ("gramian", ["--tau-grid", "nan"], "--tau-grid"),
        ("gramian", ["--tau-grid", "-1"], "--tau-grid"),
        ("equivalence", ["--tau-grid", "0.1,0"], "--tau-grid"),
    ]
    # Later rows go last, so every earlier row keeps its id.  A sample
    # covariance needs two paths, and the equivalence constants are defined
    # on horizons up to 1 (`gramian` takes any positive horizon).
    CASES += [
        ("simulate", [*SIMULATE, "--horizon", "1", "--paths", "1"], "--paths"),
        ("equivalence", ["--tau-grid", "1.5"], "--tau-grid"),
    ]

    @pytest.mark.parametrize("sub, extra, option", CASES)
    def test_usage_error_names_option(
        self, sub, extra, option, langevin_model_path, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        before = set(os.listdir(tmp_path))
        code = main([sub, "--model", langevin_model_path, *extra, "--out", "o"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and option in err
        assert set(os.listdir(tmp_path)) == before


class TestOneParser:
    """The parser is built once per process, and a call leaves nothing in it."""

    def test_built_once(self, langevin_model_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli._build_parser.cache_clear()
        for sub in ("validate", "gramian", "equivalence"):
            assert main([sub, "--model", langevin_model_path, "--out", sub]) == EXIT_OK
        assert main(["gramian", "--model", langevin_model_path, "--tau-grid", "x"]) == EXIT_USAGE
        info = cli._build_parser.cache_info()
        assert info.misses == 1 and info.hits == 3

    CALLS = [
        ["kernel", "--from", "0,0,0", "--to", "1,0.5,0.2", "--grid", "radius=3,n=5"],
        ["kernel", "--from", "0,0,0", "--to", "1,0.5,0.2"],
        ["gramian", "--tau-grid", "0.2,0.7"],
        ["gramian"],
    ]

    def run(self, argv, model, cwd, monkeypatch):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main([*argv, "--model", model, "--out", "o"]) == EXIT_OK
        return {name: (cwd / name).read_bytes() for name in os.listdir(cwd)}

    def test_calls_leave_no_state(self, langevin_model_path, tmp_path, monkeypatch):
        first = []
        for i, argv in enumerate(self.CALLS):
            cli._build_parser.cache_clear()
            first.append(self.run(argv, langevin_model_path, tmp_path / f"first{i}", monkeypatch))
        in_turn = [
            self.run(argv, langevin_model_path, tmp_path / f"turn{i}", monkeypatch)
            for i, argv in enumerate(self.CALLS)
        ]
        assert cli._build_parser.cache_info().misses == 1
        assert in_turn == first


@pytest.mark.skipif(not cli._openblas_pools(), reason="no bundled OpenBLAS pool")
class TestOneBlasThread:
    """A subcommand computes with every bundled OpenBLAS pool on one thread."""

    @pytest.fixture(autouse=True)
    def two_threads(self):
        # Two threads before each call, so a count left at one shows.
        pools = cli._openblas_pools()
        counts = self.counts()
        for _, set_ in pools:
            set_(2)
        yield
        for (_, set_), count in zip(pools, counts):
            set_(count)

    def counts(self):
        return [get() for get, _ in cli._openblas_pools()]

    def run_recording(self, handler, model, tmp_path, monkeypatch):
        seen = []

        def recording(args, spec):
            seen.append(self.counts())
            return handler(args, spec)

        monkeypatch.setattr("kolmo.cli._cmd_validate", recording)
        code = main(["validate", "--model", model, "--out", str(tmp_path / "v")])
        assert seen == [[1] * len(cli._openblas_pools())]
        assert self.counts() == [2] * len(cli._openblas_pools())
        return code

    def test_pinned_in_handler_and_restored(self, langevin_model_path, tmp_path, monkeypatch):
        code = self.run_recording(cli._cmd_validate, langevin_model_path, tmp_path, monkeypatch)
        assert code == EXIT_OK

    def test_restored_after_failure(self, langevin_model_path, tmp_path, monkeypatch, capsys):
        def failing(args, spec):
            raise ValueError("handler failed")

        code = self.run_recording(failing, langevin_model_path, tmp_path, monkeypatch)
        assert code == EXIT_NUMERIC
        assert "handler failed" in capsys.readouterr().err


class TestRoute:
    """`validate` reports the route `simulate` and `verify-bounds` take, refusals included."""

    MODELS = {
        "constant-a": ({}, "one-shot", "exact"),
        "constant-b-low": ({"b_low": 0.3}, "one-shot", "monte-carlo"),
        "space-sinusoid": (
            {"a": {"kind": "space-sinusoid", "base": 0.5, "amplitude": 0.1, "wave": [0.5, 0.25]}},
            "stepped",
            "monte-carlo",
        ),
        "c": ({"c": 0.5}, "refused", "refused"),
        "space-table": (
            {"a": {"kind": "tabulated", "points": [0.0, 1.0], "values": [0.5, 0.6], "axis": 0}},
            "refused",
            "refused",
        ),
    }

    @staticmethod
    def model(tmp_path, coefficients):
        cfg = langevin_config()
        cfg["coefficients"].update(coefficients)
        cfg["mu"], cfg["M"] = 2.5, 1.0
        return write_model(tmp_path, cfg)

    @pytest.mark.parametrize("name", list(MODELS))
    def test_validate_reports_route(self, tmp_path, capsys, name):
        coefficients, simulate, verify = self.MODELS[name]
        assert main(["validate", "--model", self.model(tmp_path, coefficients)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)["route"]
        assert list(report) == ["refusal", "simulate", "verify_bounds"]
        assert (report["simulate"], report["verify_bounds"]) == (simulate, verify)
        assert (report["refusal"] is None) == (simulate != "refused")

    @pytest.mark.parametrize(
        "name, code, prefix",
        [("c", EXIT_NUMERIC, "computation failed"),
         ("space-table", EXIT_VALIDATION, "validation failure [None]")],
    )
    def test_refusal_is_what_runs_print(self, tmp_path, capsys, name, code, prefix):
        path = self.model(tmp_path, self.MODELS[name][0])
        assert main(["validate", "--model", path]) == EXIT_OK
        refusal = json.loads(capsys.readouterr().out)["route"]["refusal"]
        run = ["--model", path, "--from", "0,0,0", "--horizon", "1", "--paths", "100",
               "--seed", "1", "--out", str(tmp_path / "out" / "r")]
        (tmp_path / "out").mkdir()
        for argv in (["simulate", *run],
                     ["verify-bounds", *run, "--lambda-minus", "0.5", "--lambda-plus", "2"]):
            assert main(argv) == code
            assert capsys.readouterr().err == f"{prefix}: {refusal}\n"
        assert os.listdir(tmp_path / "out") == []
