"""Command-line entry point.

Subcommands: ``validate``, ``gramian``, ``kernel``, ``control``, ``chain``,
``simulate``, ``verify-bounds``, ``equivalence``.  Every run writes its
results as CSV and/or JSON next to a run manifest; reruns with an identical
manifest produce byte-identical outputs (floats are serialized with
shortest-roundtrip ``repr``; a NaN or an infinity is a computational failure).

Exit codes: 0 success, 1 computational failure, 2 parse error,
3 model validation failure, 64 usage error (a malformed or out-of-range option
value too).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import platform
import re
import sys

import numpy as np
import scipy

from . import __version__
from .chain import _TIME_TOL, HarnackConfig, build_chain, verify_chain
from .control import (
    ControlProblem,
    control_value,
    discrete_least_norm_control,
    kappa_estimate,
    optimal_control,
    partial_cost,
    trajectory,
)
from .exceptions import CoefficientError, KolmoError, SettingError, StructureError
from .gramian import equivalence_constants, gramian, gramian_homogeneous
from .kernel import GaussianKernel, aronson_upper_form, lower_bound_form
from .mc import SimConfig, summarize_paths, verify_bounds
from .model import (
    coefficient_bounds,
    dilation_scales,
    ellipticity_check,
    kalman_rank,
    spec_from_config,
    spec_to_config,
)

__all__ = ["main", "load_model"]

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _ParseError(KolmoError):
    pass


class _ValidationFailure(KolmoError):
    def __init__(self, clause, message):
        super().__init__(message)
        self.clause = clause


def load_model(path):
    """Load and fully validate a model config file.

    Runs the structural validation, the coupling rank check, and the exact
    ellipticity constants and lower-order sup norms over every ``(t, x)``
    against the declared ``mu`` and ``M``.  Returns the spec.  A document
    that is not a JSON object, or lacks a required key, raises a
    `KolmoError` naming the key.
    """
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise _ParseError(f"model must be a JSON object, got {type(cfg).__name__}")
    try:
        spec = spec_from_config(cfg)
    except KeyError as exc:
        raise _ParseError(f"model is missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:  # a list or a string where an object belongs
        raise _ParseError(f"model has a value of the wrong type: {exc}") from exc
    rank = kalman_rank(spec.system)
    if rank != spec.system.d:
        raise _ValidationFailure(
            "kalman-rank", f"coupling rank {rank} < {spec.system.d}; covariance singular"
        )
    mu_low, mu_high = ellipticity_check(spec)
    if mu_low > spec.mu + 1e-12 or mu_high > spec.mu + 1e-12:
        raise _ValidationFailure(
            "ellipticity",
            f"ellipticity constants ({mu_low}, {mu_high}) exceed declared mu={spec.mu}",
        )
    sup_a, sup_b, sup_c = coefficient_bounds(spec)
    if max(sup_a, sup_b, sup_c) > spec.M_bound + 1e-12:
        raise _ValidationFailure(
            "coefficient-bound",
            f"sup norms ({sup_a}, {sup_b}, {sup_c}) exceed M={spec.M_bound}",
        )
    return spec


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path, header, rows):
    # Every row is checked before the file is opened, so a failure leaves none.
    for row in rows:
        for v in row:
            if isinstance(v, (float, np.floating)) and not math.isfinite(v):
                raise KolmoError(f"non-finite value {v} in CSV output")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _check_finite(obj, key=None):
    """Raise `KolmoError` naming the key of the first NaN or infinity in ``obj``.

    Strict JSON has no such values, so the check runs before a file is opened.
    """
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, k if key is None else f"{key}.{k}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for v in obj:
            _check_finite(v, key)
    elif isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        raise KolmoError(f"non-finite value {obj} for key {key!r} in JSON output")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _manifest(args, outputs, spec):
    """The run's parameters and outputs, and its inputs.

    ``inputs`` holds the sha256 of the model's canonical JSON (its
    `spec_to_config` form with sorted keys and compact separators, so key
    order and whitespace do not change it) and the python, numpy and scipy
    versions.
    """
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k != "out" and v is not None
    }
    canonical = json.dumps(spec_to_config(spec), sort_keys=True, separators=(",", ":"))
    return {
        "subcommand": args.subcommand,
        "model": getattr(args, "model", None),
        "inputs": {
            "model_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        },
        "params": params,
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
        "version": __version__,
    }


def _parse_floats(text, option, count=None):
    """The comma-separated finite numbers of ``option``; exactly ``count`` if given."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise _UsageError(f"{option} takes comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise _UsageError(f"{option} takes finite numbers, got {text!r}")
    if count is not None and len(vals) != count:
        raise _UsageError(f"{option} takes {count} numbers, got {text!r}")
    return vals


def _at_least(low):
    """An argparse type: an integer of at least ``low``.

    Anything else is a usage error that names the option.
    """

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _between(low, high):
    """An argparse type: a number strictly between ``low`` and ``high``.

    ``_between(0, math.inf)`` is a positive finite number; NaN is never
    between.  Anything else is a usage error that names the option.
    """

    def parse(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not low < value < high:
            raise argparse.ArgumentTypeError(
                f"must be a number in ({low}, {high}), got {text!r}"
            )
        return value

    return parse


_POSITIVE = _between(0, math.inf)
_FRACTION = _between(0, 1)


def _parse_horizons(text, most=math.inf):
    """The ``--tau-grid`` horizons, each positive and at most ``most``."""
    taus = _parse_floats(text, "--tau-grid")
    if not all(0 < tau <= most for tau in taus):
        kind = "positive horizons" if most == math.inf else f"horizons in (0, {most:g}]"
        raise _UsageError(f"--tau-grid takes {kind}, got {text!r}")
    return taus


def _parse_point(text, d, option):
    vals = _parse_floats(text, option, d + 1)
    return vals[0], np.array(vals[1:])


def _parse_grid(text):
    out = {"radius": 3.0, "n": 25}
    if text:
        for part in text.split(","):
            k, sep, v = part.partition("=")
            k = k.strip()
            if not sep or k not in out:
                raise _UsageError(f"--grid takes radius=<number>,n=<integer>, got {text!r}")
            (val,) = _parse_floats(v, f"--grid {k}")
            if k == "n":
                if not (val.is_integer() and val >= 1):
                    raise _UsageError(f"--grid n must be an integer >= 1, got {v.strip()!r}")
                val = int(val)
            out[k] = val
    return out


def _start_and_horizon(args, d):
    """The ``--from`` point and a finite ``--horizon`` after its time."""
    t, x = _parse_point(args.frm, d, "--from")
    if not t < args.horizon < math.inf:
        raise _UsageError(f"--horizon must be a finite time after {t}, got {args.horizon}")
    return t, x, args.horizon


def _grid_points(system, t, x, T, radius, n):
    """Axis-aligned dilated offsets around the flow image, ``n`` per axis."""
    mean = system.propagator.flow(T - t) @ x
    scale = dilation_scales(system.structure, (T - t) ** 0.5)
    pts = np.tile(mean, (system.d, n, 1))
    for axis in range(system.d):
        pts[axis, :, axis] += np.linspace(-radius, radius, n) * scale[axis]
    return pts.reshape(-1, system.d)


def _cmd_validate(args, spec):
    summary = {
        "blocks": list(spec.structure.m),
        "d": spec.system.d,
        "kalman_rank": spec.system.d,  # the loader rejects any smaller rank
        "mu_declared": spec.mu,
        # The exact constants, under the key that earlier versions filled from samples.
        "mu_sampled": list(ellipticity_check(spec)),
        "valid": True,
    }
    return summary, None


def _cmd_gramian(args, spec):
    rows = []
    for tau in _parse_horizons(args.tau_grid):
        g = gramian(spec.system, tau)
        g0 = gramian_homogeneous(spec.system, tau)
        det_ratio = float(np.exp(g.logdet - g0.logdet))
        rows.append([tau, *g.C.ravel().tolist(), g.logdet, det_ratio])
    d = spec.system.d
    header = ["tau"] + [f"C_{i}{j}" for i in range(d) for j in range(d)] + [
        "logdet",
        "det_ratio",
    ]
    return None, (header, rows)


def _cmd_kernel(args, spec):
    system = spec.system
    d = system.d
    t, x = _parse_point(args.frm, d, "--from")
    T, y = _parse_point(args.to, d, "--to")
    kernel = GaussianKernel(system, args.lam)
    if args.grid is not None:
        g = _parse_grid(args.grid)
        ys = _grid_points(system, t, x, T, g["radius"], g["n"])
    else:
        ys = y[None, :]
    log_gamma = kernel.log_batch(t, x, T, ys)
    lower = lower_bound_form(args.c_lower, system, t, x, T, ys)
    upper = aronson_upper_form(args.c_upper, system, t, x, T, ys)
    rows = np.column_stack((ys, np.exp(log_gamma), log_gamma, lower, upper)).tolist()
    header = [f"y{i}" for i in range(d)] + ["gamma", "log_gamma", "lower_form", "upper_form"]
    return None, (header, rows)


def _cmd_control(args, spec):
    d = spec.system.d
    t, x = _parse_point(args.frm, d, "--from")
    T, y = _parse_point(args.to, d, "--to")
    problem = ControlProblem(spec.system, t, T, x, y)
    ctrl = optimal_control(problem)
    rows = []
    accum = 0.0
    ss = np.linspace(t, T, args.n)
    for i, s in enumerate(ss):
        if i > 0:
            accum += partial_cost(ctrl, ss[i - 1], s)
        v = control_value(ctrl, s)
        rows.append([s, *trajectory(ctrl, s).tolist(), float(v @ v), accum])
    header = ["s"] + [f"gamma{i}" for i in range(d)] + ["v_sq", "cost_accum"]
    summary = {"cost": ctrl.cost, "discrete_check": discrete_least_norm_control(problem, 256)}
    return summary, (header, rows)


def _cmd_chain(args, spec):
    d = spec.system.d
    t, x = _parse_point(args.frm, d, "--from")
    T, y = _parse_point(args.to, d, "--to")
    # Limits the parser types cannot state; HarnackConfig and build_chain check them too.
    if args.c_harnack < 1:
        raise _UsageError(f"--c-harnack must be at least 1, got {args.c_harnack}")
    if args.tau > 1:
        raise _UsageError(f"--tau must be at most 1, got {args.tau}")
    if args.r**2 > args.beta or args.beta + args.r**2 > 1:
        raise _UsageError(f"--r and --beta need r^2 <= beta <= 1 - r^2, got {args.r}, {args.beta}")
    if T - t > args.tau + _TIME_TOL:
        raise _UsageError(f"--to must be at most --tau {args.tau} after --from, got {T - t}")
    kappa = args.kappa if args.kappa is not None else kappa_estimate(spec.system)
    config = HarnackConfig(
        C_harnack=args.c_harnack, beta=args.beta, r=args.r, tau=args.tau, kappa=kappa
    )
    problem = ControlProblem(spec.system, t, T, x, y)
    chain = build_chain(problem, config)
    verified = verify_chain(chain)
    rows = []
    for j, step in enumerate(chain.steps):
        rows.append([j, step.t_start, *chain.points[j].tolist(), step.cost, step.clause])
    rows.append([chain.J, chain.times[-1], *chain.points[-1].tolist(), 0.0, "end"])
    header = ["j", "t_j"] + [f"gamma{i}" for i in range(d)] + ["step_cost", "clause"]
    summary = {
        "V": chain.V,
        "epsilon": config.epsilon,
        "J": chain.J,
        "exponent": chain.exponent,
        "verified": bool(verified),
        "config": {
            "C_harnack": config.C_harnack,
            "beta": config.beta,
            "r": config.r,
            "tau": config.tau,
            "kappa": config.kappa,
        },
    }
    return summary, (header, rows)


def _cmd_simulate(args, spec):
    d = spec.system.d
    t, x, T = _start_and_horizon(args, d)
    y = None
    if args.density_at is not None:
        y = np.array(_parse_floats(args.density_at, "--density-at", d))
    config = SimConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed)
    mean, cov, est = summarize_paths(spec, t, x, T, config, y, args.bandwidth)
    rows = [["mean", *mean.tolist()]]
    for i in range(d):
        rows.append([f"cov_{i}", *cov[i].tolist()])
    header = ["stat"] + [f"x{i}" for i in range(d)]
    summary = {"n_paths": args.paths, "n_steps": args.steps, "seed": args.seed}
    if est is not None:
        summary["density"] = {
            "y": y.tolist(),
            "value": est.value,
            "stderr": est.stderr,
            "n_hits": est.n_hits,
            "bandwidth": est.bandwidth,
        }
    return summary, (header, rows)


def _cmd_verify_bounds(args, spec):
    d = spec.system.d
    t, x, T = _start_and_horizon(args, d)
    g = _parse_grid(args.grid)
    ys = _grid_points(spec.system, t, x, T, g["radius"], g["n"])
    config = SimConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed)
    report = verify_bounds(
        spec, t, x, T, ys, args.lambda_minus, args.lambda_plus,
        sim_config=config, bandwidth=args.bandwidth,
    )
    rows = []
    for i, yi in enumerate(report.y_grid):
        rows.append(
            [
                *yi.tolist(),
                report.gamma[i],
                report.stderr[i],
                report.gamma_minus[i],
                report.gamma_plus[i],
                report.ratio_minus[i],
                report.ratio_plus[i],
            ]
        )
    header = [f"y{i}" for i in range(d)] + [
        "gamma_est", "stderr", "gamma_lambda_minus", "gamma_lambda_plus",
        "ratio_minus", "ratio_plus",
    ]
    summary = {
        "C_minus": report.C_minus,
        "C_plus": report.C_plus,
        "lambda_minus": report.lambda_minus,
        "lambda_plus": report.lambda_plus,
        "exact": report.exact,
        "zero_hit_indices": list(report.zero_hit_indices),
        "diagonal": {
            "horizons": list(report.diagonal_horizons),
            "c": list(report.diagonal_c),
            "c_fit": report.diagonal_c_fit,
        },
    }
    if report.exact:  # the covariance sandwich is checked on the exact route only
        summary["psd_margins"] = list(report.psd_margins)
    else:  # the exact route simulates nothing
        summary["seed"] = args.seed
        summary["config"] = {
            "n_paths": args.paths, "n_steps": args.steps, "bandwidth": args.bandwidth
        }
    return summary, (header, rows)


def _cmd_equivalence(args, spec):
    # The equivalence constants are defined on horizons in (0, 1].
    report = equivalence_constants(spec.system, _parse_horizons(args.tau_grid, most=1.0))
    rows = [[tau, ratio] for tau, ratio in zip(report.tau_grid, report.det_ratio)]
    summary = {
        "k_dilation": list(report.k_dilation),
        "k_quadratic": list(report.k_quadratic),
        "tau_grid": list(report.tau_grid),
    }
    return summary, (["tau", "det_ratio"], rows)


@functools.cache
def _build_parser():
    """The argument parser, built on first use and kept: parsing leaves it unchanged.

    It holds no handlers; `main` looks up ``_cmd_<subcommand>`` when it runs.
    """
    parser = _Parser(prog="kolmo", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand")

    def add(name, help, *, to=False, sim=False, min_paths=1):
        """A subcommand; ``to`` adds ``--from --to``, ``sim`` the simulation options.

        ``min_paths`` is the least ``--paths`` the subcommand accepts.
        """
        p = sub.add_parser(name, help=help)
        # A point such as -0.2,0,0 is a value, not an option: argparse's own
        # negative-number test accepts only a bare number.
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--model", required=True, help="model config JSON")
        p.add_argument("--out", default=None, help="output path base")
        if to or sim:
            p.add_argument("--from", dest="frm", required=True, help="t,x1,...,xd")
        if to:
            p.add_argument("--to", required=True, help="T,y1,...,yd")
        if sim:
            p.add_argument("--horizon", type=float, required=True)
            p.add_argument("--paths", type=_at_least(min_paths), default=100000)
            p.add_argument("--steps", type=_at_least(1), default=16)
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--bandwidth", type=_POSITIVE, default=0.2)
        return p

    add("validate", "validate a model config")

    p = add("gramian", "covariance matrices over a horizon grid")
    p.add_argument("--tau-grid", default="0.1,0.5,1.0")

    p = add("kernel", "Gaussian kernel and bound forms", to=True)
    p.add_argument("--lambda", dest="lam", type=_POSITIVE, default=1.0)
    p.add_argument("--grid", default=None, help="radius=3,n=25 (dilated offsets)")
    p.add_argument("--c-lower", type=_POSITIVE, default=1.0)
    p.add_argument("--c-upper", type=_POSITIVE, default=1.0)

    p = add("control", "minimum-energy control trajectory", to=True)
    p.add_argument("--n", type=_at_least(2), default=65)

    p = add("chain", "Harnack chain construction", to=True)
    p.add_argument("--beta", type=_FRACTION, default=0.5)
    p.add_argument("--r", type=_FRACTION, default=0.25)
    p.add_argument("--tau", type=_POSITIVE, default=1.0)
    p.add_argument("--kappa", type=_POSITIVE, default=None, help="default: estimated")
    p.add_argument("--c-harnack", type=_POSITIVE, default=10.0)

    # A sample covariance needs two paths.
    p = add("simulate", "endpoint simulation", sim=True, min_paths=2)
    p.add_argument("--density-at", default=None, help="y1,...,yd")

    p = add("verify-bounds", "two-sided bound verification", sim=True)
    p.add_argument("--grid", default="radius=3,n=25")
    p.add_argument("--lambda-minus", type=_POSITIVE, required=True)
    p.add_argument("--lambda-plus", type=_POSITIVE, required=True)

    p = add("equivalence", "homogeneous comparison constants")
    p.add_argument("--tau-grid", default="0.01,0.1,1.0")

    return parser


def main(argv=None):
    """Run one subcommand and write its files; handlers only compute.

    A handler returns ``(summary, table)``, either possibly None: the table
    goes to ``<out>.csv``, the summary to ``<out>.json``, and the manifest
    lists exactly those files.  ``validate`` with no ``--out`` prints instead.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "subcommand", None) is None:
            parser.print_usage(sys.stderr)
            print("usage error: a subcommand is required", file=sys.stderr)
            return EXIT_USAGE
        if args.out is None and args.subcommand != "validate":
            args.out = f"kolmo-{args.subcommand}"
        spec = load_model(args.model)
        handler = globals()["_cmd_" + args.subcommand.replace("-", "_")]
        summary, table = handler(args, spec)
        if args.out is None:
            print(json.dumps(summary, sort_keys=True))
            return EXIT_OK
        outputs = {}
        if table is not None:
            outputs["csv"] = args.out + ".csv"
        if summary is not None:
            outputs["json"] = args.out + ".json"
        manifest = _manifest(args, outputs, spec)
        # Strict JSON has no NaN or infinity: both payloads are checked before
        # any file is opened (the CSV rows before theirs), so a failure leaves
        # no file.
        _check_finite(summary)
        _check_finite(manifest)
        if table is not None:
            _write_csv(outputs["csv"], *table)
        if summary is not None:
            _write_json(outputs["json"], summary)
        _write_json(args.out + ".manifest.json", manifest)
        return EXIT_OK
    except (_UsageError, SettingError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse --help/--version exit; usage failures come through _UsageError
        return 0 if exc.code in (None, 0) else EXIT_USAGE
    except (json.JSONDecodeError, _ParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (StructureError, CoefficientError, _ValidationFailure) as exc:
        clause = getattr(exc, "clause", None)
        print(f"validation failure [{clause}]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KolmoError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
