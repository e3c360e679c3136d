"""Path simulation, density estimation, and two-sided bound verification.

The simulated diffusion matches the operator written in divergence form: the
squared diffusion coefficient on the first ``m0`` coordinates is ``2 a`` (for
a comparison operator with strength ``lambda``, ``a = (lambda/2) I`` gives the
factor ``sqrt(lambda)``), and the drift picks up the divergence correction
``sum_j d_j a_ij`` plus the first-order coefficients.  `route` decides,
once per operator, which of two routes paths take, or that none does:

- *One shot.*  Each path draws its endpoint from ``d`` normals of the
  exactly Gaussian endpoint law, and the step count is not used.
- *Stepped.*  Linear drift and additive noise are integrated exactly within
  each step with coefficients frozen at the step start: the noise of a step
  of length ``dt`` has covariance ``2 alpha C(dt)`` for an isotropic
  coefficient ``a = alpha I``, from ``d`` normals per path.  The scheme
  coincides with Euler-Maruyama at weak order one.

One run serves several end times: one-shot paths reuse their normal draws
at each, and stepped paths are copied out as they pass each, which the step
grid makes a step boundary.  The Monte Carlo route of `verify_bounds` thus
takes its three on-diagonal horizons from the run it estimates the density
with.

Randomness is counter-partitioned: paths are processed in fixed blocks of
``2**14`` and block ``i`` draws from its own region of a Philox stream keyed
by the seed, so endpoints are bit-identical for a given seed regardless of
worker count or path count.  One-shot blocks draw only the rows they keep;
stepped blocks simulate all ``2**14`` paths.

Blocks are held coordinate-major, ``(d, k)``: one row per coordinate, the
paths along it.  The passes over a block (the affine map of its normals,
the stepped flow, the mean, the centring and the box test) then run along
rows ``k`` long instead of ``d``.  The normals are drawn ``(k, d)``,
path by path, so the layout changes no draw.

Blocks run on lanes: as many as the usable CPUs (``KOLMO_THREADS`` overrides
the count), never more than there are blocks.  The calling thread is one of
the lanes; each lane takes the next block from one ordered source, and an
error in any lane stops the others and is raised to the caller.  The lanes
assume the cores are theirs: the CLI runs OpenBLAS on one thread while a
subcommand computes, since its worker thread otherwise busy-waits after
each small solve and takes a core from them.  A library caller keeps its
own BLAS settings.

`simulate_paths` returns every endpoint.  `summarize_paths` keeps none: each
lane draws a chunk into one chunk-sized buffer of its own and reduces it
there, while it is still in cache, to its row count, mean, centred scatter
and box hits.  The chunks' results are kept by chunk index and merged in
chunk order by the pairwise update of Chan, Golub and LeVeque (1983), so
they are the same for every lane count, and memory does not grow with the
path count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import fields
from .exceptions import CoefficientError, GramianError, SettingError
from .gramian import input_response
from .kernel import GaussianKernel
from .model import dilation_scales, ellipticity_check, homogeneous_dimension

__all__ = [
    "route",
    "SimConfig",
    "DensityEstimate",
    "BoundReport",
    "simulate_paths",
    "summarize_paths",
    "estimate_density",
    "mass_concentration",
    "verify_bounds",
]

_CHUNK = 1 << 14
# Horizons of the on-diagonal fit, as fractions of ``T - t``.
_DIAGONAL_FRACTIONS = (0.25, 0.5, 1.0)


@dataclass(frozen=True)
class SimConfig:
    """Path count, step count and seed of a simulation run."""

    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("need n_paths >= 1 and n_steps >= 1")


def _chunk_generator(seed, chunk_index):
    # Each chunk owns counter block [0, 0, chunk, 0]: streams never overlap.
    bg = np.random.Philox(key=int(seed) & ((1 << 64) - 1), counter=[0, 0, chunk_index, 0])
    return np.random.Generator(bg)


def simulate_paths(spec, t, x, T, config):
    """Sample endpoint states of the operator's diffusion at time ``T``.

    `route` picks how: one shot, where ``config.n_steps`` is not used, or
    ``config.n_steps`` frozen-coefficient steps (see `_step_grid`); an
    operator it refuses raises its refusal.

    Parameters
    ----------
    spec : OperatorSpec
    t : float
        Start time.
    x : (d,) array_like
        Common initial state.
    T : float or sequence of float
        End time ``T > t``, or increasing end times, all after ``t``.  Every
        end time is a snapshot of the same paths: one-shot paths reuse their
        normal draws at each, and stepped paths are copied out as they pass
        it.
    config : SimConfig

    Returns
    -------
    ndarray
        ``(n_paths, d)`` for a scalar ``T``; ``(len(T), n_paths, d)`` for a
        sequence, row ``i`` of each slice being the same path.  Each one-shot
        slice is bit for bit a scalar call at its end time, and so is the
        last stepped slice when every end time lies on the uniform grid of
        ``n_steps`` steps to ``T[-1]``.
    """
    horizons, run_chunk = _chunk_runner(spec, t, x, T, config)
    n = config.n_paths
    out = np.empty((len(horizons), n, spec.system.d))
    chunks = [
        (c, out[:, c * _CHUNK : (c + 1) * _CHUNK].swapaxes(1, 2)) for c in range(-(-n // _CHUNK))
    ]
    _run_lanes(run_chunk, chunks, _lane_count(len(chunks)))
    return out if np.ndim(T) else out[0]


def summarize_paths(spec, t, x, T, config, y=None, bandwidth=0.2):
    """Sample mean, sample covariance and box density of the endpoints at ``T``.

    The paths are those of ``simulate_paths(spec, t, x, T, config)``, but no
    endpoint matrix is built: each lane reduces the chunk it just drew, in
    one chunk-sized buffer of its own, to its row count, mean, centred
    scatter and box hits at ``y``.  The chunks' results are merged in chunk
    order by the pairwise update of Chan, Golub and LeVeque, so they do not
    depend on the lane count.  ``T`` is one end time.

    Returns ``(mean, cov, density)``: ``cov`` divides the scatter by
    ``n_paths - 1``, and ``density`` is the `DensityEstimate` at the target
    ``y`` (``(d,)``) with box side ``bandwidth``, as `estimate_density` of
    the endpoints gives it, or None without ``y``.  The hit count is that
    of `estimate_density`; the mean and covariance agree with ``np.mean``
    and ``np.cov`` of the endpoints to rounding.
    """
    if np.ndim(T):
        raise ValueError(f"need one end time T, got {T}")
    if config.n_paths < 2:
        raise ValueError(f"a sample covariance needs n_paths >= 2, got {config.n_paths}")
    _, run_chunk = _chunk_runner(spec, t, x, T, config)
    d = spec.system.d
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.shape != (d,):
            raise ValueError(f"need a ({d},) target, got {y.shape}")
        if not bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        scale = dilation_scales(spec.structure, (T - t) ** -0.5)
    n = config.n_paths
    n_chunks = -(-n // _CHUNK)
    parts = [None] * n_chunks
    lane = threading.local()

    def reduce_chunk(chunk_index):
        if not hasattr(lane, "buffer"):
            lane.buffer = np.empty((1, d, _CHUNK))
        rows = lane.buffer[:, :, : min(_CHUNK, n - chunk_index * _CHUNK)]
        run_chunk(chunk_index, rows)
        X = rows[0]
        hits = 0 if y is None else _box_hits(X, y, scale, bandwidth)
        mean = X.mean(axis=1)
        X -= mean[:, None]
        parts[chunk_index] = (X.shape[1], mean, X @ X.T, hits)

    _run_lanes(reduce_chunk, [(c,) for c in range(n_chunks)], _lane_count(n_chunks))
    count, mean, scatter, hits = parts[0]
    for m, mean_m, scatter_m, hits_m in parts[1:]:
        delta = mean_m - mean
        mean = mean + delta * (m / (count + m))
        scatter = scatter + scatter_m + np.outer(delta, delta) * (count * m / (count + m))
        count += m
        hits += hits_m
    density = None if y is None else _box_estimate(hits, n, bandwidth, spec.structure, T - t)
    return mean, scatter / (n - 1), density


def _chunk_runner(spec, t, x, T, config):
    """The end times and ``run_chunk(chunk_index, rows)`` of a simulation.

    Checks that the end times increase from ``t``, that `route` does not
    refuse the operator and that ``x`` has shape ``(d,)``, and runs the
    route it picks.  ``run_chunk`` fills the ``rows[i]`` view, ``(d, k)`` with
    ``k <= 2**14``, with the first ``k`` paths of the chunk at end time
    ``i``, one row per coordinate; the same chunk index always gives the
    same paths.
    """
    horizons = np.atleast_1d(np.asarray(T, dtype=float)).tolist()
    if np.ndim(T) > 1 or not horizons or not all(
        a < b for a, b in zip([t, *horizons], horizons)
    ):
        raise ValueError(f"need increasing end times T > t, got t={t}, T={T}")
    law, _, refusal = route(spec)
    if refusal is not None:
        raise refusal
    d = spec.system.d
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"initial state must have shape ({d},), got {x.shape}")

    if law is None:
        return horizons, _stepped_chunk_runner(spec, t, x, horizons, config)
    try:
        draws = [(law.mean(t, x, h), law.covariance(t, h).chol) for h in horizons]
    except GramianError as exc:  # a strength not positive on [t, T]
        raise CoefficientError(f"diffusion strength: {exc}") from exc

    def run_chunk(chunk_index, rows):
        Z = _chunk_generator(config.seed, chunk_index).standard_normal((rows.shape[2], d))
        for (mean, chol), slab in zip(draws, rows):
            np.matmul(chol, Z.T, out=slab)
            slab += mean[:, None]

    return horizons, run_chunk


def _lane_count(n_chunks):
    """The lane count: ``KOLMO_THREADS``, else the usable CPUs, at most ``n_chunks``."""
    setting = os.environ.get("KOLMO_THREADS")
    if setting is None:
        try:
            lanes = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity query on this platform
            lanes = os.cpu_count() or 1
    else:
        try:
            lanes = int(setting)
        except ValueError:
            lanes = 0
        if lanes < 1:
            raise SettingError(f"KOLMO_THREADS must be an integer >= 1, got {setting!r}")
    return min(lanes, n_chunks)


def _run_lanes(run_chunk, chunks, lanes):
    """``run_chunk(*job)`` for every job, on ``lanes`` lanes, the calling thread one of them.

    Lanes take jobs in order from one source, and the first error stops every
    lane from taking another.  Of the errors raised, the one of the earliest
    job is re-raised: every job before it was taken and ran, so it is the
    error a run on one lane raises.
    """
    if lanes == 1:
        for job in chunks:
            run_chunk(*job)
        return
    source = enumerate(chunks)
    take = threading.Lock()
    stop = threading.Event()
    errors = []

    def lane():
        while not stop.is_set():
            with take:
                position, job = next(source, (None, None))
            if job is None:
                return
            try:
                run_chunk(*job)
            except Exception as exc:
                with take:
                    errors.append((position, exc))
                stop.set()

    with ThreadPoolExecutor(max_workers=lanes - 1) as pool:
        helpers = [pool.submit(lane) for _ in range(lanes - 1)]
        try:
            lane()
        finally:
            stop.set()
            for helper in helpers:
                helper.result()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


class Route(NamedTuple):
    """`route`'s decision: the one-shot law or None, whether it is exact, the refusal or None."""

    law: object
    exact: bool
    refusal: Exception | None


def route(spec):
    """How `simulate_paths` and `verify_bounds` run the operator, decided once.

    Refused: a zeroth-order coefficient that does not vanish (the samples
    are then no transition density) and a space-axis table in the diffusion.
    One shot where the diffusion does not depend on space and the
    lower-order coefficients are constants, summing to ``b``: ``law`` is
    ``N(e^(tau B) x + J(tau) b, C_w)``, the kernel of strength ``2 a`` and
    drift ``b``, ``exact`` (read by `verify_bounds`) where ``a_low`` and
    ``b_low`` are each zero, not merely their sum.  Stepped elsewhere.
    """
    a, refusal = spec.a, None
    if not fields.is_zero(spec.c):
        refusal = ValueError("simulation requires a vanishing zeroth-order coefficient")
    elif a.space_dependent and isinstance(a.scalar, fields.TabulatedField):
        refusal = CoefficientError(
            "tabulated space-dependent diffusion is piecewise constant; "
            "the scheme has no convergence guarantees there"
        )
    low = spec.a_low.components + spec.b_low.components
    if refusal or a.space_dependent or not all(isinstance(c, fields.ConstantField) for c in low):
        return Route(None, False, refusal)
    strength = 2.0 * a.matrix if isinstance(a, fields.ConstantMatrixField) else _doubled(a.scalar)
    b = np.add([c.value for c in spec.a_low.components], [c.value for c in spec.b_low.components])
    exact = fields.is_zero(spec.a_low) and fields.is_zero(spec.b_low)
    return Route(GaussianKernel(spec.system, strength, b), exact, None)


def _step_grid(t, horizons, n_steps):
    """Steps from ``t`` to the last horizon, each horizon ending one of them.

    Returns the step start times, the step lengths and, per horizon, the
    number of steps that reach it.  Where every horizon lies on the uniform
    grid of ``n_steps`` steps (to within 1e-9 of a step) that grid is used;
    otherwise each stretch between consecutive horizons gets its rounded
    share of ``n_steps``, at least one step, evenly spaced.
    """
    dt = (horizons[-1] - t) / n_steps
    ends, done = [], 0
    for h in horizons[:-1]:
        done = max(done + 1, round((h - t) / dt))
        ends.append(done)
    ends.append(max(n_steps, done + 1))
    if ends[-1] == n_steps and all(abs((h - t) / dt - e) <= 1e-9 for h, e in zip(horizons, ends)):
        return t + dt * np.arange(n_steps), [dt] * n_steps, ends
    starts, lengths = [], []
    for a, b, start, end in zip([t, *horizons], horizons, [0, *ends], ends):
        steps = end - start
        step = (b - a) / steps
        starts.append(a + step * np.arange(steps))
        lengths += [step] * steps
    return np.concatenate(starts), lengths, ends


def _stepped_chunk_runner(spec, t, x, horizons, config):
    """Chunk simulation by frozen-coefficient steps, with a snapshot at each horizon.

    Each step applies the exact linear flow and the lower-order drift, both
    read off one exponential by `input_response`, and noise
    ``sqrt(2 alpha) L Z`` with ``L`` the Cholesky factor of the step's
    covariance ``C(dt)`` and ``a = alpha I`` at the step start (a constant
    matrix ``a`` folds ``2 a`` into ``L`` instead).  Returns
    ``run_chunk(chunk_index, rows)``, which fills the ``rows[i]`` view with
    that chunk's states at ``horizons[i]``, one row per coordinate.  Every
    chunk simulates ``2**14`` paths, held as ``(d, 2**14)`` with the paths
    along the rows; its normals are drawn path by path, ``(2**14, d)``, so
    the stream does not depend on the layout.
    """
    system = spec.system
    m0 = system.m0
    a_field = spec.a
    # Only an isotropic coefficient can depend on space.
    space_dep = a_field.space_dependent

    if isinstance(a_field, fields.ConstantMatrixField):
        propagator = system.diffusion_propagator(2.0 * a_field.matrix)
        strength = None
    else:
        propagator = system.propagator
        strength = a_field.scalar
    step_times, step_lengths, ends = _step_grid(t, horizons, config.n_steps)
    step_ops = {
        dt: (*input_response(system, dt), propagator.factor(dt).chol)
        for dt in set(step_lengths)
    }
    snapshot_of = {end: i for i, end in enumerate(ends)}

    def run_chunk(chunk_index, rows):
        rng = _chunk_generator(config.seed, chunk_index)
        # One set of buffers per chunk; each step overwrites them in place.
        X = np.tile(x[:, None], (1, _CHUNK))
        X_next, noise, pushed = (np.empty_like(X) for _ in range(3))
        Z = np.empty((_CHUNK, len(x)))
        drift = np.empty((m0, _CHUNK))
        for k, (s_k, dt) in enumerate(zip(step_times, step_lengths), start=1):
            A, J, L = step_ops[dt]
            rng.standard_normal(out=Z)
            np.matmul(L, Z.T, out=noise)
            # Divergence correction plus first-order coefficients, (m0, n).
            for j, (c_a, c_b) in enumerate(zip(spec.a_low.components, spec.b_low.components)):
                drift[j] = c_a(s_k, X.T)
                drift[j] += c_b(s_k, X.T)
            if strength is not None:
                if space_dep:
                    alpha, grad = strength.value_and_gradient(X.T, m0)
                    drift += grad
                else:
                    alpha = strength(s_k, X.T)
                if not np.all(alpha > 0):
                    raise CoefficientError(
                        f"diffusion strength not positive or not finite at s={s_k}"
                    )
                noise *= np.sqrt(2.0 * alpha)
            np.matmul(A, X, out=X_next)
            np.matmul(J, drift, out=pushed)
            X_next += pushed
            X_next += noise
            X, X_next = X_next, X
            if k in snapshot_of:
                rows[snapshot_of[k]] = X[:, : rows.shape[2]]

    return run_chunk


@dataclass(frozen=True)
class DensityEstimate:
    """Box-kernel density value with exact binomial error bars.

    ``value``, ``stderr`` and ``n_hits`` are numbers for one target and
    arrays, one entry per target, for target rows.
    """

    value: float
    stderr: float
    n_hits: int
    bandwidth: float


def estimate_density(endpoints, y, h, structure, horizon):
    """Anisotropic box-kernel estimate of the transition density at ``y``.

    The box is ``|D(horizon^(-1/2)) (X - y)|_inf <= h/2``, whose volume in
    original coordinates is ``h**d * horizon**(Q/2)``; the estimate is the
    hit fraction over that volume and the stderr is binomial.  ``y`` is one
    target ``(d,)`` or target rows ``(k, d)``.  One target scans every row;
    rows sort the endpoints on their first coordinate once, and each target
    scans only the window of rows its box can hold (see `_box_hits`), so
    every count is that of a scan of every row.
    """
    endpoints = np.asarray(endpoints, dtype=float)
    if endpoints.ndim != 2 or endpoints.shape[0] == 0:
        raise ValueError("need a nonempty (n, d) endpoint matrix")
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    n, d = endpoints.shape
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != d:
        raise ValueError(f"need a ({d},) target or (k, {d}) target rows, got {y.shape}")
    scale = dilation_scales(structure, horizon**-0.5)
    if y.ndim == 1:
        hits = _box_hits(endpoints.T, y, scale, h)
    else:
        # Sorted and coordinate-major: one row per coordinate, the first the keys.
        ordered = np.take(endpoints.T, np.argsort(endpoints[:, 0]), axis=1)
        keys = ordered[0]
        # A row that passes the rounded first-coordinate test lies within
        # ``reach`` of y0, whose slack covers the few roundings of the test and
        # of ``reach``.  Rounding is monotone, so a row within ``reach`` also
        # lies between the rounded ``y0 -+ reach``: no ulps of |y0| are needed.
        reach = (h / 2.0) / scale[0] * (1.0 + 1e-9)
        starts = np.searchsorted(keys, y[:, 0] - reach, side="left")
        stops = np.searchsorted(keys, y[:, 0] + reach, side="right")
        hits = np.array(
            [_box_hits(ordered[:, a:b], row, scale, h) for a, b, row in zip(starts, stops, y)],
            dtype=np.int64,
        )
    return _box_estimate(hits, n, h, structure, horizon)


def _box_estimate(hits, n, h, structure, horizon):
    """The `DensityEstimate` of ``hits`` endpoints of ``n`` in the box of side ``h``.

    The box's volume in original coordinates is ``h**d * horizon**(Q/2)``;
    the value is the hit fraction over it and the stderr is binomial.
    ``hits`` is one count or an array of counts, one per target.
    """
    volume = h**structure.d * horizon ** (homogeneous_dimension(structure) / 2.0)
    p = hits / n
    stderr = np.sqrt(p * (1.0 - p) / n) / volume
    return DensityEstimate(
        value=p / volume,
        stderr=float(stderr) if np.ndim(hits) == 0 else stderr,
        n_hits=hits,
        bandwidth=h,
    )


def _box_hits(columns, y, scale, h):
    """The number of ``columns`` with ``|(X_j - y_j) s_j| <= h/2`` in every coordinate.

    ``columns`` is ``(d, n)``, one point per column.  The first coordinate's
    test picks the candidate columns and only they take the full test; both
    evaluate the same expression, so the count is that of a full test of
    every column.
    """
    first = columns[0] - y[0]
    first *= scale[0]
    np.abs(first, out=first)
    scaled = np.compress(first <= h / 2.0, columns, axis=1) - y[:, None]
    scaled *= scale[:, None]
    np.abs(scaled, out=scaled)
    return int(np.count_nonzero(np.all(scaled <= h / 2.0, axis=0)))


def mass_concentration(endpoints, flow_point, R, structure, horizon):
    """Fraction of endpoints in the dilated ball of radius ``R`` at the flow image."""
    if not R > 0:
        raise ValueError(f"radius must be positive, got {R}")
    endpoints = np.asarray(endpoints, dtype=float)
    scale = dilation_scales(structure, horizon**-0.5)
    scaled = (endpoints - np.asarray(flow_point, float)[None, :]) * scale
    return float(np.mean(np.linalg.norm(scaled, axis=1) <= R))


@dataclass(frozen=True)
class BoundReport:
    """Per-point kernel comparison against the two comparison kernels.

    ``C_minus`` is the smallest sampled ratio against the slow kernel and
    ``C_plus`` the largest against the fast one, so the two-sided sandwich
    holds on the grid by construction whenever both are positive and finite.
    Monte Carlo estimates widen the ratios by three standard errors.
    ``exact`` is true where the density is the exact Gaussian law, as
    `route` decides.  ``diagonal_c`` holds ``G(t, x; t+h, e^(hB) x)
    h**(Q/2)`` at ``diagonal_horizons``, the density at the flow image, and
    ``diagonal_c_fit`` its least value.
    """

    y_grid: np.ndarray
    gamma: np.ndarray
    stderr: np.ndarray
    gamma_minus: np.ndarray
    gamma_plus: np.ndarray
    ratio_minus: np.ndarray
    ratio_plus: np.ndarray
    C_minus: float
    C_plus: float
    lambda_minus: float
    lambda_plus: float
    exact: bool
    zero_hit_indices: tuple
    psd_margins: tuple
    diagonal_horizons: tuple
    diagonal_c: tuple
    diagonal_c_fit: float


def _doubled(f):
    """The time-only scalar field ``2 f``, of the same kind."""
    if isinstance(f, fields.TabulatedField):
        return replace(f, values=tuple(2.0 * v for v in f.values))
    if isinstance(f, fields.TimeSinusoidField):
        return replace(f, base=2.0 * f.base, amplitude=2.0 * f.amplitude)
    return replace(f, value=2.0 * f.value)


def verify_bounds(
    spec,
    t,
    x,
    T,
    y_grid,
    lambda_minus,
    lambda_plus,
    sim_config=None,
    bandwidth=0.2,
):
    """Fit two-sided comparison constants on a target grid.

    Where `route` says ``exact``, the density is the exact Gaussian endpoint
    law that `simulate_paths` samples; otherwise it is estimated by
    simulation (``sim_config`` required) and the fitted constants are
    widened by three standard errors.  Also fits the
    on-diagonal constant ``c`` in ``G(t, x; t+h, e^(hB) x) >= c * h**(-Q/2)``,
    the density at the flow image of ``x``, at ``h`` a quarter, a half and
    all of ``T - t``, and, on the exact route, checks the positive-semidefinite
    covariance sandwich ``lambda- C <= C_w <= lambda+ C``.  The Monte Carlo
    route simulates once: the paths behind the grid's estimates are
    snapshotted at the two shorter horizons (see `simulate_paths`).

    The comparison range must cover the operator's diffusion strength:
    ``lambda- <= 2 min_eig(a)`` and ``2 max_eig(a) <= lambda+`` over every
    ``(t, x)``, by `ellipticity_check` (the comparison operator against
    itself, ``lambda- = lambda+ = lambda``, is the boundary case).
    """
    if not (0 < lambda_minus <= lambda_plus):
        raise ValueError("need 0 < lambda- <= lambda+")
    mu_low, mu_high = ellipticity_check(spec)
    strength_lo, strength_hi = 2.0 / mu_low, 2.0 * mu_high
    if lambda_minus > strength_lo * (1 + 1e-9) or lambda_plus < strength_hi * (1 - 1e-9):
        raise ValueError(
            "inconsistent comparison range: diffusion strength is "
            f"[{strength_lo}, {strength_hi}] but requested "
            f"[{lambda_minus}, {lambda_plus}]"
        )
    system = spec.system
    x = np.asarray(x, dtype=float)
    y_grid = np.atleast_2d(np.asarray(y_grid, dtype=float))
    tau = T - t
    Q = homogeneous_dimension(system.structure)

    kernel_lo = GaussianKernel(system, lambda_minus)
    kernel_hi = GaussianKernel(system, lambda_plus)
    log_g_minus = kernel_lo.log_batch(t, x, T, y_grid)
    log_g_plus = kernel_hi.log_batch(t, x, T, y_grid)
    g_minus = np.exp(log_g_minus)
    g_plus = np.exp(log_g_plus)

    law, exact, _ = route(spec)
    # The on-diagonal fit reads G(t, x; s, .) at the flow image e^((s-t)B) x,
    # for end times s a quarter, a half and all of the way to T.
    diag_ends = [t + f * tau for f in _DIAGONAL_FRACTIONS[:-1]] + [T]
    diag_points = [system.propagator.flow(s - t) @ x for s in diag_ends]
    psd_margins = zero_hits = ()
    if exact:
        gamma = np.exp(law.log_batch(t, x, T, y_grid))
        diag_gamma = [
            float(np.exp(law.log_batch(t, x, s, y[None, :])[0]))
            for s, y in zip(diag_ends, diag_points)
        ]
        stderr = np.zeros_like(gamma)
        gamma_lo_conf, gamma_hi_conf = gamma, gamma
        C_w = law.covariance(t, T).C
        C_base = system.propagator.gramian(tau)
        psd_margins = (
            float(np.linalg.eigvalsh(C_w - lambda_minus * C_base).min()),
            float(np.linalg.eigvalsh(lambda_plus * C_base - C_w).min()),
        )
    else:
        if sim_config is None:
            raise ValueError("sim_config is required when no exact kernel is available")
        # One run, snapshotted at each diagonal end time; the last is T itself.
        runs = simulate_paths(spec, t, x, diag_ends, sim_config)
        est = estimate_density(runs[-1], y_grid, bandwidth, system.structure, tau)
        gamma, stderr = est.value, est.stderr
        zero_hits = tuple(int(i) for i in np.flatnonzero(est.n_hits == 0))
        gamma_lo_conf = np.maximum(gamma - 3.0 * stderr, 0.0)
        gamma_hi_conf = gamma + 3.0 * stderr
        diag_gamma = [
            estimate_density(ep, y, bandwidth, system.structure, f * tau).value
            for ep, y, f in zip(runs, diag_points, _DIAGONAL_FRACTIONS)
        ]

    live = [i for i in range(len(y_grid)) if i not in zero_hits]
    # Ratios through log space: comparison kernels never underflow there.
    # A zero estimate gives a zero ratio, and is not exponentiated at all.
    ratio_minus, ratio_plus = (
        np.exp(
            np.log(np.maximum(conf, 1e-300)) - log_g,
            out=np.zeros_like(log_g),
            where=conf > 0,
        )
        for conf, log_g in ((gamma_lo_conf, log_g_minus), (gamma_hi_conf, log_g_plus))
    )
    C_minus = float(np.min(ratio_minus[live])) if live else float("nan")
    C_plus = float(np.max(ratio_plus[live])) if live else float("nan")

    diagonal_c = tuple(
        g * (f * tau) ** (Q / 2.0) for g, f in zip(diag_gamma, _DIAGONAL_FRACTIONS)
    )
    return BoundReport(
        y_grid=y_grid,
        gamma=gamma,
        stderr=stderr,
        gamma_minus=g_minus,
        gamma_plus=g_plus,
        ratio_minus=ratio_minus,
        ratio_plus=ratio_plus,
        C_minus=C_minus,
        C_plus=C_plus,
        lambda_minus=float(lambda_minus),
        lambda_plus=float(lambda_plus),
        exact=exact,
        zero_hit_indices=zero_hits,
        psd_margins=psd_margins,
        diagonal_horizons=tuple(f * tau for f in _DIAGONAL_FRACTIONS),
        diagonal_c=diagonal_c,
        diagonal_c_fit=float(min(diagonal_c)),
    )
