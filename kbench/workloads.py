"""Seeded job streams for the four workloads.

A workload is an endless sequence of *blocks*.  Every block of a workload
has the same composition (models, subcommands and strata of job size); the
seed only draws the continuous parameters inside each stratum.  A run
executes whole blocks, so two seeds measure the same mix of work.

Start times are drawn from [-0.5, 0.5], so points and end times (kolmo's
``--horizon`` is the end time ``T``, not ``T - t``) are passed as
``--from=<t,x...>``: kolmo's argparse reads a separate value that starts
with ``-`` as a missing argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import checks

# The four block structures of the test fixtures.
STRUCTURES = {
    "HEAT1D": [1],
    "LANGEVIN": [1, 1],
    "KINETIC21": [2, 1],
    "DEEP221": [2, 2, 1],
}


def drift(name):
    blocks = STRUCTURES[name]
    d = sum(blocks)
    B = np.zeros((d, d))
    if name == "LANGEVIN":
        B[1, 0] = 1.0
    elif name == "KINETIC21":
        B[2, 0] = 1.0
    elif name == "DEEP221":
        B[2:4, 0:2] = np.eye(2)
        B[4, 2:4] = [1.0, 0.0]
    return B


# Diffusion forms: the sampled strength range 2a is [lo, hi].
DIFFUSIONS = {
    "const": ({"kind": "constant", "value": 0.5}, 2.0, (1.0, 1.0)),
    "tsin": ({"kind": "time-sinusoid", "base": 0.625, "amplitude": 0.375}, 4.0, (0.5, 2.0)),
    "ssin": (None, 2.5, (0.8, 1.2)),
    "blow": ({"kind": "constant", "value": 0.5}, 2.0, (1.0, 1.0)),
}


def model_config(structure, diffusion):
    blocks = STRUCTURES[structure]
    d = sum(blocks)
    a, mu, _ = DIFFUSIONS[diffusion]
    if diffusion == "ssin":
        wave = [0.0] * d
        wave[0], wave[-1] = 0.5, 0.25
        a = {"kind": "space-sinusoid", "base": 0.5, "amplitude": 0.1, "wave": wave}
    cfg = {
        "blocks": blocks,
        "B": drift(structure).tolist(),
        "coefficients": {"a": a},
        "mu": mu,
        "M": 0.0,
    }
    if diffusion == "blow":
        cfg["coefficients"]["b_low"] = {"kind": "constant", "value": [0.3] * blocks[0]}
        cfg["M"] = 0.3
    return cfg


@dataclass
class Job:
    name: str
    sub: str
    model_name: str
    model: dict
    args: list
    params: dict = field(default_factory=dict)

    def argv(self, model_dir):
        return [self.sub, "--model", f"{model_dir}/{self.model_name}.json", *self.args,
                "--out", self.name]


def fmt(values):
    return ",".join(repr(float(v)) for v in values)


def log_point(lo, hi, u):
    """The point a fraction ``u`` of the way from ``lo`` to ``hi`` on a log scale."""
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def midpoints(n, shift=0):
    """The midpoints of the ``n`` equal parts of [0, 1), rotated by ``shift``.

    The jobs of a stratum take these positions, so every block does the same
    work whatever the seed; the seed draws everything else about each job.
    """
    return [((k + shift) % n + 0.5) / n for k in range(n)]


class Generator:
    """Draws one workload's blocks from a seed."""

    def __init__(self, workload, seed, small=False):
        self.workload = workload
        self.seed = seed
        self.small = small
        self.models = {}
        self.make = {
            "steer-chain": self._steer_chain,
            "exact-kernel": self._exact_kernel,
            "mc-gauss": self._mc_gauss,
            "mc-variable": self._mc_variable,
        }[workload]

    def block(self, index):
        # Jobs run in the order they are made: the allocation history, and
        # so the peak memory, is then the same for every seed.
        rng = np.random.default_rng([self.seed, index, WORKLOADS.index(self.workload)])
        jobs = self.make(rng)
        for pos, job in enumerate(jobs):
            job.name = f"b{index:03d}j{pos:02d}-{job.sub}"
        return jobs

    def _job(self, sub, structure, diffusion, args, **params):
        name = f"{structure}-{diffusion}"
        self.models.setdefault(name, model_config(structure, diffusion))
        return Job("", sub, name, self.models[name], args, params)

    def _start(self, rng, d):
        return float(rng.uniform(-0.5, 0.5)), rng.uniform(-1.0, 1.0, d)

    # -- steer-chain -------------------------------------------------------

    def _steer_chain(self, rng):
        """Per structure: one chain per log-length stratum, and one control."""
        structures = ["LANGEVIN"] if self.small else ["LANGEVIN", "KINETIC21", "DEEP221"]
        strata = [(3.0, 8.0)] if self.small else _log_strata(3.0, 1000.0, 6)
        jobs = []
        for i, (lo, hi) in enumerate(strata):
            for s, u in zip(structures, midpoints(len(structures), i)):
                jobs.append(self._chain(rng, s, log_point(lo, hi, u)))
        for s, u in zip(structures, midpoints(len(structures))):
            jobs.append(self._control(rng, s, log_point(0.1, 100.0, u)))
        return jobs

    def _steering(self, rng, structure, V):
        """A problem over a horizon in [0.2, 1] whose steering energy is ``V``."""
        blocks = STRUCTURES[structure]
        B = drift(structure)
        d = B.shape[0]
        t, x = self._start(rng, d)
        h = float(rng.uniform(0.2, 1.0))
        z = rng.uniform(-1.0, 1.0, d)  # dilated offset, rescaled to energy V
        C1 = checks.gramian(B, blocks, 1.0)
        z *= math.sqrt(V / float(z @ np.linalg.solve(C1, z)))
        y = checks.flow(B, h) @ x + h ** checks.dilation_exponents(blocks) * z
        return t, x, t + h, y

    def _chain(self, rng, structure, exponent):
        """A chain whose bound exponent ``1/beta + V/eps`` is ``exponent``."""
        blocks = STRUCTURES[structure]
        r = float(rng.choice([0.25, 0.4]))
        # kappa_estimate is exact here: the drift is homogeneous, so the
        # dilated Gramian is C(1) at every scale.
        kappa = 1.1 * math.sqrt(np.linalg.eigvalsh(checks.gramian(drift(structure), blocks, 1.0))[-1])
        eps = (r / kappa) ** 2
        t, x, T, y = self._steering(rng, structure, (exponent - 2.0) * eps)
        args = [f"--from={fmt([t, *x])}", f"--to={fmt([T, *y])}", "--beta", "0.5", "--r", repr(r)]
        return self._job("chain", structure, "const", args, t=t, x=x, T=T, y=y)

    def _control(self, rng, structure, V):
        t, x, T, y = self._steering(rng, structure, V)
        args = [f"--from={fmt([t, *x])}", f"--to={fmt([T, *y])}"]
        return self._job("control", structure, "const", args, t=t, x=x, T=T, y=y)

    # -- exact-kernel ------------------------------------------------------

    def _exact_kernel(self, rng):
        """Every structure with constant and time-sinusoid diffusion, five jobs each."""
        models = [("HEAT1D", "const")] if self.small else [
            (s, diff) for s in STRUCTURES for diff in ("const", "tsin")
        ]
        jobs = []
        for s, diff in models:
            d = sum(STRUCTURES[s])
            lo, hi = DIFFUSIONS[diff][2]
            jobs.append(self._job("validate", s, diff, []))
            taus = sorted(float(v) for v in rng.uniform(0.05, 1.0, 3))
            jobs.append(self._job("gramian", s, diff, ["--tau-grid", fmt(taus)], taus=taus))
            taus = sorted(float(v) for v in rng.uniform(0.01, 1.0, 3))
            jobs.append(self._job("equivalence", s, diff, ["--tau-grid", fmt(taus)]))
            t, x = self._start(rng, d)
            T = t + float(rng.uniform(0.2, 1.0))
            lam = float(rng.uniform(0.5, 2.0))
            y = rng.uniform(-1.0, 1.0, d)
            args = [f"--from={fmt([t, *x])}", f"--to={fmt([T, *y])}", "--lambda", repr(lam),
                    "--grid", "radius=3,n=25"]
            jobs.append(self._job("kernel", s, diff, args, t=t, x=x, T=T, lam=lam, n_targets=25 * d))
            jobs.append(self._verify(rng, s, diff, lo, hi))
        return jobs

    def _verify(self, rng, structure, diffusion, lo, hi, paths=None):
        d = sum(STRUCTURES[structure])
        t, x = self._start(rng, d)
        h = float(rng.uniform(0.2, 1.0))
        lam_minus = lo * float(rng.uniform(0.5, 1.0))
        lam_plus = hi * float(rng.uniform(1.0, 2.0))
        args = [f"--from={fmt([t, *x])}", f"--horizon={t + h!r}",
                "--lambda-minus", repr(lam_minus), "--lambda-plus", repr(lam_plus),
                "--seed", str(int(rng.integers(1 << 31)))]
        if paths is not None:
            args += ["--paths", str(paths)]
        return self._job("verify-bounds", structure, diffusion, args, t=t, x=x, T=t + h)

    # -- mc-gauss ----------------------------------------------------------

    def _mc_gauss(self, rng):
        """Every model at 1e5 to 3e5 paths, and two models near 1e6 paths; 16 steps."""
        if self.small:
            return [self._simulate(rng, "LANGEVIN", "const", 20_000)]
        models = [(s, diff) for s in ("LANGEVIN", "KINETIC21", "DEEP221") for diff in ("const", "tsin")]
        jobs = [self._simulate(rng, s, diff, int(log_point(100_000, 300_000, u)))
                for (s, diff), u in zip(models, midpoints(len(models)))]
        # The largest jobs have one fixed size, so the peak memory they set
        # does not depend on the seed.
        jobs.append(self._simulate(rng, "LANGEVIN", "const", BIG_PATHS))
        jobs.append(self._simulate(rng, "DEEP221", "tsin", BIG_PATHS))
        return jobs

    def _simulate(self, rng, structure, diffusion, paths):
        blocks = STRUCTURES[structure]
        d = sum(blocks)
        t, x = self._start(rng, d)
        h = float(rng.uniform(0.2, 1.0))
        offset = h ** checks.dilation_exponents(blocks) * rng.uniform(-1.0, 1.0, d)
        y = checks.flow(drift(structure), h) @ x + offset
        args = [f"--from={fmt([t, *x])}", f"--horizon={t + h!r}", "--paths", str(paths),
                "--steps", "16", "--seed", str(int(rng.integers(1 << 31))),
                f"--density-at={fmt(y)}"]
        return self._job("simulate", structure, diffusion, args, t=t, x=x, T=t + h,
                         paths=paths, steps=16)

    # -- mc-variable -------------------------------------------------------

    def _mc_variable(self, rng):
        """Monte Carlo bound verification where no exact kernel exists."""
        models = [("LANGEVIN", "blow")] if self.small else [
            ("LANGEVIN", "ssin"), ("KINETIC21", "ssin"), ("LANGEVIN", "blow")
        ]
        if not self.small:
            models = models * 2
        jobs = []
        for (s, diff), u in zip(models, midpoints(len(models))):
            lo, hi = DIFFUSIONS[diff][2]
            paths = 20_000 if self.small else int(90_000 + 20_000 * u)
            jobs.append(self._verify(rng, s, diff, lo, hi, paths=paths))
        return jobs


def _log_strata(lo, hi, n):
    edges = np.exp(np.linspace(math.log(lo), math.log(hi), n + 1))
    return list(zip(edges[:-1], edges[1:]))


WORKLOADS = ["steer-chain", "exact-kernel", "mc-gauss", "mc-variable"]
BIG_PATHS = 987_654  # about 1e6 and, like every path count here, not a multiple of 2**14
