"""Output checks for every job, against references computed without kolmo.

The benchmark's drift matrices are nilpotent, so ``e^(sB)`` is a finite
power series and the Gramian ``C(tau)`` has the exact polynomial form
``sum_(k,l) tau^(k+l+1) / ((k+l+1) k! l!) B^k S (B^T)^l`` with
``S = sigma sigma^T``.  Time-weighted covariances use a high-order
Gauss-Legendre rule, independent of kolmo's adaptive Simpson.

Each check returns ``None`` when the outputs are right, else a short reason.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Known failures: (subcommand, clause found on stderr or in the check's
# reason).  They count as failed jobs; any other failure makes the run
# incorrect.  NOTES.md describes each one.
KNOWN_FAILURES = (
    ("chain", "exceeds the cost budget"),
    ("verify-bounds", "non-finite value inf in CSV output"),
    ("verify-bounds", "exact-route C_minus is not positive"),
    ("verify-bounds", "Monte Carlo C_minus is not positive"),
)

# Standard errors a simulated moment may stray before the check fails.  With
# at most 20 moments per job this keeps a chance failure below 1e-7 per job.
Z_MAX = 6.0


def known_failure(sub, text):
    for known_sub, clause in KNOWN_FAILURES:
        if sub == known_sub and clause in text:
            return clause
    return None


# -- reference math ----------------------------------------------------------


def dilation_exponents(blocks):
    """Block ``j`` coordinates scale like ``h ** ((2j + 1) / 2)``."""
    return np.concatenate([[0.5 * (2 * j + 1)] * mj for j, mj in enumerate(blocks)])


def sigma_sq(blocks, d):
    S = np.zeros((d, d))
    S[: blocks[0], : blocks[0]] = np.eye(blocks[0])
    return S


def flow(B, s):
    """``e^(sB)`` for nilpotent ``B`` as its finite power series."""
    d = B.shape[0]
    out = np.eye(d)
    term = np.eye(d)
    for k in range(1, d):
        term = term @ (s * B) / k
        out = out + term
    return out


def gramian(B, blocks, tau):
    d = B.shape[0]
    S = sigma_sq(blocks, d)
    powers = [np.linalg.matrix_power(B, k) for k in range(d)]
    C = np.zeros((d, d))
    for k in range(d):
        for l in range(d):
            n = k + l + 1
            C += tau**n / (n * math.factorial(k) * math.factorial(l)) * (
                powers[k] @ S @ powers[l].T
            )
    return 0.5 * (C + C.T)


def weighted_gramian(B, blocks, strength, t, T, nodes=64):
    """``int_t^T strength(s) e^((T-s)B) S e^((T-s)B^T) ds`` by Gauss-Legendre."""
    d = B.shape[0]
    S = sigma_sq(blocks, d)
    u, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (T - t) * (u + 1.0) + t
    C = np.zeros((d, d))
    for si, wi in zip(s, w):
        E = flow(B, T - si)
        C += wi * strength(si) * (E @ S @ E.T)
    C *= 0.5 * (T - t)
    return 0.5 * (C + C.T)


def frozen_step_gramian(B, blocks, strength, t, T, n_steps):
    """Covariance of the scheme that freezes the strength at each step start."""
    dt = (T - t) / n_steps
    C_dt = gramian(B, blocks, dt)
    C = np.zeros_like(C_dt)
    for k in range(n_steps):
        E = flow(B, T - (t + (k + 1) * dt))
        C += strength(t + k * dt) * (E @ C_dt @ E.T)
    return C


def log_gaussian(C, mean, Y):
    L = np.linalg.cholesky(C)
    W = np.linalg.solve(L, (np.atleast_2d(Y) - mean[None, :]).T)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (C.shape[0] * math.log(2.0 * math.pi) + logdet) - 0.5 * np.sum(W * W, axis=0)


def strength_of(model):
    """Diffusion strength ``2 a(s)`` of a time-only isotropic model, else None."""
    coeffs = model["coefficients"]
    if any(coeffs.get(k) for k in ("a_low", "b_low", "c")):
        return None
    a = coeffs["a"]
    if a["kind"] == "constant":
        return lambda s: 2.0 * a["value"]
    if a["kind"] == "time-sinusoid":
        return lambda s: 2.0 * (a["base"] + a["amplitude"] * math.sin(2.0 * math.pi * s))
    return None


# -- reading outputs -------------------------------------------------------------


def read_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def floats(row):
    return np.array([float(v) for v in row])


def close(a, b, rel, floor=0.0):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(b), floor) + 1e-300))


# -- per-subcommand checks -------------------------------------------------------


def check_validate(job, files):
    out = json.loads(files[".json"])
    m = job.model
    d = len(m["B"])
    if out.get("valid") is not True or out.get("d") != d or out.get("kalman_rank") != d:
        return "validate summary does not report a valid full-rank model"
    if out.get("blocks") != m["blocks"] or out.get("mu_declared") != m["mu"]:
        return "validate summary disagrees with the model file"
    if max(out["mu_sampled"]) > m["mu"] + 1e-12:
        return "sampled ellipticity exceeds the declared constant"
    return None


def check_gramian(job, files):
    B = np.array(job.model["B"])
    blocks = job.model["blocks"]
    d = B.shape[0]
    _, rows = read_csv(files[".csv"])
    if len(rows) != len(job.params["taus"]):
        return "gramian CSV has the wrong number of rows"
    for row, tau in zip(rows, job.params["taus"]):
        vals = floats(row)
        if vals[0] != tau:
            return f"gramian row for tau={tau} reports tau={vals[0]}"
        C = vals[1 : 1 + d * d].reshape(d, d)
        ref = gramian(B, blocks, tau)
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        if np.any(np.abs(C - ref) > 1e-9 * scale):
            return f"C({tau}) differs from the closed form"
        if abs(vals[-2] - np.linalg.slogdet(ref)[1]) > 1e-7:
            return f"logdet C({tau}) differs from the closed form"
        # The benchmark's drift matrices are their own homogeneous part.
        if abs(vals[-1] - 1.0) > 1e-7:
            return f"det ratio at tau={tau} is {vals[-1]}, expected 1"
    return None


def check_equivalence(job, files):
    out = json.loads(files[".json"])
    k5, k6 = out["k_quadratic"]
    k1, k2 = out["k_dilation"]
    if not all(math.isfinite(v) and v > 0 for v in (k1, k2, k5, k6)):
        return "equivalence constants are not positive and finite"
    if k1 > k2 or k5 > k6:
        return "equivalence constants are not ordered"
    eigs = np.linalg.eigvalsh(gramian(np.array(job.model["B"]), job.model["blocks"], 1.0))
    if not close([k1, k2], [1.0 / eigs[-1], 1.0 / eigs[0]], 1e-7):
        return "dilation constants differ from the eigenvalues of C(1)"
    _, rows = read_csv(files[".csv"])
    if not all(close(float(r[1]), 1.0, 1e-7) for r in rows):
        return "det ratio of a homogeneous system differs from 1"
    return None


def check_kernel(job, files):
    p = job.params
    B = np.array(job.model["B"])
    blocks = job.model["blocks"]
    d = B.shape[0]
    tau = p["T"] - p["t"]
    _, rows = read_csv(files[".csv"])
    if len(rows) != p["n_targets"]:
        return "kernel CSV has the wrong number of targets"
    vals = np.array([floats(r) for r in rows])
    Y, gamma, log_gamma, lower, upper = vals[:, :d], vals[:, d], vals[:, d + 1], vals[:, d + 2], vals[:, d + 3]
    C = gramian(B, blocks, tau)
    mean = flow(B, tau) @ p["x"]
    ref = log_gaussian(p["lam"] * C, mean, Y)
    if not close(log_gamma, ref, 1e-8, floor=1.0):
        return "log kernel differs from the closed-form Gaussian"
    if not close(gamma, np.exp(log_gamma), 1e-12):
        return "kernel value is not exp(log kernel)"
    Q = float(np.sum(2.0 * dilation_exponents(blocks)))
    qf = -2.0 * (log_gaussian(C, mean, Y) + 0.5 * (d * math.log(2 * math.pi) + np.linalg.slogdet(C)[1]))
    lower_ref = tau ** (-Q / 2.0) * np.exp(-qf)
    z = (Y - mean[None, :]) * tau ** (-dilation_exponents(blocks))[None, :]
    upper_ref = tau ** (-Q / 2.0) * np.exp(-np.sum(z * z, axis=1))
    if not (close(lower, lower_ref, 1e-7) and close(upper, upper_ref, 1e-7)):
        return "bound forms differ from their closed forms"
    return None


def check_control(job, files):
    out = json.loads(files[".json"])
    cost, oracle = out["cost"], out["discrete_check"]
    if not (math.isfinite(cost) and cost > 0):
        return "control cost is not positive and finite"
    if oracle < cost * (1 - 1e-9) or oracle - cost > 1e-3 * cost:
        return f"control cost {cost} disagrees with the discrete oracle {oracle}"
    _, rows = read_csv(files[".csv"])
    first, last = floats(rows[0]), floats(rows[-1])
    d = len(job.params["x"])
    if not close(first[1 : 1 + d], job.params["x"], 1e-9, floor=1.0):
        return "control trajectory does not start at x"
    if not close(last[1 : 1 + d], job.params["y"], 1e-6, floor=1.0):
        return "control trajectory does not reach y"
    if not close(last[-1], cost, 1e-6):
        return "accumulated control cost differs from the total"
    return None


def check_chain(job, files):
    out = json.loads(files[".json"])
    if out.get("verified") is not True:
        return "chain is not verified"
    if out["J"] > math.ceil(out["exponent"]) + 1:
        return f"J={out['J']} exceeds ceil(exponent) + 1"
    _, rows = read_csv(files[".csv"])
    if len(rows) != out["J"] + 1:
        return "chain CSV row count differs from J + 1"
    last = rows[-1]
    d = len(job.params["y"])
    if float(last[1]) != job.params["T"] or [float(v) for v in last[2 : 2 + d]] != list(job.params["y"]):
        return "last chain point is not the target"
    return None


def check_simulate(job, files):
    p = job.params
    B = np.array(job.model["B"])
    blocks = job.model["blocks"]
    d = B.shape[0]
    n = p["paths"]
    _, rows = read_csv(files[".csv"])
    mean = floats(rows[0][1:])
    cov = np.array([floats(r[1:]) for r in rows[1 : 1 + d]])
    strength = strength_of(job.model)
    exact = weighted_gramian(B, blocks, strength, p["t"], p["T"])
    # The scheme freezes a time-varying strength at each step start (weak
    # order one); its documented bias widens the band.
    bias = np.abs(frozen_step_gramian(B, blocks, strength, p["t"], p["T"], p["steps"]) - exact)
    var = np.diag(exact)
    mean_ref = flow(B, p["T"] - p["t"]) @ p["x"]
    if np.any(np.abs(mean - mean_ref) > Z_MAX * np.sqrt(var / n)):
        return "sample mean is not within the band around e^(tau B) x"
    se_cov = np.sqrt((np.outer(var, var) + exact**2) / n)
    if np.any(np.abs(cov - exact) > Z_MAX * se_cov + bias):
        return "sample covariance is not within the band around the Gramian"
    dens = json.loads(files[".json"])["density"]
    Q = float(np.sum(2.0 * dilation_exponents(blocks)))
    volume = dens["bandwidth"] ** d * (p["T"] - p["t"]) ** (Q / 2.0)
    if not close(dens["value"], dens["n_hits"] / n / volume, 1e-9):
        return "density estimate is not hits over paths over box volume"
    return None


def check_verify_bounds(job, files):
    out = json.loads(files[".json"])
    expected_exact = strength_of(job.model) is not None
    if out["exact"] is not expected_exact:
        return f"route exact={out['exact']} does not match the model class"
    c_minus, c_plus = out["C_minus"], out["C_plus"]
    if not (math.isfinite(c_plus) and c_plus > 0):
        return f"C_plus={c_plus} is not positive and finite"
    if not (math.isfinite(c_minus) and c_minus > 0):
        route = "exact-route" if expected_exact else "Monte Carlo"
        return f"{route} C_minus is not positive (C_minus={c_minus})"
    if expected_exact:
        p = job.params
        B = np.array(job.model["B"])
        blocks = job.model["blocks"]
        d = B.shape[0]
        _, rows = read_csv(files[".csv"])
        vals = np.array([floats(r) for r in rows])
        C_w = weighted_gramian(B, blocks, strength_of(job.model), p["t"], p["T"])
        ref = log_gaussian(C_w, flow(B, p["T"] - p["t"]) @ p["x"], vals[:, :d])
        if not close(np.log(vals[:, d]), ref, 1e-6, floor=1.0):
            return "exact-route density differs from the reference Gaussian"
    return None


CHECKS = {
    "validate": check_validate,
    "gramian": check_gramian,
    "equivalence": check_equivalence,
    "kernel": check_kernel,
    "control": check_control,
    "chain": check_chain,
    "simulate": check_simulate,
    "verify-bounds": check_verify_bounds,
}
