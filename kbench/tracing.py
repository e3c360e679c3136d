"""Pass-through wrappers that time kolmo's layers from outside the package.

Nothing under ``src/`` is edited.  After ``kolmo.cli`` is imported,
`Tracer.install` rebinds, inside every kolmo module's namespace, the
functions listed in `SPANS` (so calls from one module into another, and
``verify_bounds``'s call-time lookups of ``simulate_paths`` and
``estimate_density``, all pass through a span), the ``expm`` each module
imported from ``scipy.linalg``, two `GaussianKernel` methods, and
``numpy.random.Generator`` (a subclass whose ``standard_normal`` counts and
times draws).  `Tracer.uninstall` restores every original binding.

Spans are aggregated on the fly with a stack, so memory does not grow with
the number of calls: a layer's *busy* time sums its outermost spans, its
*self* time sums each of its spans minus the spans directly beneath it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# Wrapped function -> (layer, key).  A key names the metric family; several
# functions may share one.  The layer of a span is its module.
SPANS = {
    ("kolmo.cli", "load_model"): ("model", "model.load"),
    ("kolmo.model", "spec_from_config"): ("model", "model.spec"),
    ("kolmo.model", "kalman_rank"): ("model", "model.kalman_rank"),
    ("kolmo.model", "ellipticity_check"): ("model", "model.ellipticity"),
    ("kolmo.model", "coefficient_bounds"): ("model", "model.coefficient_bounds"),
    ("kolmo.gramian", "matrix_exponential"): ("gramian", "gramian.flow"),
    ("kolmo.gramian", "gramian"): ("gramian", "gramian.checked"),
    ("kolmo.gramian", "gramian_matrix"): ("gramian", "gramian.matrix"),
    ("kolmo.gramian", "_vanloan_matrix"): ("gramian", "gramian.matrix"),
    ("kolmo.gramian", "gramian_homogeneous"): ("gramian", "gramian.homogeneous"),
    ("kolmo.gramian", "gramian_weighted"): ("gramian", "gramian.weighted"),
    ("kolmo.gramian", "adaptive_simpson"): ("gramian", "gramian.simpson"),
    ("kolmo.gramian", "quadratic_form"): ("gramian", "gramian.quadratic_form"),
    ("kolmo.gramian", "equivalence_constants"): ("gramian", "gramian.equivalence"),
    ("kolmo.control", "optimal_control"): ("control", "control.solve"),
    ("kolmo.control", "optimal_cost"): ("control", "control.solve"),
    ("kolmo.control", "trajectory"): ("control", "control.trajectory"),
    ("kolmo.control", "control_value"): ("control", "control.value"),
    ("kolmo.control", "partial_cost"): ("control", "control.partial_cost"),
    ("kolmo.control", "discrete_least_norm_control"): ("control", "control.oracle"),
    ("kolmo.control", "kappa_estimate"): ("control", "control.kappa"),
    ("kolmo.control", "cone_membership"): ("control", "control.cone"),
    ("kolmo.control", "cylinder_membership"): ("control", "control.cone"),
    ("kolmo.chain", "build_chain"): ("chain", "chain.build"),
    ("kolmo.chain", "verify_chain"): ("chain", "chain.verify"),
    ("kolmo.kernel", "eval_kernel"): ("kernel", "kernel.eval"),
    ("kolmo.kernel", "eval_log_kernel"): ("kernel", "kernel.eval"),
    ("kolmo.kernel", "lower_bound_form"): ("kernel", "kernel.bound_form"),
    ("kolmo.kernel", "aronson_upper_form"): ("kernel", "kernel.bound_form"),
    ("kolmo.kernel", "covariance_upper_form"): ("kernel", "kernel.bound_form"),
    ("kolmo.mc", "simulate_paths"): ("mc", "mc.simulate"),
    ("kolmo.mc", "estimate_density"): ("mc", "mc.density"),
    ("kolmo.mc", "verify_bounds"): ("mc", "mc.verify"),
}
KERNEL_METHODS = {"log_batch": "kernel.log_batch", "covariance": "kernel.covariance"}
MODULES = ("kolmo.cli", "kolmo.model", "kolmo.gramian", "kolmo.control",
           "kolmo.chain", "kolmo.kernel", "kolmo.mc")


class JobStats:
    """Everything one job's spans and counters added up to."""

    def __init__(self):
        self.layer_calls = defaultdict(int)
        self.layer_busy_ns = defaultdict(int)
        self.layer_self_ns = defaultdict(int)
        self.key_calls = defaultdict(int)
        self.key_busy_ns = defaultdict(int)
        self.expm_in_layer = defaultdict(int)
        self.expm_calls = 0
        self.normal_draws = 0
        self.rng_ns = 0
        self.rows_simulated = 0
        self.path_steps = 0
        self.paths_returned = 0
        self.simulations_in_verify = 0
        self.kernel_targets = 0

    def merge(self, other):
        for name, value in vars(other).items():
            if isinstance(value, defaultdict):
                mine = getattr(self, name)
                for k, v in value.items():
                    mine[k] += v
            else:
                setattr(self, name, getattr(self, name) + value)


class Tracer:
    def __init__(self):
        self.stats = JobStats()
        self._stack = []  # [layer, key, start_ns, child_ns]
        self._depth = defaultdict(int)  # open spans per layer and per key
        self._restore = []

    def take_job_stats(self):
        """Return the stats gathered since the last call and start afresh."""
        out, self.stats = self.stats, JobStats()
        return out

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer, key):
        self._stack.append([layer, key, time.perf_counter_ns(), 0])
        self._depth[layer] += 1
        self._depth[key] += 1

    def _exit(self):
        layer, key, start, child = self._stack.pop()
        dur = time.perf_counter_ns() - start
        st = self.stats
        if self._stack:
            self._stack[-1][3] += dur
        st.layer_self_ns[layer] += dur - child
        if self._depth[layer] == 1:
            st.layer_calls[layer] += 1
            st.layer_busy_ns[layer] += dur
        if self._depth[key] == 1:
            st.key_calls[key] += 1
            st.key_busy_ns[key] += dur
        self._depth[layer] -= 1
        self._depth[key] -= 1

    def span(self, layer, key, fn, on_return=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(layer, key)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def job(self, fn):
        """Wrap the whole CLI call of one job as the ``cli`` span."""
        return self.span("cli", "cli.job", fn)

    # -- counters ------------------------------------------------------------

    def _count_expm(self):
        st = self.stats
        st.expm_calls += 1
        for layer in ("chain", "gramian", "control", "kernel", "mc", "model"):
            if self._depth[layer]:
                st.expm_in_layer[layer] += 1

    def _on_simulate(self, args, kwargs, out):
        config = kwargs.get("config", args[4] if len(args) > 4 else None)
        if self._depth["mc.simulate"] == 0:
            self.stats.path_steps += int(config.n_paths) * int(config.n_steps)
            self.stats.paths_returned += int(np.shape(out)[0])
            if self._depth["mc.verify"]:
                self.stats.simulations_in_verify += 1

    def _on_log_batch(self, args, kwargs, out):
        self.stats.kernel_targets += int(np.size(out))

    def _generator_class(self):
        tracer = self
        base = self._orig_generator

        class CountingGenerator(base):
            """A Generator whose normal draws are counted and timed."""

            def __init__(self, bit_generator):
                super().__init__(bit_generator)
                self._rows = 0

            def standard_normal(self, size=None, *args, **kwargs):
                start = time.perf_counter_ns()
                out = super().standard_normal(size, *args, **kwargs)
                st = tracer.stats
                st.rng_ns += time.perf_counter_ns() - start
                st.normal_draws += int(np.size(out))
                rows = int(np.shape(out)[0]) if np.ndim(out) else 1
                if rows > self._rows:  # rows of paths this generator simulates
                    st.rows_simulated += rows - self._rows
                    self._rows = rows
                return out

        return CountingGenerator

    # -- install -------------------------------------------------------------

    def _rebind(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        import scipy.linalg

        modules = [sys.modules[m] for m in MODULES if m in sys.modules]
        orig_expm = scipy.linalg.expm
        tracer = self

        def expm(*args, **kwargs):
            tracer._count_expm()
            return orig_expm(*args, **kwargs)

        timed_expm = self.span("linalg", "expm", expm)
        self._rebind(scipy.linalg, "expm", timed_expm)
        hooks = {"mc.simulate": self._on_simulate}
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig_expm:
                    self._rebind(mod, name, timed_expm)
                    continue
                if not callable(value) or isinstance(value, type):
                    continue
                target = SPANS.get((getattr(value, "__module__", None), getattr(value, "__name__", None)))
                if target is not None:
                    layer, key = target
                    self._rebind(mod, name, self.span(layer, key, value, hooks.get(key)))
        kernel_cls = sys.modules["kolmo.kernel"].GaussianKernel
        for method, key in KERNEL_METHODS.items():
            on_return = self._on_log_batch if method == "log_batch" else None
            self._rebind(
                kernel_cls, method, self.span("kernel", key, getattr(kernel_cls, method), on_return)
            )
        self._orig_generator = np.random.Generator
        self._rebind(np.random, "Generator", self._generator_class())

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)
