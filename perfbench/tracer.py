"""Span tracing installed from outside the program.

The wrappers replace public functions of each ``steinmle`` layer for the
length of a traced pass and restore them afterwards; nothing under ``src/``
knows about them.  A span is ``(name, start_ns, end_ns, parent, attr)``;
``parent`` is the index of the enclosing span (-1 at the root) and ``attr``
carries what a layer metric needs (the model of a draw or bound, the number
of observations drawn, the number of trials a kernel call covers).

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its direct children cover; children of one span
never overlap because the program runs in one thread.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name, attr=None):
        """A callable recording one span per call of ``fn``.

        ``attr(args, kwargs)`` extracts the span's attribute from the call.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, attr(args, kwargs) if attr else None)

        return traced

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr_name, new):
        self._undo.append((owner, attr_name, getattr(owner, attr_name)))
        setattr(owner, attr_name, new)

    def patch_function(self, module_name, func_name, span_name, attr=None):
        """Wrap ``module.func`` and every module-level alias of it.

        Modules that did ``from .x import func`` hold their own reference,
        so each alias in ``steinmle`` and in the benchmark's ``workloads``
        is replaced too.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, func_name)
        traced = self.wrap(original, span_name, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name.split(".")[0] == "steinmle" or mod_name == "workloads"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)

    def patch_method(self, cls, method_name, span_name, attr=None):
        self._patch(cls, method_name, self.wrap(vars(cls)[method_name], span_name, attr))

    def install(self):
        """Install the wrappers for every layer the benchmark reports."""
        from steinmle import registry

        self.patch_function(
            "steinmle.montecarlo._pykernels",
            "trial_stats",
            "kernels.trial_stats",
            lambda a, k: a[6] - a[5],  # trials covered
        )
        self.patch_function("steinmle.montecarlo._pykernels", "make_generator", "kernels.stream_setup")
        self.patch_function(
            "steinmle.montecarlo._pykernels",
            "draw",
            "kernels.draw",
            lambda a, k: (a[0], a[3]),  # (model, observations)
        )
        self.patch_function("steinmle.montecarlo.harness", "run_simulation", "harness")
        self.patch_function("steinmle.montecarlo.harness", "run_mse_sweep", "harness")
        self.patch_function("steinmle.specfun", "normal_expectation", "specfun.normal_expectation")
        self.patch_function("steinmle.specfun", "polygamma", "specfun.polygamma")
        self.patch_function("steinmle.boundary", "minimize_poisson_c", "boundary.minimize_poisson_c")
        self.patch_function("steinmle.msebound", "beta_b3", "msebound.beta_b3")
        self.patch_function("steinmle.msebound", "minimal_n", "msebound.minimal_n")
        self.patch_function("steinmle.expfam", "exp_canonical_ingredients", "expfam.ingredients")
        self.patch_function("steinmle.expfam", "exp_noncanonical_ingredients", "expfam.ingredients")
        self.patch_function("steinmle.steincore", "mle_bound_general", "steincore.mle_bound_general")

        model_of = lambda a, k: a[0].name  # noqa: E731 - ``self`` of a registry method
        classes = {type(registry.get_model(name)) for name in registry.MODEL_NAMES}
        for cls in sorted(classes, key=lambda c: c.__name__):
            if "distance_bound" in vars(cls):
                self.patch_method(cls, "distance_bound", "registry.distance_bound", model_of)
            if "mse_bound" in vars(cls):
                self.patch_method(cls, "mse_bound", "registry.mse_bound", model_of)
            if "mle_from_stat" in vars(cls):
                self.patch_method(cls, "mle_from_stat", "harness.estimator")

    def uninstall(self):
        while self._undo:
            owner, attr_name, original = self._undo.pop()
            setattr(owner, attr_name, original)

    # -- analysis --------------------------------------------------------

    def self_times(self, first, last):
        """Self time in ns of each span in ``spans[first:last]``, one pass's spans."""
        spans = self.spans[first:last]
        child = [0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(spans, child)]

    def write(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, attr in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, attr]) + "\n")
