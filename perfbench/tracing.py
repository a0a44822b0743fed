"""Per-layer timing by wrapping each layer's public entry points.

The traced pass replaces, for its duration, the module attributes through
which each layer is reached with span-recording wrappers. Spans are
aggregated online per (case, layer, parent layer) as count, total and
self time (duration minus the time covered by child spans), because
desk-scale runs make millions of wrapped calls.
"""

from __future__ import annotations

import dataclasses
import functools
from contextlib import contextmanager
from time import perf_counter

ROOT = "<root>"

ORACLE_CALLBACKS = ("eval_f", "eval_g", "grad_u_f", "grad_v_f", "grad_v_g",
                    "hvp_vv_g", "jvp_uv_g", "eval_h", "jtvp_u_h", "jtvp_v_h",
                    "hess_vv_g", "jac_uv_g")
SECOND_ORDER = ("hvp_vv_g", "jvp_uv_g")


class Spans:
    """Online span aggregation; `tag` names the case now running."""

    def __init__(self):
        self.tag = None
        self.stack = [[ROOT, 0.0]]
        self.stats = {}            # (tag, layer, parent) -> [count, total, self]
        self.bytes = {}            # tag -> computed second-order bytes

    def wrap(self, layer, fn):
        stack, stats = self.stack, self.stats

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                parent[1] += d
                key = (self.tag, layer, parent[0])
                s = stats.get(key)
                if s is None:
                    s = stats[key] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += d
                s[2] += d - frame[1]
        return span

    def count_bytes(self, fn, operand_bytes):
        """Add the computed bytes of each second-order call to `bytes`."""
        def counted(p, q):
            out = fn(p, q)
            self.bytes[self.tag] = (self.bytes.get(self.tag, 0) + q.nbytes
                                    + out.nbytes + operand_bytes)
            return out
        return counted

    def layer_totals(self, tags=None):
        """layer -> [calls, self seconds], summed over parents."""
        out = {}
        for (tag, layer, _), (n, _, self_s) in self.stats.items():
            if tags is None or tag in tags:
                acc = out.setdefault(layer, [0, 0.0])
                acc[0] += n
                acc[1] += self_s
        return out


def _require(module, name):
    if not hasattr(module, name):
        raise SystemExit(f"perfbench: traced entry point "
                         f"{module.__name__}.{name} no longer exists")
    return getattr(module, name)


def _timing_view(spans, oracle, layer, callbacks=ORACLE_CALLBACKS,
                 operand_bytes=None):
    """Oracle copy whose callbacks record spans, built like attach_counters.

    `layer` maps a callback name to its layer name; with `operand_bytes`
    set, second-order calls also add their computed bytes to `spans`.
    """
    kw = {}
    for cb in callbacks:
        fn = getattr(oracle, cb)
        if fn is None:
            continue
        if cb in SECOND_ORDER and operand_bytes is not None:
            fn = spans.count_bytes(fn, operand_bytes)
        kw[cb] = spans.wrap(layer(cb), fn)
    return dataclasses.replace(oracle, **kw)


@contextmanager
def traced(spans):
    """Install span wrappers on every layer entry point; restore on exit."""
    from bilevel import bench, core, solvers

    patches = []

    def patch(module, name, replacement):
        patches.append((module, name, _require(module, name)))
        setattr(module, name, replacement)

    def wrap_attr(module, name, layer):
        patch(module, name, spans.wrap(layer, _require(module, name)))

    step = spans.wrap("core.stepper_step", _require(solvers, "stepper_step"))
    patch(solvers, "stepper_step", step)
    # ApproxGrad reaches the stepper through core.Stepper.step
    patch(core, "stepper_step", step)
    wrap_attr(solvers, "project_box", "core.project_box")
    wrap_attr(solvers, "penalty_grad_v", "oracle.penalty_grad_v")
    wrap_attr(solvers, "penalty_grad_u", "oracle.penalty_grad_u")
    for est in ("rmd_hypergrad", "fmd_hypergrad", "approxgrad_hypergrad"):
        wrap_attr(solvers, est, f"solvers.{est}")
    for drv in ("penalty_aug_solve", "penalty_solve", "gd_alternating",
                "outer_loop"):
        wrap_attr(bench, drv, "solvers.driver")
    wrap_attr(bench, "run_trials", "bench.run_trials")
    wrap_attr(bench, "write_run_csv", "bench.write_run_csv")
    # the recorder has no public entry point
    wrap_attr(_require(solvers, "_Recorder"), "record", "solvers.recorder")

    attach = _require(solvers, "attach_counters")

    def attach_counters(oracle, counters):
        view = attach(oracle, counters)
        counted = [cb for cb in ORACLE_CALLBACKS
                   if getattr(view, cb) is not getattr(oracle, cb)]
        return _timing_view(spans, view, lambda cb: "solvers.attach_counters",
                            counted)
    patch(solvers, "attach_counters", attach_counters)

    slack = _require(bench, "slackify")

    def slackify(oracle):
        return _timing_view(spans, slack(oracle),
                            lambda cb: "oracle.slackify")
    patch(bench, "slackify", spans.wrap("oracle.slackify", slackify))

    get_problem = _require(bench, "get_problem")

    def instrument(factory):
        def build(*args, **kwargs):
            inst = factory(*args, **kwargs)
            A = inst.info.get("A")
            # examples 3-4 read A once for A x and once for A^T y
            operand = 0 if A is None else 2 * A.nbytes
            view = _timing_view(spans, inst.oracle,
                                lambda cb: f"problems.{cb}",
                                operand_bytes=operand)
            metric = (inst.metric and
                      spans.wrap("problems.metric", inst.metric))
            return dataclasses.replace(
                inst, oracle=view, metric=metric,
                init_sampler=spans.wrap("problems.factory",
                                        inst.init_sampler))
        return spans.wrap("problems.factory", build)

    def traced_get_problem(name):
        spec = get_problem(name)
        return dataclasses.replace(
            spec, factory=instrument(spec.factory),
            batch_factory=(spec.batch_factory
                           and instrument(spec.batch_factory)))
    patch(bench, "get_problem", traced_get_problem)

    try:
        yield spans
    finally:
        for module, name, original in reversed(patches):
            setattr(module, name, original)
