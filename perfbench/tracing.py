"""Span tracing of hiertsc from outside the package.

:class:`Tracer` replaces each public function of the traced modules, and a
few public methods, with a wrapper that records a span (name, start, end,
parent span, pass id) and, for some layers, work counters.  Every binding a
``hiertsc`` module holds is replaced, including re-exports (``fit_classifier``
is imported by ``splitting``, ``lcpn``, ``evaluation`` and ``io``) and the
values of registry dicts such as ``splitting.SPLITTERS``; :meth:`install`
raises if any module still holds an unwrapped reference afterwards.

Spans stay in memory; :meth:`write` dumps them as JSON lines.  Self time is a
span's duration minus the time its child spans cover.  The benchmark runs
everything in one thread, so sibling spans never overlap and the covered time
is the sum of the children's durations.  The counters' own bookkeeping runs
inside a ``trace.probe`` span, so it is charged to tracing, not to a layer;
traced functions a probe calls (``analysis.cost_model`` calls several) run
unwrapped meanwhile and record no spans.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = (
    "dataset",
    "io",
    "classifiers",
    "splitting",
    "treegen",
    "lcpn",
    "metrics",
    "evaluation",
    "analysis",
)

#: (module, class, attribute, span name) of the traced methods.
TRACED_METHODS = (
    ("dataset", "TimeSeriesDataset", "__post_init__", "dataset.construct"),
    ("classifiers", "KernelBank", "transform", "classifiers.transform"),
    ("classifiers", "KernelBank", "generate", "classifiers.bank_generate"),
    ("lcpn", "LcpnModel", "to_bundle", "lcpn.bundle.dump"),
    ("lcpn", "LcpnModel", "from_bundle", "lcpn.bundle.load"),
    ("evaluation", "CvReport", "to_json", "evaluation.report_json"),
)

#: Span names that differ from ``<module>.<function>``.  The splitters share
#: one name so their counters add up whichever one a workload uses.
SPAN_NAMES = {
    "classifiers.fit_classifier": "classifiers.fit",
    "splitting.pick_one_then_regroup": "splitting.splitter",
    "splitting.split_randomly_then_regroup": "splitting.splitter",
    "splitting.leave_salient_one_out": "splitting.splitter",
    "splitting.exhaustive_split": "splitting.splitter",
}

PROBE = "trace.probe"


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "hiertsc" or n.startswith("hiertsc.")]


class Tracer:
    """Wraps hiertsc for the duration of :meth:`install` .. :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self._stack: list[int] = []
        self._probing = [False]  # set while a probe runs: wrappers call straight through
        self._pass_id = -1
        self._pass_start = 0
        self._wrappers: dict = {}  # original function -> wrapper
        self._restore: list = []  # (setter, original) pairs, in install order
        self._counts: dict[str, float] = defaultdict(float)
        self._row_hashes: set[int] = set()
        self._bank_keys: set = set()
        from hiertsc import analysis, lcpn, treegen

        self._cost_model = analysis.cost_model
        self._fit_counters = lcpn.FitCounters
        self._fresh = treegen.CheckResult.FRESH
        self._probes = {
            "classifiers.transform": self._probe_transform,
            "classifiers.bank_generate": self._probe_bank,
            "classifiers.ridge_solve": self._probe_ridge,
            "splitting.splitter": self._probe_splitter,
            "treegen.check_duplicates_and_limit": self._probe_duplicates,
            "lcpn.fit_lcpn": self._probe_fit_lcpn,
            "lcpn.predict_lcpn": self._probe_predict,
        }

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, probing = self.spans, self._stack, self._probing
        probe = self._probes.get(name)
        clock = time.perf_counter
        signature = inspect.signature(fn) if name == "lcpn.fit_lcpn" else None

        def traced(*args, **kwargs):
            if probing[0]:
                return fn(*args, **kwargs)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                if bound.arguments.get("counters") is None:
                    bound.arguments["counters"] = self._fit_counters()
                args, kwargs = bound.args, bound.kwargs
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent, self._pass_id]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                spans.append([PROBE, span[2], 0.0, parent, self._pass_id])
                probe_span = spans[-1]
                probing[0] = True
                try:
                    probe(args, kwargs, result)
                finally:
                    probing[0] = False
                    probe_span[2] = clock()
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding; raise if one is missed."""
        import hiertsc  # noqa: F401 - makes sure every submodule is loaded

        for short in TRACED_MODULES:
            module = sys.modules[f"hiertsc.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                qual = f"{short}.{attr}"
                self._wrappers[obj] = self._wrap(SPAN_NAMES.get(qual, qual), obj)
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._rebind(module, attr, obj)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in self._wrappers:
                            self._rebind_item(obj, key, value)
        for short, cls_name, attr, name in TRACED_METHODS:
            cls = getattr(sys.modules[f"hiertsc.{short}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(cls, attr, wrapped)
            self._restore.append((lambda v, c=cls, a=attr: setattr(c, a, v), raw))
        self._check_no_unwrapped()

    def _rebind(self, module, attr, original) -> None:
        setattr(module, attr, self._wrappers[original])
        self._restore.append((lambda v, m=module, a=attr: setattr(m, a, v), original))

    def _rebind_item(self, mapping: dict, key, original) -> None:
        mapping[key] = self._wrappers[original]
        self._restore.append((lambda v, d=mapping, k=key: d.__setitem__(k, v), original))

    def _check_no_unwrapped(self) -> None:
        missed = [
            where
            for module in _package_modules()
            for where, value in _references(module)
            if inspect.isfunction(value) and value in self._wrappers
        ]
        for short, cls_name, attr, _ in TRACED_METHODS:
            raw = getattr(sys.modules[f"hiertsc.{short}"], cls_name).__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not hasattr(fn, "__wrapped__"):
                missed.append(f"{cls_name}.{attr}")
        if missed:
            raise RuntimeError("unwrapped references to traced functions: " + ", ".join(missed))

    def uninstall(self) -> None:
        for setter, original in reversed(self._restore):
            setter(original)
        self._restore.clear()
        self._wrappers.clear()

    # -- passes and counters ---------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self._pass_id = pass_id
        self._pass_start = len(self.spans)
        self._counts = defaultdict(float)
        self._row_hashes = set()
        self._bank_keys = set()

    def end_pass(self) -> dict[str, float]:
        """Per-layer figures of the pass that just ended, keyed by metric name."""
        out: dict[str, float] = defaultdict(float)
        spans = self.spans[self._pass_start :]
        covered: dict[int, float] = defaultdict(float)
        offset = self._pass_start
        for span in spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        for i, span in enumerate(spans):
            name = span[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (span[2] - span[1]) - covered.get(offset + i, 0.0)
        c = self._counts
        out["classifiers.transform.rows"] = c["transform_rows"]
        out["classifiers.transform.unique_row_share"] = _share(len(self._row_hashes), c["transform_rows"])
        out["classifiers.bank_generate.unique_share"] = _share(
            len(self._bank_keys), out["classifiers.bank_generate.calls"]
        )
        ridge_calls = out["classifiers.ridge_solve.calls"]
        out["classifiers.ridge_solve.mean_n"] = _share(c["ridge_n"], ridge_calls)
        out["classifiers.ridge_solve.mean_f"] = _share(c["ridge_f"], ridge_calls)
        out["classifiers.ridge_solve.n_lt_f_share"] = _share(c["ridge_n_lt_f"], ridge_calls)
        split_calls = out["splitting.splitter.calls"]
        out["splitting.splitter.evaluations_per_call"] = _share(c["split_evaluations"], split_calls)
        out["splitting.splitter.early_stop_share"] = _share(c["split_early"], split_calls)
        out["treegen.fresh_share"] = _share(c["fresh"], out["treegen.check_duplicates_and_limit.calls"])
        fits = out["lcpn.fit_lcpn.calls"]
        out["lcpn.fit_lcpn.units"] = c["units"]
        out["lcpn.fit_lcpn.units_match_share"] = _share(c["units_match"], fits)
        out["lcpn.fit_lcpn.units_per_lower_bound"] = _share(c["units_per_lower"], fits)
        out["lcpn.fit_lcpn.units_per_upper_bound"] = _share(c["units_per_upper"], fits)
        predicts = out["lcpn.predict_lcpn.calls"]
        out["lcpn.predict_lcpn.rows"] = c["predict_rows"]
        out["lcpn.predict_lcpn.mean_depth"] = _share(c["depth_sum"], c["predict_rows"])
        out["lcpn.predict_lcpn.depth_in_band_share"] = _share(c["depth_in_band"], predicts)
        out["lcpn.bundle.dump_s"] = out["lcpn.bundle.dump.self_s"]
        out["lcpn.bundle.load_s"] = out["lcpn.bundle.load.self_s"]
        return dict(out)

    def _probe_transform(self, args, kwargs, result) -> None:
        values = np.ascontiguousarray(args[1] if len(args) > 1 else kwargs["values"])
        self._counts["transform_rows"] += len(values)
        self._row_hashes.update(hash(row.tobytes()) for row in values)

    def _probe_bank(self, args, kwargs, result) -> None:
        self._bank_keys.add(tuple(args) + tuple(sorted(kwargs.items())))

    def _probe_ridge(self, args, kwargs, result) -> None:
        n, f = args[0].shape
        self._counts["ridge_n"] += n
        self._counts["ridge_f"] += f
        self._counts["ridge_n_lt_f"] += n < f

    def _probe_splitter(self, args, kwargs, outcome) -> None:
        self._counts["split_evaluations"] += outcome.evaluations
        self._counts["split_early"] += outcome.early_stopped

    def _probe_duplicates(self, args, kwargs, result) -> None:
        self._counts["fresh"] += result is self._fresh

    def _probe_fit_lcpn(self, args, kwargs, model) -> None:
        # args were bound by the wrapper: (tree, data, spec, counters, ...)
        tree, data, counters = args[0], args[1], args[3]
        estimate = self._cost_model(tree, data)
        c = self._counts
        c["units"] += counters.datapoint_class_units
        c["units_match"] += tuple(counters.per_parent_units) == estimate.per_parent_units
        c["units_per_lower"] += counters.datapoint_class_units / estimate.lower_bound_balanced
        c["units_per_upper"] += counters.datapoint_class_units / estimate.upper_bound_chain

    def _probe_predict(self, args, kwargs, result) -> None:
        model = args[0]
        _, depths = result
        n_classes = len(model.tree.root_classes)
        mean_depth = float(depths.mean()) if depths.size else 0.0
        c = self._counts
        c["predict_rows"] += depths.size
        c["depth_sum"] += float(depths.sum())
        # the depth band of analysis.verify_cost_model: log2|C| .. |C|/2 + 1
        c["depth_in_band"] += math.log2(n_classes) - 1e-12 <= mean_depth <= n_classes / 2 + 1 + 1e-12

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "pass": pass_id}
                    )
                    + "\n"
                )


def _references(module):
    """(where, object) for every reference a module holds where a function can
    hide: globals, items of module-level containers, class attributes and
    default arguments.  Wider than what :meth:`Tracer.install` rebinds, so a
    reference it cannot rebind is reported instead of silently left untraced."""
    name = module.__name__
    for attr, obj in vars(module).items():
        where = f"{name}.{attr}"
        yield where, obj
        if isinstance(obj, dict):
            for key, value in obj.items():
                yield f"{where}[{key!r}]", value
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for i, value in enumerate(obj):
                yield f"{where}[{i}]", value
        elif inspect.isclass(obj) and obj.__module__ == name:
            for key, value in vars(obj).items():
                yield f"{where}.{key}", getattr(value, "__func__", value)
        elif inspect.isfunction(obj):
            defaults = (obj.__defaults__ or ()) + tuple((obj.__kwdefaults__ or {}).values())
            for value in defaults:
                yield f"{where} default", value


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
