"""Per-layer tracing of padicdyn from outside, with no edits to its source.

``Tracer.install`` wraps each layer function below and puts the wrapper into
every ``padicdyn`` namespace that bound the original (``escape_threshold``, for
one, is bound in both ``padicdyn.berkovich`` and ``padicdyn.heights``), and on
``RationalPoly`` for its two methods.  Wrappers only record while ``active`` is
set, so the harness can run its gates between calls untraced.

Every traced call adds to its function's call count, busy time (outermost
activations only) and self time (duration minus traced children).  Spans are
kept in memory for every function except the four hot kernels, whose calls
number in the millions and are only aggregated.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Metric prefix -> (module, attribute); a module of None means a method of
# padicdyn.polynomial.RationalPoly.
LAYER_FUNCTIONS = {
    "heights.survey": ("heights", "survey"),
    "heights.canonical_height": ("heights", "canonical_height"),
    "heights.is_preperiodic": ("heights", "is_preperiodic"),
    "heights.local_escape_rate": ("heights", "local_escape_rate"),
    "heights.archimedean_escape_rate": ("heights", "archimedean_escape_rate"),
    "berkovich.escape_threshold": ("berkovich", "escape_threshold"),
    "berkovich.filled_julia_membership": ("berkovich", "filled_julia_membership"),
    "berkovich.pushforward": ("berkovich", "pushforward"),
    "berkovich.max_point": ("berkovich", "max_point"),
    "valuation.val": ("valuation", "val"),
    "valuation.reduce_mod_prime_power": ("valuation", "reduce_mod_prime_power"),
    "polynomial.taylor_coefficients": (None, "taylor_coefficients"),
    "polynomial.eval": (None, "__call__"),
    "cli.run": ("cli", "run"),
    "cli.parse_polynomial": ("cli", "parse_polynomial"),
    "newton.newton_polygon": ("newton", "newton_polygon"),
    "bogomolov.check_criterion": ("bogomolov", "check_criterion"),
    "primes.factorize": ("primes", "factorize"),
    "bounds.verify_lcm_exponential_bound": ("bounds", "verify_lcm_exponential_bound"),
    "bounds.bound_table": ("bounds", "bound_table"),
    "bounds.find_crossover": ("bounds", "find_crossover"),
}
KERNELS = {
    "valuation.val",
    "valuation.reduce_mod_prime_power",
    "polynomial.taylor_coefficients",
    "polynomial.eval",
}
EXIT_CODES = ("0", "2", "3", "10", "other")
VERDICTS = {"Escaped": "escaped", "BoundedCertified": "certified", "BoundedUpTo": "bounded_up_to"}


def _observe(counters: Counter, name: str, result) -> None:
    """Outcome counters, read off a traced call's return value."""
    if name == "heights.local_escape_rate":
        counters["heights.local_escape_rate.exact"] += result.log_p_multiple is not None
    elif name == "berkovich.filled_julia_membership":
        counters["berkovich.membership." + VERDICTS[type(result).__name__]] += 1
    elif name == "berkovich.max_point":
        counters["berkovich.max_point.probes"] += result.probes
    elif name == "cli.run":
        code = str(result)
        counters["cli.exit_code." + (code if code in EXIT_CODES else "other")] += 1
    elif name == "bogomolov.check_criterion":
        counters["bogomolov.check_criterion.strong"] += result.is_strong


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.item = 0  # index of the workload call being traced
        self.kind = ""  # its input kind
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counters: Counter = Counter()
        self.calls_by_kind: dict[str, Counter] = defaultdict(Counter)
        self.spans: list[tuple] = []  # (id, parent id, item, name, start, end)
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._depth: Counter = Counter()
        self._undo: list[tuple] = []
        self._next_id = 0
        self.now = perf_counter  # the harness substitutes its probe-free clock

    # -- installation -------------------------------------------------------

    def install(self, pd) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "padicdyn" or n.startswith("padicdyn.")]
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            if module is None:
                owner = pd.polynomial.RationalPoly
                self._replace(owner, attr, self._wrap(name, getattr(owner, attr)))
                continue
            original = getattr(getattr(pd, module), attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is original:
                        self._replace(ns, bound, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame)
                if name == "cli.run":
                    tracer.counters["cli.exit_code.other"] += 1
                raise
            tracer._exit(frame)
            _observe(tracer.counters, name, result)
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> list:
        span_id = None
        if name not in KERNELS:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, 0.0, span_id]
        self._stack.append(frame)
        self._depth[name] += 1
        frame[1] = self.now()
        return frame

    def _exit(self, frame: list) -> None:
        end = self.now()
        name, start, child, span_id = frame
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.calls_by_kind[self.kind][name] += 1
        self.self_time[name] += duration - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.busy[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            parent_id = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans.append((span_id, parent_id, self.item, name, start, end))

    # -- results ------------------------------------------------------------

    def metrics(self, items: int, time_scale: float) -> dict[str, float]:
        """Per-layer metric values for a traced pass that completed ``items``;
        times are multiplied by ``time_scale`` (wall to reference seconds)."""
        out: dict[str, float] = {}
        for name in LAYER_FUNCTIONS:
            out[name + ".calls"] = self.calls[name]
            out[name + ".busy_s"] = self.busy[name] * time_scale
            out[name + ".self_s"] = self.self_time[name] * time_scale
        c = self.counters
        out["heights.local_escape_rate.exact_ratio"] = _ratio(
            c["heights.local_escape_rate.exact"], self.calls["heights.local_escape_rate"]
        )
        out["berkovich.escape_threshold.calls_per_item"] = _ratio(
            self.calls["berkovich.escape_threshold"], items
        )
        out["berkovich.max_point.probes"] = c["berkovich.max_point.probes"]
        for verdict in VERDICTS.values():
            out["berkovich.membership." + verdict] = c["berkovich.membership." + verdict]
        out["berkovich.membership.decided_ratio"] = _ratio(
            c["berkovich.membership.escaped"] + c["berkovich.membership.certified"],
            self.calls["berkovich.filled_julia_membership"],
        )
        for code in EXIT_CODES:
            out["cli.exit_code." + code] = c["cli.exit_code." + code]
        out["bogomolov.check_criterion.strong_ratio"] = _ratio(
            c["bogomolov.check_criterion.strong"], self.calls["bogomolov.check_criterion"]
        )
        out["bounds.lcm_events"] = c["bounds.lcm_events"]
        return out

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_time),
            "counters": dict(self.counters),
            "calls_by_kind": {k: dict(v) for k, v in self.calls_by_kind.items()},
            "span_fields": ["id", "parent", "item", "name", "start_s", "end_s"],
            "spans": self.spans,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
