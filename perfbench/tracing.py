"""Layer spans and counters for the benchmark, attached from outside the package.

A :class:`Tracer` wraps the public functions of each ``cstarenv`` layer at
every module binding where callers look them up (``from .linalg import
span_of`` copies the function into the importing module, so each copy is
replaced), times the calls as nested spans, counts calls and iterations, and
restores every original binding when the ``installed`` block ends.  Nothing
under ``src/`` knows about it.

A span's self time is its duration minus the part of it covered by child
spans.  Hooks with only a counter (``op_norm``, ``product_span``,
``pack_herm``) open no span, so their time stays in the caller's self time.

``LAYER_METRICS`` is the per-layer metric table of the benchmark, with the
end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from cstarenv.errors import InconclusiveError

PACKAGE = "cstarenv"
_MARK = "__perfbench_hook__"


@dataclass(frozen=True)
class Span:
    """One timed call; ``parent`` indexes ``Tracer.spans`` (None at the root)."""

    name: str
    start: float
    end: float
    parent: int | None
    child_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory spans and counters for one traced sweep."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, name, start, child seconds]

    def open(self, name: str) -> None:
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, self.clock(), 0.0])

    def close(self) -> None:
        end = self.clock()
        idx, name, start, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += end - start
        self.spans[idx] = Span(name, start, end, None if parent is None else parent[0], child)

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name (finished spans only)."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s is not None:
                out[s.name] += s.self_s
        return dict(out)

    @contextmanager
    def installed(self, hooks=None):
        """Bind wrappers for ``hooks`` (default :data:`HOOKS`) for the block's duration."""
        restore = []
        try:
            for hook in HOOKS if hooks is None else hooks:
                restore.extend(_install(self, hook))
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)


@dataclass(frozen=True)
class Hook:
    """How one public function is traced.

    ``target`` is ``module:function`` or ``module:Class.method``.  ``span``
    names the span whose self time is reported, ``count`` the per-call
    counter.  ``observe(tracer, outcome, token)`` sees the return value or
    the raised exception; ``token`` is what ``before(tracer)`` returned.
    """

    target: str
    span: str | None = None
    count: str | None = None
    observe: Callable | None = None
    before: Callable | None = None


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _wrap(tracer: Tracer, hook: Hook, fn):
    span, count, observe, before = hook.span, hook.count, hook.observe, hook.before

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            tracer.counts[count] += 1
        token = before(tracer) if before is not None else None
        if span is not None:
            tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if observe is not None:
                observe(tracer, exc, token)
            raise
        finally:
            if span is not None:
                tracer.close()
        if observe is not None:
            observe(tracer, result, token)
        return result

    setattr(wrapper, _MARK, hook.target)
    return wrapper


def _install(tracer: Tracer, hook: Hook) -> list[tuple]:
    """Replace every binding of the hooked function; returns what to restore."""
    mod_name, _, qual = hook.target.partition(":")
    module = importlib.import_module(mod_name)
    if "." in qual:
        cls_name, meth = qual.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, _wrap(tracer, hook, original))
        return [(cls, meth, original)]
    original = getattr(module, qual)
    if hasattr(original, _MARK):
        raise RuntimeError(f"{hook.target} is already traced")
    wrapper = _wrap(tracer, hook, original)
    restore = []
    for m in _package_modules():
        for name, value in list(vars(m).items()):
            if value is original:
                setattr(m, name, wrapper)
                restore.append((m, name, original))
    return restore


def bound_wrappers() -> list[str]:
    """Every trace wrapper still bound in the package (empty after a run)."""
    found = []
    for m in _package_modules():
        for name, value in vars(m).items():
            if hasattr(value, _MARK):
                found.append(f"{m.__name__}.{name}")
            elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                found.extend(
                    f"{m.__name__}.{name}.{k}" for k, v in vars(value).items() if hasattr(v, _MARK)
                )
    return found


def _uniqueness(tracer, outcome, _token):
    if not isinstance(outcome, Exception):
        tracer.counts["ucp.uniqueness_iters"] += outcome.iterations
        tracer.counts["ucp.uniqueness_fastpath"] += outcome.iterations == 0


def _feasibility(tracer, outcome, _token):
    if isinstance(outcome, Exception):
        if isinstance(outcome, InconclusiveError):
            tracer.counts["ucp.feasibility_inconclusive"] += 1
        return
    tracer.counts["ucp.feasibility_iters"] += outcome.iterations
    tracer.counts["ucp.feasibility_polish"] += outcome.method == "polish"


def _feasibility_calls(tracer):
    return tracer.counts["ucp.feasibility_calls"]


def _ideal_test(tracer, _outcome, calls_before):
    tracer.counts["boundary.ideal_engine"] += tracer.counts["ucp.feasibility_calls"] > calls_before


def _falsifier(tracer, outcome, _token):
    if not isinstance(outcome, Exception):
        tracer.counts["boundary.falsifier_iters"] += outcome.iterations
        tracer.counts["boundary.falsifier_levels"] += len(outcome.levels_searched)


HOOKS = (
    Hook("cstarenv.analysis:analyze_system", span="analysis.self_s"),
    Hook("cstarenv.analysis:analyze_pair", span="analysis.self_s"),
    Hook("cstarenv.opsys:generated_cstar", span="opsys.generated_cstar_s"),
    Hook("cstarenv.opsys:product_span", count="opsys.product_span_calls"),
    Hook("cstarenv.linalg:span_of", span="linalg.span_of_s", count="linalg.span_of_calls"),
    Hook("cstarenv.linalg:op_norm", count="linalg.op_norm_calls"),
    Hook(
        "cstarenv.wedderburn:wedderburn_decompose",
        span="wedderburn.decompose_s",
        count="wedderburn.decompose_calls",
    ),
    Hook(
        "cstarenv.ucp:is_unique_ucp_extension",
        span="ucp.uniqueness_s",
        count="ucp.uniqueness_calls",
        observe=_uniqueness,
    ),
    Hook(
        "cstarenv.ucp:UcpSpectrahedron.psd_project",
        span="ucp.psd_project_s",
        count="ucp.psd_project_calls",
    ),
    Hook("cstarenv.ucp:pack_herm", count="ucp.pack_herm_calls"),
    Hook(
        "cstarenv.ucp:ucp_feasibility",
        span="ucp.feasibility_s",
        count="ucp.feasibility_calls",
        observe=_feasibility,
    ),
    Hook("cstarenv.boundary:silov_ideal_dk", span="boundary.dk_s"),
    Hook("cstarenv.boundary:silov_ideal_lattice", span="boundary.lattice_s"),
    Hook(
        "cstarenv.boundary:is_boundary_ideal_ucp",
        count="boundary.ideal_tests",
        before=_feasibility_calls,
        observe=_ideal_test,
    ),
    Hook(
        "cstarenv.boundary:falsify_complete_isometry",
        span="boundary.falsifier_s",
        count="boundary.falsifier_calls",
        observe=_falsifier,
    ),
    Hook("cstarenv.tensor:product_blocks", span="tensor.product_blocks_s"),
    Hook(
        "cstarenv.tensor:verify_envelope_tensor_factorization", span="tensor.factorization_s"
    ),
    Hook("cstarenv.tensor:verify_boundary_pair_closure", span="tensor.boundary_pairs_s"),
    Hook("cstarenv.propagation:propagation_number", span="propagation.propagation_s"),
    Hook("cstarenv.propagation:verify_power_compatibility", span="propagation.power_compat_s"),
    Hook("cstarenv.propagation:verify_propagation_max", span="propagation.prop_max_s"),
    Hook("cstarenv.specio:analysis_report", span="specio.report_s"),
    Hook("cstarenv.specio:pair_report", span="specio.report_s"),
    Hook("cstarenv.specio:dump_report", span="specio.report_s"),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload this layer metric should move


# ratio metrics: (numerator counter, denominator counter); 0 when nothing was counted
_FRACTIONS = {
    "ucp.uniqueness_fastpath_frac": ("ucp.uniqueness_fastpath", "ucp.uniqueness_calls"),
    "ucp.feasibility_polish_frac": ("ucp.feasibility_polish", "ucp.feasibility_calls"),
    "boundary.ideal_engine_frac": ("boundary.ideal_engine", "boundary.ideal_tests"),
}

_ALL = "all workloads"
_PAIRS = "wall_s on pairs"
_SYSTEMS_PAIRS = "wall_s on systems and pairs"
_SPAN = "wall_s on pairs; item_p50_s on systems"
_PROBE = "wall_s, item_p50_s on systems; wall_s on pairs"
_BLOCKS = "wall_s on blocks"
_LATTICE = "wall_s, item_p50_s on blocks; none on systems"
LAYER_METRICS = (
    LayerMetric("analysis.self_s", "s", "lower", f"wall_s on {_ALL} (orchestration only)"),
    LayerMetric("opsys.generated_cstar_s", "s", "lower", _PAIRS),
    LayerMetric("opsys.product_span_calls", "count", "lower", _PAIRS),
    LayerMetric("linalg.span_of_s", "s", "lower", _SPAN),
    LayerMetric("linalg.span_of_calls", "count", "lower", _SPAN),
    LayerMetric("linalg.op_norm_calls", "count", "lower", _SYSTEMS_PAIRS),
    LayerMetric("wedderburn.decompose_s", "s", "lower", "wall_s on blocks and pairs"),
    LayerMetric("wedderburn.decompose_calls", "count", "lower", "wall_s on blocks and pairs"),
    LayerMetric("ucp.uniqueness_s", "s", "lower", _PROBE),
    LayerMetric("ucp.uniqueness_calls", "count", "lower", _PROBE),
    LayerMetric("ucp.uniqueness_iters", "count", "lower", _PROBE),
    LayerMetric("ucp.uniqueness_fastpath_frac", "ratio", "higher", _PROBE),
    LayerMetric("ucp.psd_project_s", "s", "lower", _PAIRS),
    LayerMetric("ucp.psd_project_calls", "count", "lower", _PAIRS),
    LayerMetric("ucp.pack_herm_calls", "count", "lower", _PAIRS),
    LayerMetric("ucp.feasibility_s", "s", "lower", _BLOCKS),
    LayerMetric("ucp.feasibility_calls", "count", "lower", _BLOCKS),
    LayerMetric("ucp.feasibility_iters", "count", "lower", _BLOCKS),
    LayerMetric("ucp.feasibility_polish_frac", "ratio", "lower", _BLOCKS),
    LayerMetric("ucp.feasibility_inconclusive", "count", "lower", f"inconclusive share on {_ALL}"),
    LayerMetric("boundary.dk_s", "s", "lower", "wall_s on systems"),
    LayerMetric("boundary.lattice_s", "s", "lower", _LATTICE),
    LayerMetric("boundary.ideal_tests", "count", "lower", _LATTICE),
    LayerMetric("boundary.ideal_engine_frac", "ratio", "lower", _LATTICE),
    LayerMetric("boundary.falsifier_s", "s", "lower", _SYSTEMS_PAIRS),
    LayerMetric("boundary.falsifier_calls", "count", "lower", _SYSTEMS_PAIRS),
    LayerMetric("boundary.falsifier_iters", "count", "lower", _SYSTEMS_PAIRS),
    LayerMetric("boundary.falsifier_levels", "count", "lower", _SYSTEMS_PAIRS),
    LayerMetric("tensor.product_blocks_s", "s", "lower", f"{_PAIRS} only"),
    LayerMetric("tensor.factorization_s", "s", "lower", f"{_PAIRS} only"),
    LayerMetric("tensor.boundary_pairs_s", "s", "lower", f"{_PAIRS} only"),
    LayerMetric("propagation.propagation_s", "s", "lower", _SPAN),
    LayerMetric("propagation.power_compat_s", "s", "lower", _PAIRS),
    LayerMetric("propagation.prop_max_s", "s", "lower", _PAIRS),
    LayerMetric("specio.report_s", "s", "lower", f"wall_s on {_ALL} (serialization)"),
    LayerMetric("trace.overhead_s", "s", "lower", "traced minus untraced wall_s; moves nothing"),
)


def layer_values(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced sweep; absent layers read 0."""
    selfs = tracer.self_seconds()
    counts = tracer.counts
    out = {}
    for m in LAYER_METRICS:
        if m.name == "trace.overhead_s":
            out[m.name] = overhead_s
        elif m.name in _FRACTIONS:
            num, den = _FRACTIONS[m.name]
            out[m.name] = counts[num] / counts[den] if counts[den] else 0.0
        elif m.unit == "s":
            out[m.name] = selfs.get(m.name, 0.0)
        else:
            out[m.name] = int(counts[m.name])
    return out
