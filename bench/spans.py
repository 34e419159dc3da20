"""Span tracing of cfaisp from outside the package.

A Tracer swaps the public functions of cfaisp's modules for wrappers (for
example ``cfaisp.pipeline.add_awgn``), so no file of the package is edited.
Each wrapped call records one span: name, start, end, parent span and run id.
Every span of one pipeline run carries the run id
``image|strategy|sigma|denoiser|demosaicker|repeat``. Spans stay in memory
until the pass ends. A span's self time is its duration minus the time its
child spans cover; summed by name they give the per-module numbers.

Alongside the spans the tracer keeps computed counters: work implied by the
arguments and results of each call (kernel passes, bytes the current loops
move, noise fields drawn). They depend only on the inputs, so they repeat
exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import cfaisp

# importlib, because the package re-exports a function named demosaic that
# hides the cfaisp.demosaic module from attribute access.
cfa, cli, demosaic, denoise, imageio, noise, pipeline = (
    importlib.import_module(f"cfaisp.{name}") for name in ("cfa", "cli", "demosaic", "denoise", "imageio", "noise", "pipeline")
)

# float64 plane operands one (color, offset) pass of the joint-bilateral loop
# reads or writes: the ten elementwise operations of its body read 15 planes
# and write 10 (difference, square, negate, scale, exp, spatial scale, mask,
# data product, and the num/den accumulations).
JOINT_PLANE_OPERANDS_PER_PASS = 25
FLOAT64_BYTES = 8

MODULES = (cfaisp, cfa, noise, denoise, demosaic, pipeline, imageio, cli)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "child_s")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.run_id: str | None = None
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Records spans and computed counters for the wrapped cfaisp calls."""

    def __init__(self, repeat_of_seed: dict[int, int] | None = None):
        self.repeat_of_seed = dict(repeat_of_seed or {})
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def call(self, name: str, fn, args, kwargs, hook=None, bound=None):
        """Run fn inside a span; hook(tracer, arguments, result) may return a run id."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, parent)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.end - span.start
        if hook is not None:
            span.run_id = hook(self, bound, result)
        return result

    # -- installing the wrappers ----------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(fn, name, hook) for fn, name, hook in _targets()}
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, fn, name, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if hook is not None or callable(name):
                arguments = signature.bind(*args, **kwargs)
                arguments.apply_defaults()
                bound = arguments.arguments
            span_name = name(bound) if callable(name) else name
            return self.call(span_name, fn, args, kwargs, hook, bound)

        return traced

    # -- reading the trace ----------------------------------------------
    def finish(self) -> None:
        """Give every span of a run its run id.

        A cli.main span takes the id of the run_pipeline call it made; every
        other span without an id inherits its parent's. Parents precede their
        children in the list because spans are appended when they start.
        """
        for span in self.spans:
            if span.name == "pipeline.run_pipeline" and span.parent is not None:
                parent = self.spans[span.parent]
                if parent.name == "cli.main":
                    parent.run_id = span.run_id
        for span in self.spans:
            if span.run_id is None and span.parent is not None:
                span.run_id = self.spans[span.parent].run_id

    def roots(self) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span.parent is None]

    def subtree_self_s(self) -> dict[int, float]:
        """Sum of self times under each root span, keyed by root index."""
        root_of: list[int] = []
        totals: defaultdict = defaultdict(float)
        for i, span in enumerate(self.spans):
            root = i if span.parent is None else root_of[span.parent]
            root_of.append(root)
            totals[root] += span.self_s
        return dict(totals)

    def self_ms_by_name(self) -> dict[str, float]:
        totals: defaultdict = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s * 1000.0
        return dict(totals)

    def calls_by_name(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def counters(self) -> dict[str, int]:
        out = dict(self.counts)
        for key, values in self.distinct.items():
            out[key] = len(values)
        return out

    def write_jsonl(self, path, label: str) -> None:
        """Append the spans, times in ms from the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "a", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                row = {
                    "pass": label,
                    "id": i,
                    "name": span.name,
                    "start_ms": round((span.start - origin) * 1000.0, 6),
                    "end_ms": round((span.end - origin) * 1000.0, 6),
                    "parent": span.parent,
                    "run": span.run_id,
                    "self_ms": round(span.self_s * 1000.0, 6),
                }
                handle.write(json.dumps(row) + "\n")


# -- what is wrapped, and the counters each call adds -----------------------


def _count_normal_field(tracer: Tracer, a, result) -> None:
    tracer.counts["noise.normal_field.calls"] += 1
    tracer.distinct["noise.normal_field.distinct"].add((int(a["seed"]), int(a["height"]), int(a["width"])))


def _count_denoise(tracer: Tracer, a, result) -> None:
    config = a["config"]
    tracer.counts["denoise.samples"] += a["plane"].data.size
    if config.kind == "bilateral":
        tracer.counts["denoise.bilateral.offsets"] += (2 * math.ceil(3.0 * config.sigma_s) + 1) ** 2


def _count_joint(tracer: Tracer, a, result) -> None:
    h, w = a["mosaic"].plane.data.shape
    passes = 3 * (2 * math.ceil(3.0 * a["sigma_s"]) + 1) ** 2
    tracer.counts["demosaic.joint_bilateral.passes"] += passes
    tracer.counts["demosaic.joint_bilateral.bytes_computed"] += passes * JOINT_PLANE_OPERANDS_PER_PASS * FLOAT64_BYTES * h * w


def _count_decode(tracer: Tracer, a, result) -> None:
    tracer.counts["imageio.bytes_in"] += len(a["data"])


def _count_encode(tracer: Tracer, a, result) -> None:
    tracer.counts["imageio.bytes_out"] += len(result)


def _run_pipeline_id(tracer: Tracer, a, result) -> str:
    strategy = a["strategy"]
    spec = a["noise"]
    dm = a["dm"]
    denoiser = "none" if strategy is pipeline.Strategy.JOINT else a["dn"].describe()
    if strategy is pipeline.Strategy.AFTER:
        tracer.counts["pipeline.after_demosaic_calls"] += 1
        tracer.distinct["pipeline.after_demosaic_distinct"].add(
            (a["image_id"], a["pattern"], spec.seed, spec.sigma_r, spec.sigma_g, spec.sigma_b, dm.describe())
        )
    repeat = tracer.repeat_of_seed.get(spec.seed, -1)
    return f"{a['image_id']}|{strategy.value}|{spec.sigma_g:g}|{denoiser}|{dm.describe()}|{repeat}"


def _targets():
    """(function, span name or name-from-arguments, counter hook) triples."""
    return (
        (cfa.mosaic_from_rgb, "cfa.mosaic_from_rgb", None),
        (cfa.decompose, "cfa.decompose", None),
        (cfa.recompose, "cfa.recompose", None),
        (noise.add_awgn, "noise.add_awgn", None),
        (noise.normal_field, "noise.normal_field", _count_normal_field),
        (denoise.denoise_plane, lambda a: f"denoise.{a['config'].kind}", _count_denoise),
        (denoise.denoise_subimages, "denoise.subimages", None),
        (demosaic.demosaic_bilinear, "demosaic.bilinear", None),
        (demosaic.demosaic_gradient, "demosaic.gradient", None),
        (demosaic.demosaic_joint_bilateral, "demosaic.joint_bilateral", _count_joint),
        (pipeline.run_pipeline, "pipeline.run_pipeline", _run_pipeline_id),
        (pipeline.run_experiment, "pipeline.run_experiment", None),
        (imageio.decode_pnm, "imageio.decode_pnm", _count_decode),
        (imageio.encode_pnm, "imageio.encode_pnm", _count_encode),
        (imageio.write_csv, "imageio.write_csv", None),
        (cli.main, "cli.main", None),
    )


def span_cost_s(calls: int = 5000) -> float:
    """Upper estimate of the time one traced call adds: bind, span, hook.

    Times a wrapped no-op whose span name and hook read the bound
    arguments, as the costliest wrappers do, against the bare no-op.
    """

    def noop(value):
        return value

    tracer = Tracer()
    wrapped = tracer._wrap(noop, lambda a: "noop", lambda t, a, result: None)
    start = time.perf_counter()
    for i in range(calls):
        noop(i)
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    return (time.perf_counter() - start - bare) / calls


@contextmanager
def counting_pickled_bytes():
    """Count the bytes multiprocessing pickles in this process.

    A process pool pickles each chunk of tasks with ForkingPickler.dumps
    before writing it to a worker's pipe; results are pickled in the
    workers and are not counted. Yields a one-item list holding the total.
    """
    from multiprocessing.reduction import ForkingPickler

    total = [0]
    original = ForkingPickler.__dict__["dumps"]
    dumps = original.__func__

    def counted(cls, obj, protocol=None):
        payload = dumps(cls, obj, protocol)
        total[0] += len(payload)
        return payload

    ForkingPickler.dumps = classmethod(counted)
    try:
        yield total
    finally:
        ForkingPickler.dumps = original
