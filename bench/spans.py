"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the library: `instrument()` swaps chosen
module functions and methods for wrappers that open a span, run the original
and close the span, and puts every original back on exit. Each span also
holds an `autodiff.audit()` record, so it carries the MACs and tensor shapes
of the work done inside it.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from diarnet import autodiff as ad

BYTES_PER_ELEMENT = 4          # float32, the engine's training and inference dtype
MIB = 2 ** 20
STEP = "training.step"

# (module, attribute, span name): the public functions each layer is entered by.
FUNCTIONS = [
    ("diarnet.cli", "main", "cli"),
    ("diarnet.training", "train", "training.train"),
    ("diarnet.training", "clip_grad_norm", "training.clip_grad_norm"),
    ("diarnet.training", "save_checkpoint", "training.save_checkpoint"),
    ("diarnet.training", "load_checkpoint", "training.load_checkpoint"),
    ("diarnet.frontend", "load_wav", "frontend.load_wav"),
    ("diarnet.frontend", "log_mel", "frontend.log_mel"),
    ("diarnet.frontend", "window_stack", "frontend.window_stack"),
    ("diarnet.frontend", "cnn_encode", "frontend.cnn_encode"),
    ("diarnet.model", "forward", "model.forward"),
    ("diarnet.model", "attractor_decode", "model.attractor_decode"),
    ("diarnet.model", "conformer_block", "model.conformer_block"),
    ("diarnet.model", "latte_attention", "model.latte_attention"),
    ("diarnet.model", "multihead_attention", "model.multihead_attention"),
    ("diarnet.model", "sap_pool", "model.sap_pool"),
    ("diarnet.losses", "total_loss", "losses.total_loss"),
    ("diarnet.losses", "pit_align", "losses.pit_align"),
    ("diarnet.losses", "bce_with_suppression", "losses.bce_with_suppression"),
    ("diarnet.losses", "dpcl_loss", "losses.dpcl_loss"),
    ("diarnet.losses", "attractor_dpcl_targets", "losses.attractor_dpcl_targets"),
    ("diarnet.losses", "ortho_loss", "losses.ortho_loss"),
    ("diarnet.scoring", "der_score", "scoring.der_score"),
    ("diarnet.scoring", "posterior_to_segments", "scoring.posterior_to_segments"),
    ("diarnet.rttm", "read_rttm", "rttm.read_rttm"),
    ("diarnet.rttm", "write_rttm", "rttm.write_rttm"),
    ("diarnet.synth", "synth_mixture", "synth.synth_mixture"),
]

# (module, class, method, span name)
METHODS = [
    ("diarnet.autodiff", "Tensor", "backward", "autodiff.backward"),
    ("diarnet.training", "AdamW", "step", "training.AdamW.step"),
]


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    run_s = run_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if run_e is not None and s <= run_e:
            run_e = max(run_e, e)
            continue
        if run_e is not None:
            total += run_e - run_s
        run_s, run_e = s, e
    if run_e is not None:
        total += run_e - run_s
    return total


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)
    macs: int = 0               # this span and all its descendants
    tensors: int = 0
    elements: int = 0
    max_elements: int = 0
    count: int = 0              # layer counter: segments handled, steps skipped

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        return self.duration - covered(self.start, self.end,
                                       [(c.start, c.end) for c in self.children])

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


class Tracer:
    """Keeps a tree of spans; one audit record per open span."""

    def __init__(self):
        self.roots: list[Span] = []
        self._open: list[tuple[Span, object, dict]] = []

    def open(self, name: str) -> Span:
        audit = ad.audit()
        record = audit.__enter__()
        span = Span(name, time.perf_counter())
        (self._open[-1][0].children if self._open else self.roots).append(span)
        self._open.append((span, audit, record))
        return span

    def close(self, span: Span) -> None:
        """Close `span` and any span still open inside it."""
        while self._open:
            top, audit, record = self._open.pop()
            top.end = time.perf_counter()
            audit.__exit__(None, None, None)
            # audit() replaces the active record, so the parent never saw
            # this span's counts: add them to it here
            if self._open:
                parent = self._open[-1][2]
                parent["macs"] += record["macs"]
                parent["shapes"].extend(record["shapes"])
            sizes = [math.prod(s) for s in record["shapes"]]
            top.macs = record["macs"]
            top.tensors = len(sizes)
            top.elements = sum(sizes)
            top.max_elements = max(sizes, default=0)
            if top is span:
                return
        raise RuntimeError(f"span {span.name} is not open")

    def close_if_open(self, name: str) -> None:
        """Close the innermost open span if it is called `name`."""
        if self._open and self._open[-1][0].name == name:
            self.close(self._open[-1][0])

    def spans(self):
        for root in self.roots:
            yield from root.walk()


def _counter(name: str):
    """What a span counts, from the wrapped call's arguments and result."""
    if name == "training.AdamW.step":
        return lambda args, result: int(result is False)
    if name == "scoring.der_score":
        return lambda args, result: len(args[0].segments) + len(args[1].segments)
    if name == "scoring.posterior_to_segments":
        return lambda args, result: len(result.segments)
    return None


def _wrap(tracer: Tracer, fn, name: str):
    count = _counter(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            span.count = count(args, result)
        if name == "training.AdamW.step":
            tracer.close_if_open(STEP)
        return result
    return wrapper


def _wrap_step_start(tracer: Tracer, fn):
    """`train()` starts every optimizer step with `zero_grads`; the step span
    runs from there to the end of `AdamW.step`."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.close_if_open(STEP)
        tracer.open(STEP)
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points for the duration of the block.

    A function is replaced under every name any diarnet module binds it to
    (`from .x import f` makes a second binding), and every binding and method
    is restored on exit.
    """
    saved = []

    def patch_everywhere(fn, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "diarnet" or mod_name.startswith("diarnet."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    try:
        for mod_name, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr)
            patch_everywhere(fn, _wrap(tracer, fn, name))
        zero_grads = sys.modules["diarnet.model"].zero_grads
        patch_everywhere(zero_grads, _wrap_step_start(tracer, zero_grads))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            fn = cls.__dict__[attr]
            saved.append((cls, attr, fn))
            setattr(cls, attr, _wrap(tracer, fn, name))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def unit(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("mib") or metric.endswith("mib_per_sample"):
        return "MiB"
    if "macs" in metric:
        return "MACs"
    if metric.endswith("frac"):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer, setup: Tracer | None = None) -> dict:
    """Per-layer metrics of the traced operations.

    Times, MACs and counts are totals divided by the optimizer steps taken,
    or by the files processed (one per CLI call) when no step was taken.
    Per-sample figures divide the work inside training steps (or inside the
    CLI calls, with no training) by the `model.forward` calls made there.
    """
    spans = list(tracer.spans())
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    steps = len(by_name.get(STEP, []))
    calls = len(by_name.get("cli", []))
    norm = steps or calls or 1

    def total(name, attr="duration"):
        return sum(getattr(s, attr) for s in by_name.get(name, []))

    def ms(name):
        return 1e3 * total(name) / norm

    def self_ms(name):
        return 1e3 * total(name, "self_time") / norm

    def max_mib(name):
        return max((s.max_elements for s in by_name.get(name, [])), default=0) \
            * BYTES_PER_ELEMENT / MIB

    scopes = by_name.get(STEP) or by_name.get("cli", [])
    samples = sum(1 for scope in scopes for s in scope.walk() if s.name == "model.forward")
    per_sample = 1.0 / samples if samples else 0.0

    synth = [s for s in setup.spans() if s.name == "synth.synth_mixture"] if setup else []
    m = {
        "cli.self_ms": self_ms("cli"),
        "training.train.self_ms": self_ms("training.train"),
        "training.step.ms": ms(STEP),
        "training.step.self_ms": self_ms(STEP),
        "training.AdamW.step.ms": ms("training.AdamW.step"),
        "training.clip_grad_norm.ms": ms("training.clip_grad_norm"),
        "training.save_checkpoint.ms": ms("training.save_checkpoint"),
        "training.load_checkpoint.ms": ms("training.load_checkpoint"),
        "training.steps": steps / max(calls, 1),
        "training.skipped_steps": total("training.AdamW.step", "count") / max(calls, 1),
        "autodiff.backward.ms": ms("autodiff.backward"),
        "autodiff.tensors_per_sample": sum(s.tensors for s in scopes) * per_sample,
        "autodiff.macs_per_sample": sum(s.macs for s in scopes) * per_sample,
        "autodiff.alloc_mib_per_sample":
            sum(s.elements for s in scopes) * BYTES_PER_ELEMENT / MIB * per_sample,
    }
    for name in ("frontend.load_wav", "frontend.log_mel", "frontend.window_stack",
                 "frontend.cnn_encode", "model.forward", "model.attractor_decode",
                 "model.conformer_block", "model.latte_attention",
                 "model.multihead_attention", "model.sap_pool", "losses.total_loss",
                 "losses.pit_align", "losses.bce_with_suppression", "losses.dpcl_loss",
                 "losses.attractor_dpcl_targets", "losses.ortho_loss",
                 "scoring.der_score", "scoring.posterior_to_segments",
                 "rttm.read_rttm", "rttm.write_rttm"):
        m[name + ".ms"] = ms(name)
    m["model.forward.self_ms"] = self_ms("model.forward")
    m["losses.total_loss.self_ms"] = self_ms("losses.total_loss")
    m["frontend.cnn_encode.macs"] = total("frontend.cnn_encode", "macs") / norm
    m["model.forward.macs"] = total("model.forward", "macs") / norm
    m["frontend.cnn_encode.max_tensor_mib"] = max_mib("frontend.cnn_encode")
    m["model.forward.max_tensor_mib"] = max_mib("model.forward")
    m["losses.dpcl_loss.max_tensor_mib"] = max_mib("losses.dpcl_loss")
    m["scoring.segments"] = (total("scoring.der_score", "count")
                             + total("scoring.posterior_to_segments", "count")) / norm
    m["synth.synth_mixture.ms"] = 1e3 * sum(s.duration for s in synth) / max(len(synth), 1)
    return m
