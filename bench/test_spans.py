"""Tests for the benchmark's span tracer: python -m pytest bench"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from diarnet import autodiff as ad  # noqa: E402
from diarnet import cli, model, training  # noqa: E402
from spans import Span, Tracer, covered, instrument, layer_metrics  # noqa: E402


def _span(name, start, end, *children):
    return Span(name, start, end, children=list(children))


def test_self_time_subtracts_union_of_children():
    # multihead_attention runs inside both attractor_decode and
    # conformer_block, and latte_attention inside conformer_block
    mha_a = _span("model.multihead_attention", 1.0, 2.0)
    adec = _span("model.attractor_decode", 0.5, 3.0, mha_a)
    latte = _span("model.latte_attention", 4.0, 6.0)
    mha_b = _span("model.multihead_attention", 5.0, 7.0)   # overlaps latte: counted once
    block = _span("model.conformer_block", 3.5, 9.0, latte, mha_b)
    fwd = _span("model.forward", 0.0, 10.0, adec, block)

    assert fwd.self_time == 10.0 - 2.5 - 5.5
    assert adec.self_time == 2.5 - 1.0
    assert block.self_time == 5.5 - 3.0
    assert mha_b.self_time == 2.0


def test_covered_clips_and_merges():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(-5.0, 1.0), (2.0, 4.0), (3.0, 5.0), (9.0, 12.0)]) == 5.0
    assert covered(0.0, 1.0, [(2.0, 3.0)]) == 0.0


def test_nested_spans_merge_audit_counts():
    tracer = Tracer()
    a = ad.Tensor(np.ones((4, 3), dtype=np.float32))
    b = ad.Tensor(np.ones((3, 2), dtype=np.float32))
    outer = tracer.open("outer")
    ad.matmul(a, b)                          # 4*2*3 = 24 MACs in the outer span
    inner = tracer.open("inner")
    ad.matmul(a, ad.Tensor(np.ones((3, 5), dtype=np.float32)))   # 60 MACs
    tracer.close(inner)
    tracer.close(outer)

    assert (inner.macs, inner.tensors, inner.elements) == (60, 2, 15 + 20)
    assert (outer.macs, outer.tensors, outer.elements) == (24 + 60, 1 + 2, 8 + 35)
    assert outer.max_elements == 20
    assert ad._AUDIT is None


def test_close_ends_spans_left_open_inside():
    tracer = Tracer()
    outer = tracer.open("training.train")
    step = tracer.open("training.step")
    tracer.close(outer)
    assert step.end > 0 and outer.end >= step.end
    assert tracer._open == []


def test_instrument_restores_every_binding():
    before = (cli.main, cli.train, training.train, training.cnn_encode,
              model.multihead_attention, ad.Tensor.__dict__["backward"],
              training.AdamW.__dict__["step"], training.zero_grads)
    tracer = Tracer()
    with instrument(tracer):
        assert training.train is not before[2]
        assert cli.train is training.train       # both bindings wrapped
        assert training.cnn_encode is not before[3]
    after = (cli.main, cli.train, training.train, training.cnn_encode,
             model.multihead_attention, ad.Tensor.__dict__["backward"],
             training.AdamW.__dict__["step"], training.zero_grads)
    assert all(x is y for x, y in zip(before, after))


def test_traced_training_step_nests_layers():
    cfg = model.ModelConfig(depth=1, embed_dim=32, latte_dim=16, n_latents=2,
                            n_attractors=2, ff_expansion=2, conv_kernel=3, heads=2)
    tcfg = training.TrainConfig(batch_size=2, epochs=1, crop_s=3.0, seed=1, model=cfg)
    from diarnet.synth import MixtureSpec

    specs = [MixtureSpec(n_speakers=2, duration_s=6.0, seed=s) for s in (1, 2)]
    tracer = Tracer()
    with instrument(tracer):
        training.train(tcfg, specs)
    (root,) = tracer.roots
    steps = [s for s in root.children if s.name == "training.step"]
    assert len(steps) == 1
    names = [c.name for c in steps[0].children]
    assert names.count("model.forward") == 2 and names.count("autodiff.backward") == 2
    assert names[-1] == "training.AdamW.step"
    m = layer_metrics(tracer)
    assert m["training.steps"] == 1 and m["training.skipped_steps"] == 0
    assert m["autodiff.tensors_per_sample"] > 0
    assert 0 < m["training.step.self_ms"] < m["training.step.ms"]
