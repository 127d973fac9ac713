

import dataclasses
import json
import os
import struct
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from diarnet import autodiff as ad, model as model_module, training
from diarnet.autodiff import Tensor
from conftest import graph_arrays, traced_peak
from diarnet.frontend import (FRAME_S, HOP_SAMPLES, WIN_SAMPLES, WINDOW_FRAMES, WINDOW_HOP,
                              AudioClip, ConfigError, InsufficientAudioError, cnn_encode,
                              log_mel)
from diarnet.losses import CapacityError, LabelMatrix, LossWeights, total_loss
from diarnet.model import ModelConfig, forward, init_model_params, param_specs, zero_grads
from diarnet.synth import LabeledRecording, MixtureSpec, synth_mixture
from diarnet.training import (
    LOSS_FIELDS,
    AdamW,
    ScheduleError,
    SerializationError,
    TrainConfig,
    _crop_windows,
    _mean_losses,
    _prepare,
    clip_grad_norm,
    load_checkpoint,
    one_cycle_lr,
    save_checkpoint,
    train,
)


def desk_model() -> ModelConfig:
    return ModelConfig(depth=1, embed_dim=32, latte_dim=16, n_latents=2,
                       n_attractors=2, ff_expansion=2, conv_kernel=3, heads=2)


def desk_config(**kw) -> TrainConfig:
    base = dict(batch_size=2, epochs=2, max_lr=1e-3, crop_s=3.0, seed=0,
                model=desk_model(), val_every=1)
    base.update(kw)
    return TrainConfig(**base)


def desk_specs(n=3, seed0=50):
    return [MixtureSpec(n_speakers=2, duration_s=8.0, overlap_ratio=0.2,
                        noise_snr_db=15.0, seed=seed0 + i) for i in range(n)]


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_one_cycle_endpoints():
    total, max_lr = 1000, 2e-3
    assert one_cycle_lr(0, total, max_lr) == pytest.approx(max_lr / 25)
    assert one_cycle_lr(300, total, max_lr) == pytest.approx(max_lr)
    assert one_cycle_lr(total - 1, total, max_lr) <= max_lr / 1e3


def test_one_cycle_monotone_phases():
    total, max_lr = 200, 1e-3
    values = [one_cycle_lr(s, total, max_lr) for s in range(total)]
    warm = int(round(0.3 * total))
    assert all(b >= a - 1e-12 for a, b in zip(values[:warm], values[1:warm + 1]))
    assert all(b <= a + 1e-12 for a, b in zip(values[warm:], values[warm + 1:]))


def test_one_cycle_rejects_out_of_range():
    with pytest.raises(ScheduleError):
        one_cycle_lr(10, 10, 1e-3)
    with pytest.raises(ScheduleError):
        one_cycle_lr(-1, 10, 1e-3)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _param(v):
    return {"p": Tensor(np.asarray(v, dtype=np.float32), requires_grad=True)}


def test_adamw_first_step_unit_gradient():
    params = _param([1.0, 2.0, 3.0])
    opt = AdamW(params, weight_decay=0.0)
    params["p"].grad = np.ones(3, dtype=np.float32)
    opt.step(lr=0.01)
    assert np.allclose(params["p"].data, [0.99, 1.99, 2.99], atol=1e-6)


def test_adamw_zero_gradient_no_decay_is_fixed_point():
    params = _param([1.5, -2.0])
    opt = AdamW(params, weight_decay=0.0)
    params["p"].grad = np.zeros(2, dtype=np.float32)
    opt.step(lr=0.5)
    assert np.array_equal(params["p"].data, np.asarray([1.5, -2.0], dtype=np.float32))


def test_adamw_decoupled_decay_shrinks():
    params = _param([2.0])
    opt = AdamW(params, weight_decay=0.1)
    params["p"].grad = np.zeros(1, dtype=np.float32)
    opt.step(lr=0.1)
    assert params["p"].data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.1), rel=1e-6)


def test_adamw_skips_nan_gradients():
    params = _param([1.0])
    opt = AdamW(params)
    params["p"].grad = np.asarray([np.nan], dtype=np.float32)
    with pytest.warns(RuntimeWarning, match="non-finite gradient"):
        assert not opt.step(lr=0.1)
    assert opt.skipped == 1
    assert params["p"].data[0] == 1.0


def test_clip_grad_norm():
    params = _param([0.0, 0.0])
    params["p"].grad = np.asarray([3.0, 4.0], dtype=np.float32)
    norm = clip_grad_norm(params, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(params["p"].grad) == pytest.approx(1.0, rel=1e-5)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("val_every", 0), ("batch_size", 0), ("epochs", -1),
    ("crop_s", 0.0), ("crop_s", -5.0), ("crop_s", 0.04), ("crop_s", float("nan")),
    ("max_lr", float("nan")), ("max_lr", 0.0), ("max_lr", -1e-3),
    # a wrongly typed value: a string, a bool or a float is not an int
    ("batch_size", "2"), ("batch_size", True), ("epochs", 2.5), ("seed", "x"),
    ("max_lr", "1e-3"), ("crop_s", "3"), ("weight_decay", "0"),
    # a value that trains silently into nonsense or reads as divergence
    ("seed", -1), ("weight_decay", float("nan")), ("weight_decay", -5.0),
    pytest.param("weights", LossWeights(-1.0, 0.5, 0.1, 0.1), id="weights-negative"),
    pytest.param("weights", LossWeights(1.0, float("nan"), 0.1, 0.1), id="weights-nan"),
    pytest.param("weights", LossWeights(1.0, 0.5, True, 0.1), id="weights-bool"),
    # every float field is finite
    ("max_lr", float("inf")), ("max_lr", float("-inf")), ("crop_s", float("inf")),
    ("crop_s", float("-inf")), ("weight_decay", float("inf")),
    # finite, but its frame count is not
    ("crop_s", 1e308), ("crop_s", -1e308),
    ("weight_decay", float("-inf")),
    pytest.param("weights", LossWeights(1.0, 0.5, float("inf"), 0.1), id="weights-inf"),
    pytest.param("weights", LossWeights(1.0, 0.5, 0.1, float("-inf")), id="weights--inf"),
    # a nested config is an object, not its JSON form
    pytest.param("weights", [1.0, 0.5, 0.1, 0.1], id="weights-list"),
    pytest.param("model", {"depth": 1}, id="model-dict"),
])
def test_config_rejects_values_that_fail_mid_run(field, value):
    with pytest.raises(ConfigError, match=field):
        desk_config(**{field: value})


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _no_model(*args):
    raise AssertionError("load_checkpoint built a model")


def _write_raw(path, named: dict, extra: dict) -> None:
    """Any named float32 arrays, in the file layout `save_checkpoint` writes."""
    header = {"format": "tensor-bundle-v1",
              "tensors": [{"name": k, "shape": list(v.shape)} for k, v in named.items()],
              "extra": extra}
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n")
        for v in named.values():
            f.write(struct.pack(f"<{v.ndim + 1}I", v.ndim, *v.shape) + v.astype("<f4").tobytes())


def _header_extra(path) -> dict:
    """The model config and meta of a checkpoint's JSON header line."""
    with open(path, "rb") as f:
        return json.loads(f.readline())["extra"]


def test_checkpoint_round_trip(tmp_path, monkeypatch):
    cfg = desk_model()
    params = init_model_params(cfg, np.random.default_rng(7))
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, params, cfg, meta={"step": 5})
    monkeypatch.setattr(training, "init_model_params", _no_model)
    back, cfg2 = load_checkpoint(p)
    assert cfg2 == cfg
    assert set(back) == set(params)
    for k in params:
        assert np.array_equal(back[k].data, params[k].data)


def test_training_without_recordings_is_refused():
    with pytest.raises(ValueError) as e:
        train(desk_config(), [])
    assert e.type is ValueError and str(e.value).startswith("no training recordings")


def test_empty_training_set_is_refused_before_validation_is_read(monkeypatch):
    def unread():
        raise AssertionError("validation data read before the training set was checked")
        yield

    def no_draw(*args):
        raise AssertionError("parameters drawn before the training set was checked")

    monkeypatch.setattr(training, "init_model_params", no_draw)
    with pytest.raises(ValueError, match="^no training recordings"):
        train(desk_config(), [], val_specs=unread())


def test_checkpoint_rejects_mismatched_config(tmp_path):
    cfg = desk_model()
    params = init_model_params(cfg, np.random.default_rng(7))
    p = tmp_path / "m.ckpt"
    other = ModelConfig(depth=2, embed_dim=32, latte_dim=16, n_latents=2,
                        n_attractors=2, ff_expansion=2, conv_kernel=3, heads=2)
    save_checkpoint(p, params, other)
    with pytest.raises(ValueError):
        load_checkpoint(p)


def _corrupt_checkpoint(case: str, named: dict, model: dict) -> tuple[dict, dict, str]:
    """The corrupted (tensors, extra) and the tensor name the error must give."""
    if case == "no model config":
        return named, {}, ""
    if case == "unknown model key":
        return named, {"model": dict(model, bogus=1)}, ""
    if case == "missing parameter":
        return ({k: v for k, v in named.items() if k != "head.b_global"}, {"model": model},
                "head.b_global")
    if case == "extra tensor":       # one of a second block, which a depth-1 config lacks
        bias = np.zeros_like(named["block1.xattn.v.b"])
        return dict(named, **{"block2.xattn.v.b": bias}), {"model": model}, "block2.xattn.v.b"
    if case == "non-finite tensor":
        w = named["frontend.conv1.w"].copy()
        w.flat[3] = np.inf
        return dict(named, **{"frontend.conv1.w": w}), {"model": model}, "frontend.conv1.w"
    # wrong shape
    return (dict(named, **{"frontend.conv1.b": np.zeros(3, np.float32)}), {"model": model},
            "frontend.conv1.b")


@pytest.mark.parametrize("case", ["no model config", "unknown model key",
                                  "missing parameter", "wrong shape", "non-finite tensor",
                                  "extra tensor"])
def test_corrupt_checkpoint_raises_serialization_error(tmp_path, case):
    cfg = desk_model()
    named = {k: p.data for k, p in init_model_params(cfg, np.random.default_rng(7)).items()}
    named, extra, tensor_name = _corrupt_checkpoint(case, named, cfg.to_dict())
    p = tmp_path / "m.ckpt"
    _write_raw(p, named, extra)
    with pytest.raises(SerializationError) as e:
        load_checkpoint(p)
    assert str(p) in str(e.value) and tensor_name in str(e.value)


def _desk_checkpoint(tmp_path) -> tuple[bytes, bytes]:
    """The JSON header line and the rest of a saved desk-model checkpoint."""
    cfg = desk_model()
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, init_model_params(cfg, np.random.default_rng(7)), cfg)
    head, rest = p.read_bytes().split(b"\n", 1)
    return head + b"\n", rest


@pytest.mark.parametrize("field,value", [("embed_dim", 512), ("depth", 10 ** 9)])
def test_header_naming_a_larger_model_is_refused_cheaply(tmp_path, monkeypatch, field, value):
    head, rest = _desk_checkpoint(tmp_path)
    old = f'"{field}": {getattr(desk_model(), field)}'.encode()
    assert head.count(old) == 1
    p = tmp_path / "big.ckpt"
    p.write_bytes(head.replace(old, f'"{field}": {value}'.encode()) + rest)
    # were a model of the header's size built to check against, this fails
    # before allocating it
    monkeypatch.setattr(training, "init_model_params", _no_model)
    tracemalloc.start()
    try:
        with pytest.raises(SerializationError, match="frontend.conv1.w|block2"):
            load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_checkpoint_byte_mutants_load_or_raise_serialization_error(tmp_path):
    head, rest = _desk_checkpoint(tmp_path)
    raw = head + rest
    rng = np.random.default_rng(2024)
    junk = np.frombuffer(b'0123456789.-+e,:"[]{} \n\x00\xff', np.uint8)
    p = tmp_path / "mutant.ckpt"
    outcomes = {"loaded": 0, "refused": 0}
    for i in range(320):
        # even mutants change the JSON header, odd ones the tensor records
        lo, hi = (0, len(head)) if i % 2 == 0 else (len(head), len(raw))
        at = int(rng.integers(lo, hi))
        n = int(rng.integers(1, 9))
        kind = ("truncate", "overwrite", "insert", "delete")[i // 2 % 4]
        new = rng.choice(junk, n).tobytes()
        p.write_bytes({"truncate": raw[:at], "overwrite": raw[:at] + new + raw[at + n:],
                       "insert": raw[:at] + new + raw[at:],
                       "delete": raw[:at] + raw[at + n:]}[kind])
        try:
            load_checkpoint(p)
            outcomes["loaded"] += 1
        except SerializationError:
            outcomes["refused"] += 1
        except Exception as e:  # any other exception type is the fault looked for
            pytest.fail(f"mutant {i} ({kind} {new!r} at byte {at}) raised {e!r}")
    assert outcomes["loaded"] and outcomes["refused"], outcomes


def test_write_raw_writes_what_save_checkpoint_writes(tmp_path):
    cfg = desk_model()
    params = init_model_params(cfg, np.random.default_rng(7))
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, params, cfg, meta={"step": 3})
    raw = tmp_path / "raw.ckpt"
    _write_raw(raw, {k: t.data for k, t in params.items()}, {"model": cfg.to_dict(), "step": 3})
    assert raw.read_bytes() == p.read_bytes()


def _corrupt_header(case: str, head: bytes) -> bytes:
    """A desk checkpoint's JSON header line, newline cut off, broken as `case` says."""
    if case == "undecodable bytes":
        return b"\xff\xfe" + head
    if case == "int past the digit limit":
        assert head.count(b'"depth": 1,') == 1
        return head.replace(b'"depth": 1,', b'"depth": ' + b"9" * 5000 + b",")
    if case == "nested past the recursion limit":
        return b"[" * 100_000 + b"]" * 100_000
    h = json.loads(head)
    if case == "JSON array":
        return json.dumps(h["tensors"]).encode()
    if case == "no tensor list":
        del h["tensors"]
    elif case == "extra not an object":
        h["extra"] = [h["extra"]]
    elif case == "entry without a name":
        del h["tensors"][0]["name"]
    else:   # a name that is not a string
        h["tensors"][0]["name"] = ["frontend.conv1.w"]
    return json.dumps(h).encode()


_HEADER_REFUSALS = {      # case: what the error says
    "undecodable bytes": "bad checkpoint header",
    "int past the digit limit": "bad checkpoint header",
    "nested past the recursion limit": "bad checkpoint header",
    "JSON array": "is not a checkpoint",
    "no tensor list": "no tensor list",
    "extra not an object": "no model config",
    "entry without a name": "header entry 0 should be frontend.conv1.w",
    "name not a string": "header entry 0 should be frontend.conv1.w",
}


@pytest.mark.parametrize("case", _HEADER_REFUSALS)
def test_corrupt_checkpoint_header_raises_serialization_error(tmp_path, case):
    head, rest = _desk_checkpoint(tmp_path)
    p = tmp_path / "bad.ckpt"
    p.write_bytes(_corrupt_header(case, head[:-1]) + b"\n" + rest)
    with pytest.raises(SerializationError) as e:
        load_checkpoint(p)
    message = _HEADER_REFUSALS[case]
    assert str(e.value).startswith(str(p)) and message in str(e.value), str(e.value)


@pytest.mark.parametrize("cut,message", [
    pytest.param(4, "truncated payload of head.b_global", id="last payload"),   # rank 0, 1 float
    pytest.param(12, "truncated payload of head.split.b", id="last two payloads"),
])
def test_bad_record_is_refused_naming_its_tensor(tmp_path, cut, message):
    head, rest = _desk_checkpoint(tmp_path)
    p = tmp_path / "bad.ckpt"
    p.write_bytes(head + rest[:-cut])
    with pytest.raises(SerializationError) as e:
        load_checkpoint(p)
    assert str(e.value).startswith(str(p)) and message in str(e.value), str(e.value)


@pytest.mark.parametrize("embed_dim,message", [
    pytest.param(2 ** 31, "truncated payload of frontend.conv1.w", id="9 * 2**27 floats"),
    pytest.param(2 ** 40, "record of frontend.conv1.w does not start", id="dims past uint32"),
])
def test_record_claiming_more_than_the_file_holds_is_refused_before_reading(
        tmp_path, embed_dim, message):
    cfg = dataclasses.replace(desk_model(), embed_dim=embed_dim)
    name, shape, _ = next(param_specs(cfg))
    header = {"format": "tensor-bundle-v1", "tensors": [{"name": name, "shape": list(shape)}],
              "extra": {"model": cfg.to_dict()}}
    dims = [min(d, 2 ** 32 - 1) for d in shape]
    p = tmp_path / "huge.ckpt"
    p.write_bytes(json.dumps(header).encode() + b"\n" + struct.pack("<5I", 4, *dims)
                  + b"\x00" * 16)
    tracemalloc.start()
    try:
        with pytest.raises(SerializationError, match=message) as e:
            load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value).startswith(str(p))
    assert peak < 8 * 2 ** 20


def test_tensors_out_of_param_specs_order_are_refused(tmp_path):
    cfg = desk_model()
    named = {k: p.data for k, p in init_model_params(cfg, np.random.default_rng(7)).items()}
    keys = list(named)
    keys[2], keys[3] = keys[3], keys[2]
    p = tmp_path / "swapped.ckpt"
    _write_raw(p, {k: named[k] for k in keys}, {"model": cfg.to_dict()})
    with pytest.raises(SerializationError) as e:
        load_checkpoint(p)
    assert str(e.value).startswith(f"{p}: header entry 2 should be frontend.conv2.w "), \
        str(e.value)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def test_zero_epochs_writes_initial_checkpoint(tmp_path):
    cfg = desk_config(epochs=0)
    result = train(cfg, desk_specs(2), out_dir=tmp_path)
    assert not result.diverged
    assert (tmp_path / "last.ckpt").exists()
    assert (tmp_path / "metrics.csv").exists()
    params, cfg2 = load_checkpoint(tmp_path / "last.ckpt")
    assert cfg2 == cfg.model


def test_zero_weighted_losses_leave_params_unchanged():
    # With every loss weight at zero the gradients vanish; decoupled decay is
    # disabled so the optimizer really is a no-op.
    cfg = desk_config(epochs=1, weights=LossWeights(0.0, 0.0, 0.0, 0.0),
                      weight_decay=0.0)
    reference = init_model_params(cfg.model, np.random.default_rng([cfg.seed, 0]))
    result = train(cfg, desk_specs(2))
    for k, p in result.params.items():
        assert np.array_equal(p.data, reference[k].data), k


def test_fixed_seed_reproduces_history(tmp_path):
    # the mel store lives in the default temp dir without out_dir, in out_dir with one
    cfg = desk_config()
    a = train(cfg, desk_specs(3), val_specs=desk_specs(1, seed0=90))
    b = train(cfg, desk_specs(3), val_specs=desk_specs(1, seed0=90), out_dir=tmp_path)
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra == rb


def test_training_reduces_loss_on_tiny_task():
    cfg = desk_config(epochs=12, max_lr=2e-3, seed=1)
    result = train(cfg, desk_specs(4))
    train_rows = [r for r in result.history if r["split"] == "train"]
    first = np.mean([r["total"] for r in train_rows[:4]])
    last = np.mean([r["total"] for r in train_rows[-4:]])
    assert last < first


def test_divergence_aborts_with_last_finite_params(tmp_path):
    # an absurd learning rate explodes the parameters within a step or two
    cfg = desk_config(epochs=4, max_lr=1e12, seed=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.warns(RuntimeWarning, match="diverged"):
            result = train(cfg, desk_specs(2), out_dir=tmp_path)
    assert result.diverged
    for p in result.params.values():
        assert np.all(np.isfinite(p.data))
    assert (tmp_path / "last.ckpt").exists()
    params, _ = load_checkpoint(tmp_path / "last.ckpt")
    for p in params.values():
        assert np.all(np.isfinite(p.data))


def test_validation_divergence_ends_the_run(tmp_path):
    # the first step explodes the parameters; the validation pass after it is
    # where the loss first goes non-finite
    cfg = desk_config(batch_size=3, epochs=4, max_lr=1e12, val_every=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.warns(RuntimeWarning, match="diverged"):
            result = train(cfg, desk_specs(3), val_specs=desk_specs(1, seed0=80),
                           out_dir=tmp_path)
    assert result.diverged
    assert [r["split"] for r in result.history] == ["train"]
    assert (tmp_path / "metrics.csv").exists() and (tmp_path / "last.ckpt").exists()
    for p in result.params.values():
        assert np.all(np.isfinite(p.data))


def test_silent_recording_trains_instead_of_diverging(tmp_path):
    rec = synth_mixture(desk_specs(1)[0])
    silent = LabeledRecording(clip=rec.clip, labels=LabelMatrix(-np.ones_like(rec.labels.y_pm)),
                              rec_id="silent")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = train(desk_config(epochs=1, batch_size=1), [silent], out_dir=tmp_path)
    assert not result.diverged
    rows = [r for r in result.history if r["split"] == "train"]
    assert len(rows) == 1
    assert rows[0]["dpcl"] == 0.0 and rows[0]["ortho"] == 0.0
    assert np.isfinite(rows[0]["bce"]) and rows[0]["bce"] > 0


def _crop_rows(nf: int) -> int:
    return WINDOW_HOP * (nf - 1) + WINDOW_FRAMES


def test_validation_rows_ignore_audio_past_the_crop(tmp_path):
    cfg = desk_config(epochs=2)
    nf = round(cfg.crop_s / FRAME_S)
    long = [synth_mixture(MixtureSpec(n_speakers=2, duration_s=4 * cfg.crop_s,
                                      overlap_ratio=0.2, noise_snr_db=15.0, seed=90 + i))
            for i in range(2)]
    n_samples = HOP_SAMPLES * (_crop_rows(nf) - 1) + WIN_SAMPLES
    cut = [LabeledRecording(AudioClip(r.clip.samples[:n_samples]),
                            LabelMatrix(r.labels.y_pm[:nf]), r.rec_id) for r in long]
    logs = []
    for name, val in (("long", long), ("cut", cut)):
        train(cfg, desk_specs(3), val_specs=val, out_dir=tmp_path / name)
        lines = (tmp_path / name / "metrics.csv").read_bytes().splitlines()
        logs.append([line for line in lines if b",val," in line])
    assert len(logs[0]) == cfg.epochs and logs[0] == logs[1]


def test_training_makes_no_initial_parameter_copy():
    # a run with validation holds no copy of the parameters while it trains
    cfg = desk_config(epochs=1, batch_size=1, model=ModelConfig(
        depth=2, embed_dim=64, latte_dim=16, n_latents=2, n_attractors=2, ff_expansion=2,
        conv_kernel=3, heads=2))
    rec = synth_mixture(desk_specs(1)[0])
    n_bytes = sum(p.data.nbytes for p in init_model_params(cfg.model,
                                                           np.random.default_rng(0)).values())
    train(cfg, [rec])       # fills the caches a first run allocates
    without, peak_without = traced_peak(train, cfg, [rec])
    validated, peak_with = traced_peak(train, cfg, [rec], val_specs=[rec])
    for res in (without, validated):
        assert not res.diverged
    # what validation adds is its crop's mel rows and labels
    assert peak_with - peak_without < n_bytes / 2, (peak_with, peak_without, n_bytes)


def test_training_heap_does_not_grow_with_the_dataset():
    # mel rows live in a mapped file, so 30 more recordings add only their labels;
    # one spec repeated keeps the peak of reading any one of them equal
    cfg = desk_config(epochs=0)
    spec = desk_specs(1)[0]
    train(cfg, [spec])       # fills the caches a first run allocates
    peaks = [traced_peak(train, cfg, (spec for _ in range(n)))[1] for n in (10, 40)]
    mel_bytes = log_mel(synth_mixture(spec).clip).nbytes
    assert abs(peaks[1] - peaks[0]) < mel_bytes, (peaks, mel_bytes)


def test_validation_heap_does_not_grow_with_the_validation_set():
    # validation rows live in the mapped file too, so 30 more recordings add only
    # their labels; one spec repeated keeps the peak of reading any one of them equal
    cfg = desk_config(epochs=0)
    spec = desk_specs(1, seed0=90)[0]
    train(cfg, desk_specs(1), val_specs=[spec])       # fills the caches a first run allocates
    peaks = [traced_peak(train, cfg, desk_specs(1), val_specs=(spec for _ in range(n)))[1]
             for n in (10, 40)]
    mel_bytes = log_mel(synth_mixture(spec).clip).nbytes
    assert abs(peaks[1] - peaks[0]) < mel_bytes, (peaks, mel_bytes)


@pytest.mark.parametrize("cfg", [
    desk_config(epochs=4, max_lr=1e12, seed=2, val_every=4),
    desk_config(batch_size=3, epochs=4, max_lr=1e12, val_every=1),
], ids=["in-a-step", "in-validation"])
def test_divergence_before_the_first_validation_writes_no_best_ckpt(cfg, tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.warns(RuntimeWarning, match="diverged"):
            result = train(cfg, desk_specs(3), val_specs=desk_specs(1, seed0=80),
                           out_dir=tmp_path)
    assert result.diverged and all(r["split"] == "train" for r in result.history)
    assert result.best_val == np.inf
    assert sorted(f.name for f in tmp_path.iterdir()) == ["last.ckpt", "metrics.csv"]
    last, _ = load_checkpoint(tmp_path / "last.ckpt")
    for k, p in result.params.items():
        assert last[k].data.tobytes() == p.data.tobytes(), k


def _best_not_last(tmp_path):
    """A desk run validated after each of its 4 epochs whose lowest validation
    total is not its last; returns the result and its val rows."""
    result = train(desk_config(epochs=4, val_every=1), desk_specs(3),
                   val_specs=desk_specs(1, seed0=80), out_dir=tmp_path)
    vals = [r for r in result.history if r["split"] == "val"]
    assert min(vals, key=lambda r: r["total"]) is not vals[-1], [r["total"] for r in vals]
    return result, vals


def test_best_ckpt_header_names_the_step_of_its_validation(tmp_path):
    result, vals = _best_not_last(tmp_path)
    best = min(vals, key=lambda r: r["total"])
    header = _header_extra(tmp_path / "best.ckpt")
    assert header["step"] == best["step"] < vals[-1]["step"]
    assert header["val_total"] == best["total"] == result.best_val
    last_header = _header_extra(tmp_path / "last.ckpt")
    assert last_header["step"] == vals[-1]["step"]


def test_best_ckpt_does_not_rest_on_how_adamw_writes(monkeypatch, tmp_path):
    # an AdamW that writes each update into the arrays it already holds, as
    # an in-place optimizer would, must leave best.ckpt as it was
    _best_not_last(tmp_path / "replacing")
    step = AdamW.step

    def in_place(self, lr):
        held = {k: p.data for k, p in self.params.items()}
        ok = step(self, lr)
        for k, p in self.params.items():
            held[k][...] = p.data
            p.data = held[k]
        return ok

    monkeypatch.setattr(AdamW, "step", in_place)
    _best_not_last(tmp_path / "in-place")
    for name in ("best.ckpt", "last.ckpt", "metrics.csv"):
        assert ((tmp_path / "in-place" / name).read_bytes()
                == (tmp_path / "replacing" / name).read_bytes()), name


def test_no_validation_data_writes_no_best_ckpt(tmp_path):
    (tmp_path / "best.ckpt").write_bytes(b"left by an earlier run")
    result = train(desk_config(epochs=1), desk_specs(2), out_dir=tmp_path)
    assert not result.diverged and np.isnan(result.best_val)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["last.ckpt", "metrics.csv"]


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns `a`'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _desk_crop():
    """Criterion 6's model, its seed-1 parameters, and one 150-frame crop's
    windows and labels."""
    model = ModelConfig(depth=2, embed_dim=64, latte_dim=32, n_latents=8, n_attractors=4,
                        ff_expansion=4, conv_kernel=9, heads=4)
    params = init_model_params(model, np.random.default_rng(1))
    spec = MixtureSpec(n_speakers=2, duration_s=15.0, overlap_ratio=0.2, noise_snr_db=15.0,
                       seed=100)
    return model, params, *_crop_windows(*_prepare(spec, model.n_attractors, 150)[:2], 0, 150)


def test_desk_crop_graph_holds_no_array_only_for_its_shape(monkeypatch):
    # criterion 6's model on one 150-frame crop, before backward()
    model, params, windows, labels = _desk_crop()
    made, make = [], ad._make

    def spy(data, parents, backward):
        if isinstance(data, np.ndarray):    # 0-d sums come as numpy scalars
            made.append(weakref.ref(data))
        return make(data, parents, backward)

    monkeypatch.setattr(ad, "_make", spy)
    res = forward(cnn_encode(windows, params, model.embed_dim), params, model)
    loss = total_loss(res, labels, weights=LossWeights(1.0, 0.5, 0.1, 0.1)).total_tensor

    held, captured = graph_arrays(loss)
    kept = {id(_owner(a)) for a in captured.values()}
    kept |= {id(_owner(t.data)) for t in (*params.values(), loss, res.logits, res.frames,
                                          res.attractor_dirs, res.attractor_biases)}
    # what the graph reaches, and every op result still alive
    arrays = [*held.values(), *(r() for r in made if r() is not None)]
    stray = {id(_owner(a)): _owner(a).nbytes for a in arrays}
    assert captured
    assert sum(n for k, n in stray.items() if k not in kept) == 0


def test_desk_crop_graph_keeps_no_pre_norm_output_or_glu_sigmoid(monkeypatch):
    # a linear fed by a layer norm rebuilds its input from the norm's xn, and
    # glu recomputes its sigmoid; out_ln's output is the residual stream, which
    # later ops read, so it is not checked
    model, params, windows, labels = _desk_crop()
    pre_norm, sigmoids = [], []
    apply_ln, sigmoid_np = model_module._apply_ln, ad._sigmoid_np

    def ln_spy(x, params, name):
        out = apply_ln(x, params, name)
        if not name.endswith(".out_ln"):
            pre_norm.append(out.data)
        return out

    def sigmoid_spy(x):    # in forward, only the conv modules' GLU gates call it
        sigmoids.append(sigmoid_np(x))
        return sigmoids[-1]

    monkeypatch.setattr(model_module, "_apply_ln", ln_spy)
    monkeypatch.setattr(ad, "_sigmoid_np", sigmoid_spy)
    res = forward(cnn_encode(windows, params, model.embed_dim), params, model)
    loss = total_loss(res, labels, weights=LossWeights(1.0, 0.5, 0.1, 0.1)).total_tensor
    monkeypatch.undo()

    captured = {id(_owner(a)) for a in graph_arrays(loss)[1].values()}
    # ff1, latte, conv1, xattn, conv2 and ff2 of each block; self, ff1, cross and
    # ff2 of each decoder layer; the head
    assert len(pre_norm) == 2 * 10 + 1
    assert len(sigmoids) == 2 * 2
    assert not [a.shape for a in pre_norm if id(_owner(a)) in captured]
    assert not [a.shape for a in sigmoids if id(_owner(a)) in captured]


def test_mean_losses_equals_a_loop_over_crops():
    # crops of 30 and 20 frames, interleaved
    cfg = desk_config(model=ModelConfig(depth=2, embed_dim=32, latte_dim=16, n_latents=2,
                                        n_attractors=3, ff_expansion=2, conv_kernel=3,
                                        heads=2))
    data = [_prepare(spec, 3, 30) for spec in desk_specs(3)]
    crops = [(data[0][0], data[0][1], 0, 30), (data[1][0], data[1][1], 7, 20),
             (data[2][0], data[2][1], 11, 30)]
    params = {k: Tensor(p.data.astype(np.float64), requires_grad=True)
              for k, p in init_model_params(cfg.model, np.random.default_rng(3)).items()}

    zero_grads(params)
    means = _mean_losses(crops, params, cfg)
    got = {k: p.grad for k, p in params.items()}

    zero_grads(params)
    want = dict.fromkeys(LOSS_FIELDS, 0.0)
    for crop in crops:
        windows, labels = _crop_windows(*crop)
        res = forward(cnn_encode(windows, params, cfg.model.embed_dim), params, cfg.model)
        bundle = total_loss(res, labels, weights=cfg.weights, mode=cfg.dpcl_mode)
        (bundle.total_tensor * (1.0 / len(crops))).backward()
        for k in want:
            want[k] += getattr(bundle, k) / len(crops)

    for k in LOSS_FIELDS:
        assert means[k] == want[k], k
    for k, p in params.items():
        assert got[k].tobytes() == p.grad.tobytes(), k


def _no_draw(*args):
    raise AssertionError("parameters drawn before the data was checked")


def _open_fds() -> int | None:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_audio_too_short_for_one_frame_is_refused_by_its_id(monkeypatch, tmp_path):
    # 1319 samples give 14 mel rows, one short of the window one output frame reads
    good = [synth_mixture(s) for s in desk_specs(2)]
    short = LabeledRecording(clip=AudioClip(good[0].clip.samples[:1319]),
                             labels=LabelMatrix(good[0].labels.y_pm[:0]), rec_id="short1")
    monkeypatch.setattr(training, "init_model_params", _no_draw)
    fds = _open_fds()
    with pytest.raises(InsufficientAudioError, match="^recording short1: 1319 samples < the 1320"):
        train(desk_config(), [*good, short], out_dir=tmp_path)
    # the mel store of the two recordings read before it is gone with its descriptor
    assert list(tmp_path.iterdir()) == [] and _open_fds() == fds


@pytest.mark.parametrize("n_samples,n_frames,text", [
    (32000, 79, "79 label frames, outside the 1 to 39 "),     # 4 s of audio, 8 s of labels
    (64000, 0, "0 label frames, outside the 1 to 79 "),
], ids=["past-the-audio", "no-frame"])
def test_labels_the_audio_cannot_back_are_refused_by_its_id(monkeypatch, n_samples,
                                                             n_frames, text):
    good = synth_mixture(desk_specs(1)[0])
    bad = LabeledRecording(clip=AudioClip(good.clip.samples[:n_samples]),
                           labels=LabelMatrix(good.labels.y_pm[:n_frames]), rec_id="bad")
    monkeypatch.setattr(training, "init_model_params", _no_draw)
    with pytest.raises(InsufficientAudioError, match=f"^recording bad: {text}"):
        train(desk_config(), [good, bad])


def test_more_speakers_than_slots_is_refused_by_its_id(monkeypatch):
    good = synth_mixture(desk_specs(1)[0])
    wide = np.ones((good.labels.n_frames, 3), dtype=np.int8)
    crowded = LabeledRecording(clip=good.clip, labels=LabelMatrix.from_activity(wide),
                               rec_id="crowded")
    monkeypatch.setattr(training, "init_model_params", _no_draw)
    with pytest.raises(CapacityError, match="^recording crowded: 3 speakers exceed 2 "):
        train(desk_config(), [good], val_specs=[crowded])
