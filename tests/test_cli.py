import json
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diarnet
from diarnet import cli
from diarnet.cli import ManifestError, build_parser, main, read_manifest
from diarnet.frontend import AudioClip, load_wav, write_wav
from diarnet.model import ModelConfig, init_model_params
from diarnet.rttm import read_rttm
from diarnet.training import save_checkpoint

DESK_MODEL = {"depth": 1, "embed_dim": 32, "latte_dim": 16, "n_latents": 2,
              "n_attractors": 2, "ff_expansion": 2, "conv_kernel": 3, "heads": 2}


def desk_train_config(**kw) -> dict:
    d = {"batch_size": 2, "epochs": 1, "max_lr": 1e-3, "crop_s": 3.0, "seed": 0,
         "dpcl_mode": "attractor", "val_every": 10,
         "weights": [1.0, 0.5, 0.1, 0.1], "model": dict(DESK_MODEL)}
    d.update(kw)
    return d


@pytest.fixture()
def dataset(tmp_path):
    spec = {"mixtures": [{"n_speakers": 2, "duration_s": 8.0, "overlap_ratio": 0.2,
                          "noise_snr_db": 15.0, "seed": seed} for seed in (40, 41, 42)]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    data_dir = tmp_path / "data"
    assert main(["synth-data", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    return data_dir


def test_synth_data_outputs(dataset):
    manifest = (dataset / "manifest.csv").read_text().strip().splitlines()
    assert manifest[0] == "id,wav,rttm,duration_s,n_speakers"
    assert len(manifest) == 4
    for row in manifest[1:]:
        rec_id, wav, rttm = row.split(",")[:3]
        assert (dataset / wav).exists()
        assert (dataset / rttm).exists()
        assert read_rttm(dataset / rttm)[rec_id].segments


MIXTURE = {"n_speakers": 2, "duration_s": 4.0, "overlap_ratio": 0.2, "noise_snr_db": 15.0,
           "seed": 0}


def _one(**fields) -> dict:
    """A spec of one mixture, MIXTURE with `fields` changed."""
    return {"mixtures": [dict(MIXTURE, **fields)]}


@pytest.mark.parametrize("spec,key", [
    pytest.param({"count": 3, **MIXTURE}, "count", id="count"),
    pytest.param(_one(seed=-1), "seed", id="seed-negative"),
    pytest.param(_one(n_speaker=2), "n_speaker", id="n_speaker"),
    pytest.param(_one(bogus=1), "bogus", id="mixtures.bogus"),
    pytest.param({"mixtures": dict(MIXTURE)}, "mixtures", id="mixtures-object"),
    pytest.param([MIXTURE], "spec", id="spec-list"),
    pytest.param(_one(n_speakers=2.5), "n_speakers", id="n_speakers-float"),
    pytest.param(_one(n_speakers=True), "n_speakers", id="n_speakers-bool"),
    pytest.param(_one(duration_s="5"), "duration_s", id="duration_s-str"),
    pytest.param(_one(duration_s=float("inf")), "duration_s", id="duration_s-inf"),
    pytest.param(_one(noise_snr_db=float("nan")), "noise_snr_db", id="noise_snr_db-nan"),
    pytest.param(_one(noise_snr_db=float("inf")), "noise_snr_db", id="noise_snr_db-inf"),
    pytest.param(_one(noise_snr_db=float("-inf")), "noise_snr_db",
                 id="noise_snr_db--inf"),
    pytest.param(_one(duration_s=float("nan")), "duration_s", id="duration_s-nan"),
    pytest.param(_one(duration_s=float("-inf")), "duration_s", id="duration_s--inf"),
    pytest.param(_one(overlap_ratio=float("nan")), "overlap_ratio",
                 id="overlap_ratio-nan"),
    pytest.param(_one(overlap_ratio=float("inf")), "overlap_ratio",
                 id="overlap_ratio-inf"),
    pytest.param(_one(overlap_ratio=float("-inf")), "overlap_ratio",
                 id="overlap_ratio--inf"),
    pytest.param({"mixtures": [MIXTURE], "duration_s": 30, "count": 5}, "duration_s",
                 id="mixtures-with-top-level-keys"),
    pytest.param({"mixtures": []}, "mixtures", id="mixtures-empty"),
    # a mixture that synthesis cannot make is refused, by its index, before any is written
    pytest.param({"mixtures": [dict(MIXTURE, seed=1),
                               dict(MIXTURE, n_speakers=1, overlap_ratio=0.2, seed=2)]},
                 "ConfigError: mixture 1: overlap_ratio must be 0 for one speaker, got 0.2",
                 id="one-speaker-overlap-after-a-valid-mixture"),
    pytest.param(_one(duration_s=1e305), "duration_s", id="duration_s-samples-inf"),
])
def test_synth_data_bad_spec_key_is_a_config_error(tmp_path, capsys, spec, key):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["synth-data", "--spec", str(spec_path), "--out", str(tmp_path / "data")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "ConfigError" in captured.err and key in captured.err
    assert "wrote" not in captured.out
    assert not (tmp_path / "data").exists()


def test_score_identical_files_prints_zero(dataset, capsys):
    rttm = next(dataset.glob("*.rttm"))
    assert main(["score", "--ref", str(rttm), "--hyp", str(rttm)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("DER 0.00")


def test_score_missing_file_exits_2(tmp_path, capsys):
    ref = tmp_path / "nope.rttm"
    assert main(["score", "--ref", str(ref), "--hyp", str(ref)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("collar", ["-1", "nan", "inf"])
def test_score_bad_collar_exits_1(tmp_path, capsys, collar):
    ref, hyp = tmp_path / "ref.rttm", tmp_path / "hyp.rttm"
    ref.write_text("SPEAKER f1 1 0.000 2.000 <NA> <NA> a <NA> <NA>\n")
    hyp.write_text("SPEAKER f1 1 0.500 1.000 <NA> <NA> x <NA> <NA>\n")
    rc = main(["score", "--ref", str(ref), "--hyp", str(hyp), "--collar", collar])
    assert rc == 1
    captured = capsys.readouterr()
    assert "ScoringError" in captured.err and "collar" in captured.err
    assert "DER" not in captured.out


@pytest.mark.parametrize("text", ["", "; comments only\n\n"])
def test_score_empty_reference_exits_1(tmp_path, capsys, text):
    ref, hyp = tmp_path / "ref.rttm", tmp_path / "hyp.rttm"
    ref.write_text(text)
    hyp.write_text("SPEAKER f1 1 0.500 1.000 <NA> <NA> x <NA> <NA>\n")
    assert main(["score", "--ref", str(ref), "--hyp", str(hyp)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "ScoringError" in captured.err and "no reference segments" in captured.err
    assert captured.out == ""


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["score", "--bogus", "x"])
    assert e.value.code == 2


def test_score_non_finite_rttm_exits_1(tmp_path, capsys):
    ref, bad = tmp_path / "ref.rttm", tmp_path / "hyp.rttm"
    ref.write_text("SPEAKER f1 1 0.000 2.000 <NA> <NA> a <NA> <NA>\n")
    bad.write_text("SPEAKER f1 1 0.000 inf <NA> <NA> a <NA> <NA>\n")
    assert main(["score", "--ref", str(ref), "--hyp", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "RttmParseError" in captured.err and ":1:" in captured.err
    assert "DER" not in captured.out


def test_score_time_too_large_to_round_exits_1(tmp_path, capsys):
    ref, far = tmp_path / "ref.rttm", tmp_path / "hyp.rttm"
    ref.write_text("SPEAKER f1 1 0.000 2.000 <NA> <NA> a <NA> <NA>\n")
    far.write_text("SPEAKER f1 1 1e300 1e295 <NA> <NA> a <NA> <NA>\n")
    assert main(["score", "--ref", str(ref), "--hyp", str(far)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "ScoringError" in captured.err and "1 ns" in captured.err
    assert captured.out == ""


def test_train_bad_dpcl_mode_is_a_config_error(dataset, tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(desk_train_config(dpcl_mode="bogus")))
    rc = main(["train", "--config", str(cfg_path), "--data", str(dataset),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "dpcl_mode" in captured.err
    assert "diverged" not in captured.out + captured.err


def test_train_on_a_directory_without_a_manifest_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(desk_train_config()))
    rc = main(["train", "--config", str(cfg_path), "--data", str(tmp_path),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {tmp_path / 'manifest.csv'} not found; run synth-data first"]


@pytest.mark.parametrize("override,key", [
    pytest.param({"bogus": 1}, "bogus", id="bogus"),
    pytest.param({"betas": [0.9, 0.999]}, "betas", id="betas"),
    pytest.param({"warmup_frac": 0.3}, "warmup_frac", id="warmup_frac"),
    pytest.param({"weight_decay": 0.01}, "weight_decay", id="weight_decay"),
    pytest.param({"model": dict(DESK_MODEL, depht=2)}, "depht", id="model.depht"),
    pytest.param({"weights": [1.0, 0.5, 0.1, 0.1, 0.1]}, "weights", id="weights5"),
    pytest.param({"batch_size": "2"}, "batch_size", id="batch_size-str"),
    pytest.param({"max_lr": "1e-3"}, "max_lr", id="max_lr-str"),
    pytest.param({"seed": "x"}, "seed", id="seed-str"),
    pytest.param({"epochs": 2.5}, "epochs", id="epochs-float"),
    pytest.param({"epochs": -1}, "epochs", id="epochs-negative"),
    pytest.param({"weight_decay": "0"}, "weight_decay", id="weight_decay-str"),
    pytest.param({"weight_decay": -5}, "weight_decay", id="weight_decay-negative"),
    pytest.param({"weights": "abc"}, "weights", id="weights-str"),
    pytest.param({"weights": [-1.0, 0.5, 0.1, 0.1]}, "weights", id="weights-negative"),
    pytest.param({"model": [1]}, "model", id="model-list"),
    pytest.param({"model": dict(DESK_MODEL, depth=2.7)}, "depth", id="model.depth-float"),
    pytest.param({"model": dict(DESK_MODEL, depth=True)}, "depth", id="model.depth-bool"),
    pytest.param({"val_count": "1"}, "val_count", id="val_count-str"),
    pytest.param({"val_count": -1}, "val_count", id="val_count-negative"),
    pytest.param({"val_count": 3}, "val_count", id="val_count-all"),
])
def test_train_bad_config_key_is_a_config_error(dataset, tmp_path, capsys, override, key):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(desk_train_config(**override)))
    rc = main(["train", "--config", str(cfg_path), "--data", str(dataset),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "ConfigError" in captured.err and key in captured.err
    assert "train done" not in captured.out


def test_train_config_not_an_object_is_a_config_error(dataset, tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text("[1, 2]")
    rc = main(["train", "--config", str(cfg_path), "--data", str(dataset),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "ConfigError" in captured.err and "train config" in captured.err
    assert "train done" not in captured.out


def test_train_short_manifest_row_names_the_line(dataset, tmp_path, capsys):
    manifest = dataset / "manifest.csv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join([*lines[:2], "mix_broken,only-two", *lines[2:]]) + "\n")
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(desk_train_config()))
    rc = main(["train", "--config", str(cfg_path), "--data", str(dataset),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"{manifest}:3:" in captured.err and "mix_broken" in captured.err
    assert "ManifestError" in captured.err
    assert "train done" not in captured.out


def test_train_names_a_wav_too_short_for_one_frame(dataset, tmp_path, capsys):
    wav = sorted(dataset.glob("*.wav"))[1]
    write_wav(wav, AudioClip(np.zeros(1319, dtype=np.float32)))
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(desk_train_config()))
    rc = main(["train", "--config", str(cfg_path), "--data", str(dataset),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: InsufficientAudioError: {wav}: 1319 samples < the 1320 "
        "that one output frame reads"]


def _header_only(dataset):
    manifest = dataset / "manifest.csv"
    manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
    return "lists no recordings"


def _rttm_of_other_recordings(dataset):
    # two file ids, neither of them the first row's, so no fallback applies
    rows = [r.split(",") for r in (dataset / "manifest.csv").read_text().splitlines()[1:]]
    (dataset / rows[0][2]).write_text("".join((dataset / r[2]).read_text() for r in rows[1:]))
    return f"no segments for id {rows[0][0]}"


def _one_row(row):
    def corrupt(dataset):
        manifest = dataset / "manifest.csv"
        manifest.write_text(manifest.read_text().splitlines()[0] + "\n" + row + "\n")
        return f"{manifest}:2: expected id,wav,rttm fields"
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _header_only, _rttm_of_other_recordings, _one_row("mix000040,,mix000040.rttm"),
    _one_row("mix000040,mix000040.wav,mix\0.rttm")],
    ids=["no-rows", "rttm-without-id", "empty-wav-name", "nul-in-rttm-name"])
def test_train_malformed_manifest_is_a_manifest_error(dataset, tmp_path, capsys, corrupt):
    message = corrupt(dataset)
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(desk_train_config()))
    rc = main(["train", "--config", str(cfg_path), "--data", str(dataset),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ManifestError: ") and message in captured.err
    assert "train done" not in captured.out


@pytest.mark.parametrize("text", [
    "mix000040,mix000040.wav,mix000040.rttm\nmix000041,mix000041.wav,mix000041.rttm\n",
    "wav,id,rttm\nmix000040,mix000040.wav,mix000040.rttm\n",
    "",
], ids=["headerless", "reordered", "empty"])
def test_manifest_without_its_header_is_a_manifest_error(tmp_path, text):
    # a first row taken for the header would drop that recording unseen
    (tmp_path / "manifest.csv").write_text(text)
    with pytest.raises(ManifestError, match=f"^{re.escape(str(tmp_path))}/manifest.csv:1: "
                                            "expected an id,wav,rttm header"):
        read_manifest(tmp_path)


def test_manifest_line_numbers_count_leading_blank_lines(tmp_path):
    # line 1 is the header, so blank lines before it make line 1 the fault
    (tmp_path / "manifest.csv").write_text("\n\nid,wav,rttm\nmix1,,x.rttm\n")
    with pytest.raises(ManifestError, match=f"^{re.escape(str(tmp_path))}/manifest.csv:1: "
                                            "expected an id,wav,rttm header, got ''"):
        read_manifest(tmp_path)
    (tmp_path / "manifest.csv").write_text("id,wav,rttm\nmix1,,x.rttm\n\n\n")
    with pytest.raises(ManifestError, match=f"^{re.escape(str(tmp_path))}/manifest.csv:2: "
                                            "expected id,wav,rttm fields"):
        read_manifest(tmp_path)


def _train_on(dataset, tmp_path, **cfg) -> int:
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(desk_train_config(epochs=0, **cfg)))
    return main(["train", "--config", str(cfg_path), "--data", str(dataset),
                 "--out", str(tmp_path / "run")])


def test_train_rttm_of_another_recording_is_a_manifest_error(dataset, tmp_path, capsys):
    # mix000041's labels under mix000040's name: one file id, but not this row's
    (dataset / "mix000040.rttm").write_text((dataset / "mix000041.rttm").read_text())
    assert _train_on(dataset, tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ManifestError: ")
    assert "id mix000040" in captured.err and "file id is mix000041" in captured.err
    assert "train done" not in captured.out


def test_train_accepts_an_rttm_named_by_the_wav_stem(dataset, tmp_path, capsys):
    # as `infer` writes it: the RTTM's only file id is the WAV's stem, not the row id
    manifest = dataset / "manifest.csv"
    header, *rows = manifest.read_text().splitlines()
    manifest.write_text("\n".join([header, *("take" + r[len("mix"):] for r in rows)]) + "\n")
    assert _train_on(dataset, tmp_path) == 0
    assert "train done" in capsys.readouterr().out


def test_train_zero_epochs_writes_checkpoint(dataset, tmp_path):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(desk_train_config(epochs=0, val_count=1)))
    out_dir = tmp_path / "run"
    rc = main(["train", "--config", str(cfg_path), "--data", str(dataset),
               "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "last.ckpt").exists()
    assert (out_dir / "best.ckpt").exists()
    assert (out_dir / "metrics.csv").read_text().startswith("step,epoch,split")


def test_train_without_validation_writes_no_best_ckpt(dataset, tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(desk_train_config()))
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(dataset),
                 "--out", str(out_dir)]) == 0
    assert "best_val=nan" in capsys.readouterr().out
    assert sorted(f.name for f in out_dir.iterdir()) == ["last.ckpt", "metrics.csv"]


def test_infer_writes_rttm(dataset, tmp_path):
    cfg = ModelConfig(**DESK_MODEL)
    params = init_model_params(cfg, np.random.default_rng(0))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, params, cfg)
    wav = next(dataset.glob("*.wav"))
    out_rttm = tmp_path / "hyp.rttm"
    rc = main(["infer", "--ckpt", str(ckpt), "--wav", str(wav),
               "--rttm", str(out_rttm)])
    assert rc == 0
    assert out_rttm.exists()


def test_infer_nan_threshold_exits_1(dataset, tmp_path, capsys):
    cfg = ModelConfig(**DESK_MODEL)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, init_model_params(cfg, np.random.default_rng(0)), cfg)
    out_rttm = tmp_path / "hyp.rttm"
    rc = main(["infer", "--ckpt", str(ckpt), "--wav", str(next(dataset.glob("*.wav"))),
               "--rttm", str(out_rttm), "--threshold", "nan"])
    assert rc == 1
    assert "ScoringError" in capsys.readouterr().err
    assert not out_rttm.exists()


@pytest.mark.parametrize("width", ["0", "-4"])
def test_infer_median_below_one_exits_1(dataset, tmp_path, capsys, width):
    cfg = ModelConfig(**DESK_MODEL)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, init_model_params(cfg, np.random.default_rng(0)), cfg)
    out_rttm = tmp_path / "hyp.rttm"
    rc = main(["infer", "--ckpt", str(ckpt), "--wav", str(next(dataset.glob("*.wav"))),
               "--rttm", str(out_rttm), "--median", width])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ScoringError" in err and "median" in err
    assert not out_rttm.exists()


def test_infer_wav_stem_with_a_space_exits_1(dataset, tmp_path, capsys):
    # the stem is the RTTM file id, and a space would split it into two fields
    cfg = ModelConfig(**DESK_MODEL)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, init_model_params(cfg, np.random.default_rng(0)), cfg)
    wav = tmp_path / "my rec.wav"
    wav.write_bytes(next(dataset.glob("*.wav")).read_bytes())
    out_rttm = tmp_path / "hyp.rttm"
    rc = main(["infer", "--ckpt", str(ckpt), "--wav", str(wav), "--rttm", str(out_rttm)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "RttmWriteError" in err[0] and "'my rec'" in err[0]
    assert not out_rttm.exists()


@pytest.mark.parametrize("flags,error,text", [
    pytest.param(["--threshold", "1.5"], "ScoringError", "threshold", id="threshold-1.5"),
    pytest.param(["--threshold", "nan"], "ScoringError", "threshold", id="threshold-nan"),
    pytest.param(["--median", "4"], "ScoringError", "median", id="median-4"),
    pytest.param(["--median", "0"], "ScoringError", "median", id="median-0"),
    pytest.param(["--median", "-3"], "ScoringError", "median", id="median--3"),
    pytest.param(["--wav", "my rec.wav"], "RttmWriteError", "'my rec'", id="wav-stem-space"),
])
def test_infer_bad_argument_is_refused_before_the_checkpoint_loads(tmp_path, capsys, flags,
                                                                   error, text):
    # neither the checkpoint nor the WAV exists: only the argument can be at fault
    out_rttm = tmp_path / "hyp.rttm"
    rc = main(["infer", "--ckpt", str(tmp_path / "missing.ckpt"), "--wav",
               str(tmp_path / "rec.wav"), "--rttm", str(out_rttm), *flags])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and error in err[0] and text in err[0]
    assert not out_rttm.exists()


def test_infer_corrupt_checkpoint_exits_1(dataset, tmp_path, capsys):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(b"{truncated json\n" + b"\x00" * 32)
    wav = next(dataset.glob("*.wav"))
    rc = main(["infer", "--ckpt", str(ckpt), "--wav", str(wav),
               "--rttm", str(tmp_path / "hyp.rttm")])
    assert rc == 1
    assert "SerializationError" in capsys.readouterr().err


def test_seed_env_variable_leaves_the_spec_seeds(tmp_path, monkeypatch):
    # a mixture's seed is set in its spec and nowhere else
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_one(seed=7)))
    monkeypatch.setenv("DIARNET_SEED", "123")
    assert main(["synth-data", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 0
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
        "manifest.csv", "mix000007.rttm", "mix000007.wav"]


def _write_float_wav(path, samples) -> None:
    """A float32 mono WAV at 8 kHz (write_wav writes PCM16, which has no NaN)."""
    payload = np.asarray(samples, dtype="<f4").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 8000, 32000, 4, 32)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)


def test_train_on_nan_audio_is_a_wav_format_error(dataset, tmp_path, capsys):
    wav = sorted(dataset.glob("*.wav"))[0]
    samples = load_wav(wav).samples.copy()
    samples[1000:1100] = np.nan
    _write_float_wav(wav, samples)
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(desk_train_config()))
    rc = main(["train", "--config", str(cfg_path), "--data", str(dataset),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "WavFormatError" in captured.err and wav.name in captured.err
    assert "diverged" not in captured.out + captured.err


def _subprocess_env() -> dict:
    """The environment, with this diarnet first on the import path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(diarnet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


def test_module_entry_point_prints_help():
    res = subprocess.run([sys.executable, "-m", "diarnet", "--help"], env=_subprocess_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0
    assert "synth-data" in res.stdout and "train" in res.stdout


def test_score_non_utf8_rttm_exits_1(tmp_path, capsys):
    ref, bad = tmp_path / "ref.rttm", tmp_path / "hyp.rttm"
    ref.write_text("SPEAKER f1 1 0.000 2.000 <NA> <NA> a <NA> <NA>\n")
    bad.write_bytes(b"SPEAKER f1 1 0.000 1.000 <NA> <NA> a <NA> <NA>\n"
                    b"SPEAKER f1 1 1.000 1.000 <NA> <NA> \xe9 <NA> <NA>\n")
    assert main(["score", "--ref", str(ref), "--hyp", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "RttmParseError" in captured.err and f"{bad}:2:" in captured.err
    assert captured.out == ""


def test_score_end_too_large_for_a_float_prints_one_line(tmp_path):
    # both times are finite, but the end 1e308 + 1e308 is not
    ref, far = tmp_path / "ref.rttm", tmp_path / "hyp.rttm"
    ref.write_text("SPEAKER f 1 0 1 <NA> <NA> s <NA> <NA>\n")
    far.write_text("SPEAKER f 1 1e308 1e308 <NA> <NA> s <NA> <NA>\n")
    res = subprocess.run([sys.executable, "-m", "diarnet", "score", "--ref", str(ref),
                          "--hyp", str(far)], env=_subprocess_env(), capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert res.stderr.startswith(f"error: RttmParseError: {far}:1: non-finite time field or end")


def test_score_call_imports_no_scipy(tmp_path):
    rttm = tmp_path / "ref.rttm"
    rttm.write_text("SPEAKER f 1 0.000 2.000 <NA> <NA> a <NA> <NA>\n")
    code = ("import sys, diarnet\n"
            "from diarnet import cli\n"
            "rc = cli.main(['score', '--ref', sys.argv[1], '--hyp', sys.argv[1]])\n"
            "print(rc, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    res = subprocess.run([sys.executable, "-c", code, str(rttm)], env=_subprocess_env(),
                         capture_output=True, text=True, timeout=120)
    assert res.stdout.splitlines()[-1] == "0 []", res.stdout + res.stderr


# argv: a fragment of the text the full parser prints for it
PARSER_CASES = {
    "no-arguments": ([], "required: command"),
    "-h": (["-h"], "{synth-data,train,infer,score}"),
    "--help": (["--help"], "diarize a WAV with a trained checkpoint"),
    "unknown-command": (["bogus"], "argument command: invalid choice"),
    **{f"{cmd}-help": ([cmd, "--help"], f"usage: diarnet {cmd}")
       for cmd in ("synth-data", "train", "infer", "score")},
    "missing-required-flag": (["train", "--config", "c.json", "--data", "d"],
                              "required: --out"),
    "non-integer-epochs": (["train", "--config", "c.json", "--data", "d", "--out", "o",
                            "--epochs", "x"], "unrecognized arguments: --epochs x"),
    "extra-positional": (["score", "--ref", "r.rttm", "--hyp", "h.rttm", "extra"],
                         "unrecognized arguments: extra"),
}


@pytest.mark.parametrize("case", sorted(PARSER_CASES))
def test_parser_text_matches_the_full_parser(capsys, case):
    # main parses with the parser built at import; its messages must equal
    # those of a freshly built one
    argv, fragment = PARSER_CASES[case]
    outcomes = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as e:
            parse(list(argv))
        outcomes.append((e.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert fragment in outcomes[0][1] + outcomes[0][2]


def _readme_commands() -> list[str]:
    """Every `diarnet ...` line of README's sh blocks, continuation lines
    joined and the brackets around optional flags dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "".join(block.split("```")[0] for block in readme.split("```sh")[1:])
    lines = blocks.replace("\\\n", " ").splitlines()
    return [line.replace("[", "").replace("]", "") for line in lines
            if line.startswith("diarnet ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {c.split()[1] for c in commands} == {"synth-data", "train", "infer", "score"}
    for command in commands:
        try:
            cli._PARSER.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def _score_argv(tmp_path) -> list:
    rttm = tmp_path / "ref.rttm"
    rttm.write_text("SPEAKER f 1 0.000 2.000 <NA> <NA> a <NA> <NA>\n")
    return ["score", "--ref", str(rttm), "--hyp", str(rttm)]


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_build)
    assert main(_score_argv(tmp_path)) == 0
    assert capsys.readouterr().out.startswith("DER 0.00")


def test_main_runs_after_a_call_that_exited(tmp_path, capsys):
    argv = _score_argv(tmp_path)
    assert main(argv) == 0
    first = capsys.readouterr()
    for bad in (["score", "--ref"], ["bogus"], ["score", "--help"]):
        with pytest.raises(SystemExit):
            main(bad)
        capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == first


def test_synth_data_refuses_mixtures_that_share_a_seed(tmp_path, capsys):
    # both would be written to mix000001.wav, and the manifest would list it twice
    spec_path = tmp_path / "spec.json"
    mixes = [dict(MIXTURE, seed=4), dict(MIXTURE, seed=1), dict(MIXTURE, seed=1, n_speakers=3)]
    spec_path.write_text(json.dumps({"mixtures": mixes}))
    out = tmp_path / "out"
    assert main(["synth-data", "--spec", str(spec_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and "1 and 2 share seed 1" in err
    assert not out.exists()


def test_failed_synth_data_leaves_no_earlier_manifest(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    out = tmp_path / "out"
    spec_path.write_text(json.dumps({"mixtures": [dict(MIXTURE, seed=2)]}))
    assert main(["synth-data", "--spec", str(spec_path), "--out", str(out)]) == 0
    assert (out / "manifest.csv").exists()
    # the second mixture cannot reach its overlap, after the first is written
    unreachable = dict(MIXTURE, seed=3, duration_s=6.0, overlap_ratio=0.97)
    spec_path.write_text(json.dumps({"mixtures": [dict(MIXTURE, seed=5), unreachable]}))
    assert main(["synth-data", "--spec", str(spec_path), "--out", str(out)]) == 1
    assert "GenerationError" in capsys.readouterr().err
    assert (out / "mix000005.wav").exists()
    assert not (out / "manifest.csv").exists()


@pytest.mark.parametrize("where,code,error", [
    pytest.param("no_such_dir/hyp.rttm", 2, "error: ", id="missing-directory"),
    pytest.param("a_file/hyp.rttm", 1, "error: NotADirectoryError: ", id="parent-is-a-file"),
    pytest.param("a_dir", 1, "error: IsADirectoryError: ", id="directory"),
])
def test_infer_refuses_an_unwritable_rttm_before_the_checkpoint_loads(tmp_path, capsys,
                                                                      monkeypatch, where,
                                                                      code, error):
    def no_load(*args):
        raise AssertionError("the checkpoint was loaded")

    monkeypatch.setattr(cli, "load_checkpoint", no_load)
    (tmp_path / "a_file").write_text("")
    (tmp_path / "a_dir").mkdir()
    rc = main(["infer", "--ckpt", str(tmp_path / "m.ckpt"), "--wav", str(tmp_path / "rec.wav"),
               "--rttm", str(tmp_path / where)])
    err = capsys.readouterr().err.splitlines()
    assert rc == code
    assert len(err) == 1 and err[0].startswith(error) and "AssertionError" not in err[0]


def test_infer_names_a_wav_too_short_for_one_frame_before_the_checkpoint_loads(
        tmp_path, capsys, monkeypatch):
    def no_load(*args):
        raise AssertionError("the checkpoint was loaded")

    monkeypatch.setattr(cli, "load_checkpoint", no_load)
    wav = tmp_path / "short.wav"
    write_wav(wav, AudioClip(np.zeros(1319, dtype=np.float32)))
    rc = main(["infer", "--ckpt", str(tmp_path / "m.ckpt"), "--wav", str(wav),
               "--rttm", str(tmp_path / "hyp.rttm")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == [f"error: InsufficientAudioError: {wav}: 1319 samples < the 1320 "
                   "that one output frame reads"]
