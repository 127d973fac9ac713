import json


import numpy as np
import pytest

from diarnet.cli import main
from diarnet.model import ModelConfig, init_model_params
from diarnet.rttm import read_rttm
from diarnet.training import TrainConfig, save_checkpoint


def desk_train_config(**kw) -> dict:
    cfg = TrainConfig(batch_size=2, epochs=1, max_lr=1e-3, crop_s=3.0, seed=0,
                      model=ModelConfig(depth=1, embed_dim=32, latte_dim=16,
                                        n_latents=2, n_attractors=2,
                                        ff_expansion=2, conv_kernel=3, heads=2))
    d = cfg.to_dict()
    d.update(kw)
    return d


@pytest.fixture()
def dataset(tmp_path):
    spec = {"count": 3, "n_speakers": 2, "duration_s": 8.0, "overlap_ratio": 0.2,
            "noise_snr_db": 15.0, "seed": 40}
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


def test_score_identical_files_prints_zero(dataset, capsys):
    rttm = next(dataset.glob("*.rttm"))
    assert main(["score", "--ref", str(rttm), "--hyp", str(rttm)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("DER 0.00")


def test_score_missing_file_exits_2(tmp_path, capsys):
    ref = tmp_path / "nope.rttm"
    assert main(["score", "--ref", str(ref), "--hyp", str(ref)]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["score", "--bogus", "x"])
    assert e.value.code == 2


def test_train_zero_epochs_writes_checkpoint(dataset, tmp_path):
    cfg_path = tmp_path / "train.json"
    cfg = desk_train_config(val_count=1)
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    rc = main(["train", "--config", str(cfg_path), "--data", str(dataset),
               "--out", str(out_dir), "--epochs", "0"])
    assert rc == 0
    assert (out_dir / "last.ckpt").exists()
    assert (out_dir / "best.ckpt").exists()
    assert (out_dir / "metrics.csv").read_text().startswith("step,epoch,split")


def test_infer_writes_rttm(dataset, tmp_path):
    cfg = ModelConfig(depth=1, embed_dim=32, latte_dim=16, n_latents=2,
                      n_attractors=2, ff_expansion=2, conv_kernel=3, heads=2)
    params = init_model_params(cfg, np.random.default_rng(0))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, params, cfg)
    wav = next(dataset.glob("*.wav"))
    out_rttm = tmp_path / "hyp.rttm"
    rc = main(["infer", "--ckpt", str(ckpt), "--wav", str(wav),
               "--rttm", str(out_rttm)])
    assert rc == 0
    assert out_rttm.exists()


def test_infer_corrupt_checkpoint_exits_1(dataset, tmp_path, capsys):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(b"{truncated json\n" + b"\x00" * 32)
    wav = next(dataset.glob("*.wav"))
    rc = main(["infer", "--ckpt", str(ckpt), "--wav", str(wav),
               "--rttm", str(tmp_path / "hyp.rttm")])
    assert rc == 1
    assert "SerializationError" in capsys.readouterr().err


def test_seed_env_override_changes_data(tmp_path, monkeypatch):
    spec = {"count": 1, "n_speakers": 2, "duration_s": 8.0, "overlap_ratio": 0.2,
            "noise_snr_db": 15.0, "seed": 7}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["synth-data", "--spec", str(spec_path), "--out", str(out_a)]) == 0
    monkeypatch.setenv("DIARNET_SEED", "123")
    assert main(["synth-data", "--spec", str(spec_path), "--out", str(out_b)]) == 0
    wav_a = next(out_a.glob("*.wav")).read_bytes()
    wav_b = next(out_b.glob("*.wav")).read_bytes()
    assert wav_a != wav_b
