"""Seeded byte-mutation fuzzing of the WAV, config-JSON, manifest and CLI
boundaries.

Each mutant truncates, overwrites, inserts or deletes a few bytes of a valid
file at a fixed-seed position (the AFL/libFuzzer recipe of the checkpoint
fuzz in `test_training.py`). Every mutant must load or raise its module's
typed error; any other exception is the fault looked for. RTTM and
checkpoint mutants of the readers themselves run in `test_rttm.py` and
`test_training.py`.
"""

import json
import re

import numpy as np
import pytest

from diarnet.cli import ManifestError, main, read_manifest
from diarnet.frontend import (AudioClip, ConfigError, InsufficientAudioError, WavFormatError,
                              WavParseError, from_json, load_wav, log_mel, write_wav)
from diarnet.model import ModelConfig, init_model_params
from diarnet.synth import MixtureSpec
from diarnet.training import TrainConfig, save_checkpoint

WAV_HEADER = 44                    # bytes of the header `write_wav` writes
# digits weigh more in JSON junk, so that more mutants stay JSON
JSON_JUNK = np.frombuffer(b'0123456789' * 4 + b'.-+eE,:"[]{} \n\x00\xff', np.uint8)
RTTM_JUNK = np.frombuffer(b"0123456789.-+e;SPEAKER<NA> \t\n\x00\xff", np.uint8)
ANY_BYTE = np.arange(256, dtype=np.uint8)


def _mutants(raw: bytes, n: int, seed: int, junk: np.ndarray, head: int = 0):
    """`n` fixed-seed mutants of `raw`, as (description, bytes). Mutant i
    truncates, overwrites, inserts or deletes (in turn) 1-8 bytes drawn from
    `junk`; with `head`, even mutants edit only the first `head` bytes."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        at = int(rng.integers(0, head if head and i % 2 == 0 else len(raw)))
        k = int(rng.integers(1, 9))
        kind = ("truncate", "overwrite", "insert", "delete")[i // 2 % 4]
        new = rng.choice(junk, k).tobytes()
        yield f"mutant {i} ({kind} {new!r} at byte {at})", {
            "truncate": raw[:at], "overwrite": raw[:at] + new + raw[at + k:],
            "insert": raw[:at] + new + raw[at:], "delete": raw[:at] + raw[at + k:]}[kind]


def _wav_bytes(tmp_path, seconds: float) -> bytes:
    rng = np.random.default_rng(7)
    p = tmp_path / "base.wav"
    write_wav(p, AudioClip(0.3 * rng.standard_normal(int(8000 * seconds)).astype(np.float32)))
    return p.read_bytes()


def test_wav_mutants_load_or_raise_a_wav_error(tmp_path):
    p = tmp_path / "mutant.wav"
    outcomes = {"loaded": 0, "refused": 0}
    for what, raw in _mutants(_wav_bytes(tmp_path, 4.0), 300, 2025, ANY_BYTE, WAV_HEADER):
        p.write_bytes(raw)
        try:
            log_mel(load_wav(p))
            outcomes["loaded"] += 1
        except (WavParseError, WavFormatError, InsufficientAudioError):
            outcomes["refused"] += 1
        except Exception as e:  # any other exception type is the fault looked for
            pytest.fail(f"{what} raised {e!r}")
    assert min(outcomes.values()) >= 50, outcomes


TRAIN_CONFIG = {"batch_size": 5, "epochs": 4, "max_lr": 2e-3, "crop_s": 15.0, "seed": 0,
                "weights": [1.0, 0.5, 0.1, 0.1], "dpcl_mode": "attractor",
                "model": {"depth": 2, "embed_dim": 64, "latte_dim": 32, "n_latents": 8,
                          "n_attractors": 4, "ff_expansion": 4, "conv_kernel": 9,
                          "heads": 4},
                "val_every": 25}
MIXTURE_SPEC = {"n_speakers": 3, "duration_s": 20.0, "overlap_ratio": 0.2,
                "noise_snr_db": 15.0, "seed": 11}


@pytest.mark.parametrize("base,decode", [
    pytest.param(TRAIN_CONFIG, TrainConfig.from_dict, id="train-config"),
    pytest.param(MIXTURE_SPEC, lambda d: from_json(MixtureSpec, d, "synth-data spec"),
                 id="synth-data-spec"),
])
def test_config_mutants_decode_or_raise_config_error(base, decode):
    # decode only: a mutant's epochs or duration_s is never run
    outcomes = {"decoded": 0, "refused": 0, "not JSON": 0}
    for what, raw in _mutants(json.dumps(base).encode(), 3000, 2026, JSON_JUNK):
        try:
            d = json.loads(raw)
        except ValueError:             # not JSON, nor UTF-8: the json module's error
            outcomes["not JSON"] += 1
            continue
        try:
            decode(d)
            outcomes["decoded"] += 1
        except ConfigError:
            outcomes["refused"] += 1
        except Exception as e:  # any other exception type is the fault looked for
            pytest.fail(f"{what} of {raw!r} raised {e!r}")
    assert min(outcomes.values()) >= 50, outcomes


MANIFEST = ("id,wav,rttm,duration_s,n_speakers\n"
            "mix000040,mix000040.wav,mix000040.rttm,8.000,2\n"
            "mix000041,mix000041.wav,mix000041.rttm,8.000,2\n")
MANIFEST_JUNK = np.frombuffer(b"mix0123456789.,wavrttm_\n\r \x00\xff", np.uint8)


def test_manifest_mutants_read_or_raise_manifest_error(tmp_path):
    p = tmp_path / "manifest.csv"
    outcomes = {"read": 0, "refused": 0}
    for what, raw in _mutants(MANIFEST.encode(), 300, 2029, MANIFEST_JUNK):
        p.write_bytes(raw)
        try:
            read_manifest(tmp_path)
            outcomes["read"] += 1
        except ManifestError:
            outcomes["refused"] += 1
        except Exception as e:  # any other exception type is the fault looked for
            pytest.fail(f"{what} of {raw!r} raised {e!r}")
    assert min(outcomes.values()) >= 50, outcomes


# a failing run prints one line naming the error; these are the typed ones
CLI_ERROR = re.compile(r"error: (WavParseError|WavFormatError|InsufficientAudioError|"
                       r"RttmParseError|ScoringError): [^\n]*\n")


def _run_cli(argv, capsys, what: str) -> int:
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc in (0, 1, 2), what
    if rc:
        assert CLI_ERROR.fullmatch(captured.err), f"{what}: {captured.err!r}"
    return rc


def test_cli_infer_on_wav_mutants(tmp_path, capsys):
    cfg = ModelConfig(depth=1, embed_dim=32, latte_dim=16, n_latents=2, n_attractors=2,
                      ff_expansion=2, conv_kernel=3, heads=2)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, init_model_params(cfg, np.random.default_rng(0)), cfg)
    wav, rttm = tmp_path / "mutant.wav", tmp_path / "hyp.rttm"
    argv = ["infer", "--ckpt", str(ckpt), "--wav", str(wav), "--rttm", str(rttm)]
    codes = []
    for what, raw in _mutants(_wav_bytes(tmp_path, 2.0), 120, 2027, ANY_BYTE, WAV_HEADER):
        wav.write_bytes(raw)
        codes.append(_run_cli(argv, capsys, what))
    assert 20 <= codes.count(0) <= 100, codes


# a mutant cut inside the leading comment holds no records: an empty reference
REF_RTTM = ("; reference speakers a and b\n"
            "SPEAKER f1 1 0.000 2.500 <NA> <NA> a <NA> <NA>\n"
            "SPEAKER f1 1 2.000 1.500 <NA> <NA> b <NA> <NA>\n"
            "SPEAKER f1 1 4.000 3.000 <NA> <NA> a <NA> <NA>\n")
HYP_RTTM = ("SPEAKER f1 1 0.100 2.300 <NA> <NA> x <NA> <NA>\n"
            "SPEAKER f1 1 3.900 3.200 <NA> <NA> y <NA> <NA>\n")


@pytest.mark.parametrize("side", ["ref", "hyp"])
def test_cli_score_on_rttm_mutants(tmp_path, capsys, side):
    valid, mutant = tmp_path / "valid.rttm", tmp_path / "mutant.rttm"
    valid.write_text(HYP_RTTM if side == "ref" else REF_RTTM)
    ref, hyp = (mutant, valid) if side == "ref" else (valid, mutant)
    argv = ["score", "--ref", str(ref), "--hyp", str(hyp)]
    codes = []
    for what, raw in _mutants((REF_RTTM if side == "ref" else HYP_RTTM).encode(), 300,
                              2028, RTTM_JUNK):
        mutant.write_bytes(raw)
        codes.append(_run_cli(argv, capsys, what))
    assert 50 <= codes.count(0) <= 250, codes
