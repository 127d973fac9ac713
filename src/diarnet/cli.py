"""Command-line surface: synth-data | train | infer | score.

Exit codes: 0 success, 2 usage errors / missing files, 1 runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .frontend import ConfigError, checked_frame_count, from_json, load_wav, write_wav
from .model import predict_probs
from .rttm import check_field, read_rttm, write_rttm
from .scoring import (DiarizationHypothesis, ScoringError, aggregate_reports,
                      check_segment_options, der_score, posterior_to_segments)
from .synth import LabeledRecording, MixtureSpec, labels_from_segments, synth_mixture
from .training import TrainConfig, load_checkpoint, train


class ManifestError(ValueError):
    """A dataset manifest, or an RTTM it names, that does not list its recordings."""


def _load_json(path: Path, where: str) -> dict:
    with open(path) as f:
        d = json.load(f)
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    return d


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth_data(args) -> int:
    spec = _load_json(Path(args.spec), "synth-data spec")
    mixes = spec.pop("mixtures", None)
    if spec:
        raise ConfigError(f"a synth-data spec holds only a mixtures list, got {sorted(spec)}")
    if not isinstance(mixes, list):
        raise ConfigError(f"mixtures must be a list, got {mixes!r}")
    specs = [from_json(MixtureSpec, d, "mixture") for d in mixes]
    seen = {}    # seed: the first mixture with it; a mixture's seed names its files
    for i, mix in enumerate(specs):
        if seen.setdefault(mix.seed, i) != i:
            raise ConfigError(f"mixtures {seen[mix.seed]} and {i} share seed {mix.seed}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # a manifest left by an earlier run must not list this one's files
    (out / "manifest.csv").unlink(missing_ok=True)
    manifest_lines = ["id,wav,rttm,duration_s,n_speakers"]
    for mix in specs:
        rec = synth_mixture(mix)
        wav_path = out / f"{rec.rec_id}.wav"
        rttm_path = out / f"{rec.rec_id}.rttm"
        write_wav(wav_path, rec.clip)
        write_rttm(rttm_path, _reference(rec))
        manifest_lines.append(f"{rec.rec_id},{wav_path.name},{rttm_path.name},"
                              f"{rec.clip.duration_s:.3f},{rec.labels.n_speakers}")
        print(f"wrote {wav_path.name} ({rec.clip.duration_s:.1f}s)")
    (out / "manifest.csv").write_text("\n".join(manifest_lines) + "\n")
    return 0


def _reference(rec) -> DiarizationHypothesis:
    """Reference timeline of a labeled recording, speakers named spk<i>."""
    y = rec.labels.y_01
    names = [f"spk{i}" for i in range(y.shape[1])]
    return posterior_to_segments(y, median_w=1, file_id=rec.rec_id, speaker_names=names)


def _segments_from_labels(rec) -> list:
    """The (start_s, end_s, speaker) triples of `_reference(rec)`; the
    acceptance suite scores against them."""
    return _reference(rec).segments


def read_manifest(data_dir: Path) -> list[tuple[str, Path, Path]]:
    """The (id, wav path, rttm path) rows of `data_dir`/manifest.csv, whose
    first line is an id,wav,rttm,... header. A malformed manifest is a ManifestError."""
    manifest = data_dir / "manifest.csv"
    if not manifest.exists():
        raise FileNotFoundError(f"{manifest} not found; run synth-data first")
    try:
        text = manifest.read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise ManifestError(f"{manifest}: not UTF-8 text: {e}") from e
    header, *rows = text.rstrip().splitlines() or [""]
    if header.split(",")[:3] != ["id", "wav", "rttm"]:
        raise ManifestError(f"{manifest}:1: expected an id,wav,rttm header, got {header!r}")
    specs = []
    for line, row in enumerate(rows, start=2):
        fields = row.split(",")[:3]
        # an empty file name names the directory; no path holds a NUL byte
        if len(fields) < 3 or not all(fields[1:]) or "\0" in "".join(fields):
            raise ManifestError(f"{manifest}:{line}: expected id,wav,rttm fields, got {row!r}")
        rec_id, wav_name, rttm_name = fields
        specs.append((rec_id, data_dir / wav_name, data_dir / rttm_name))
    if not specs:
        raise ManifestError(f"{manifest} lists no recordings")
    return specs


def cmd_train(args) -> int:
    cfg_dict = _load_json(Path(args.config), "train config")
    val_count = cfg_dict.pop("val_count", 0)    # a setting that no config class holds
    if isinstance(val_count, bool) or not isinstance(val_count, int) or val_count < 0:
        raise ConfigError(f"val_count must be a non-negative integer, got {val_count!r}")
    cfg = TrainConfig.from_dict(cfg_dict)

    specs = read_manifest(Path(args.data))
    n_train = len(specs) - val_count
    if n_train < 1:
        raise ConfigError(f"val_count {val_count} leaves none of the {len(specs)} "
                          "recordings for training")

    # generators: train() keeps only the features, so each WAV is freed
    # once its log-mel is made
    train_recs = (_load_recording(*s) for s in specs[:n_train])
    val_recs = (_load_recording(*s) for s in specs[n_train:])
    result = train(cfg, train_recs, val_recs, out_dir=Path(args.out))
    status = "diverged" if result.diverged else "done"
    print(f"train {status}: {len(result.history)} logged rows, "
          f"best_val={result.best_val:.6g}, wall={result.wall_s:.1f}s")
    return 1 if result.diverged else 0


def _load_recording(rec_id: str, wav_path: Path, rttm_path: Path):
    clip = load_wav(wav_path)
    hyps = read_rttm(rttm_path)
    # an RTTM of one file may name it by the WAV's stem, as `infer` writes it
    timeline = hyps.get(rec_id, hyps.get(wav_path.stem) if len(hyps) == 1 else None)
    if timeline is None:
        found = f"its only file id is {next(iter(hyps))}" if len(hyps) == 1 else (
            f"it holds {len(hyps)} file ids")
        raise ManifestError(f"{rttm_path}: no segments for id {rec_id} ({found})")
    labels, _ = labels_from_segments(timeline, checked_frame_count(len(clip.samples), wav_path))
    return LabeledRecording(clip=clip, labels=labels, rec_id=rec_id)


def cmd_infer(args) -> int:
    file_id = Path(args.wav).stem
    # refuse bad settings, an unwritable RTTM path or file id, and short audio before loading
    check_segment_options(args.threshold, args.median)
    check_field(args.rttm, "file id", file_id)
    rttm = Path(args.rttm)
    os.scandir(rttm.parent).close()    # raises as open would for a bad directory
    if rttm.is_dir():
        raise IsADirectoryError(f"{rttm} is a directory")
    clip = load_wav(Path(args.wav))
    checked_frame_count(len(clip.samples), args.wav)
    probs = predict_probs(clip, *load_checkpoint(Path(args.ckpt)))
    hyp = posterior_to_segments(probs, threshold=args.threshold,
                                median_w=args.median, file_id=file_id)
    write_rttm(rttm, hyp)
    print(f"wrote {args.rttm}: {len(hyp)} segments, {len(hyp.names)} speakers")
    return 0


def cmd_score(args) -> int:
    refs = read_rttm(Path(args.ref))
    hyps = read_rttm(Path(args.hyp))
    if not refs:
        raise ScoringError(f"{args.ref}: no reference segments")
    reports = []
    for file_id, ref in sorted(refs.items()):
        hyp = hyps.get(file_id, DiarizationHypothesis(file_id=file_id))
        reports.append(der_score(ref, hyp, collar_s=args.collar))
    combined = aggregate_reports(reports)
    print(str(combined))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# name: (handler, help, the subcommand's arguments)
_COMMANDS = {
    "synth-data": (cmd_synth_data, "generate labeled synthetic mixtures", [
        ("--spec", {"required": True, "help": "JSON mixture spec"}),
        ("--out", {"required": True, "help": "output directory"})]),
    "train": (cmd_train, "train on a synthesized dataset", [
        ("--config", {"required": True, "help": "JSON train config"}),
        ("--data", {"required": True, "help": "dataset directory (manifest.csv)"}),
        ("--out", {"required": True, "help": "output directory for checkpoints"})]),
    "infer": (cmd_infer, "diarize a WAV with a trained checkpoint", [
        ("--ckpt", {"required": True}),
        ("--wav", {"required": True}),
        ("--rttm", {"required": True, "help": "output RTTM path"}),
        ("--threshold", {"type": float, "default": 0.5}),
        ("--median", {"type": int, "default": 11})]),
    "score": (cmd_score, "score hypothesis RTTM against reference", [
        ("--ref", {"required": True}),
        ("--hyp", {"required": True}),
        ("--collar", {"type": float, "default": 0.25})]),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = argparse.ArgumentParser(prog="diarnet",
                                     description="desk-scale neural speaker diarization")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


# built once per process: parse_args leaves a parser as it found it
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # one-line diagnostic, nonzero exit
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
