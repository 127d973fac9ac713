"""Command-line surface: synth-data | train | infer | score.

Exit codes: 0 success, 2 usage errors / missing files, 1 runtime failures.
The DIARNET_SEED environment variable overrides config seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .frontend import load_wav, write_wav
from .model import predict_probs
from .rttm import read_rttm, write_rttm
from .scoring import DiarizationHypothesis, aggregate_reports, der_score, posterior_to_segments
from .synth import MixtureSpec, labels_from_segments, synth_mixture
from .training import TrainConfig, load_checkpoint, train


def _seed_override(seed: int) -> int:
    env = os.environ.get("DIARNET_SEED")
    return int(env) if env else seed


def _load_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth_data(args) -> int:
    spec = _load_json(Path(args.spec))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if "mixtures" in spec:
        mix_dicts = spec["mixtures"]
    else:
        count = int(spec.get("count", 1))
        base_seed = _seed_override(int(spec.get("seed", 0)))
        common = {k: spec[k] for k in ("n_speakers", "duration_s", "overlap_ratio",
                                       "noise_snr_db") if k in spec}
        mix_dicts = [dict(common, seed=base_seed + i) for i in range(count)]

    manifest_lines = ["id,wav,rttm,duration_s,n_speakers"]
    for d in mix_dicts:
        rec = synth_mixture(MixtureSpec(**d))
        wav_path = out / f"{rec.rec_id}.wav"
        rttm_path = out / f"{rec.rec_id}.rttm"
        write_wav(wav_path, rec.clip)
        segments = _segments_from_labels(rec)
        write_rttm(rttm_path, DiarizationHypothesis(segments=segments, file_id=rec.rec_id))
        manifest_lines.append(f"{rec.rec_id},{wav_path.name},{rttm_path.name},"
                              f"{rec.clip.duration_s:.3f},{rec.labels.n_speakers}")
        print(f"wrote {wav_path.name} ({rec.clip.duration_s:.1f}s)")
    (out / "manifest.csv").write_text("\n".join(manifest_lines) + "\n")
    return 0


def _segments_from_labels(rec) -> list:
    """Reference segments of a labeled recording, speakers named spk<i>."""
    y = rec.labels.y_01
    names = [f"spk{i}" for i in range(y.shape[1])]
    return posterior_to_segments(y, median_w=1, speaker_names=names).segments


def cmd_train(args) -> int:
    cfg_dict = _load_json(Path(args.config))
    if args.epochs is not None:
        cfg_dict["epochs"] = args.epochs
    val_count = int(cfg_dict.pop("val_count", 0))
    cfg = TrainConfig.from_dict(cfg_dict)
    cfg.seed = _seed_override(cfg.seed)

    data_dir = Path(args.data)
    manifest = data_dir / "manifest.csv"
    if not manifest.exists():
        raise FileNotFoundError(f"{manifest} not found; run synth-data first")
    rows = manifest.read_text().strip().splitlines()[1:]
    specs = []
    for row in rows:
        rec_id, wav_name, rttm_name = row.split(",")[:3]
        specs.append((rec_id, data_dir / wav_name, data_dir / rttm_name))
    if not specs:
        raise ValueError(f"{manifest} lists no recordings")
    val = specs[len(specs) - val_count:] if val_count else []
    tr = specs[:len(specs) - val_count] if val_count else specs

    train_recs = [_load_recording(*s) for s in tr]
    val_recs = [_load_recording(*s) for s in val]
    result = train(cfg, train_recs, val_recs, out_dir=Path(args.out))
    status = "diverged" if result.diverged else "done"
    print(f"train {status}: {len(result.history)} logged rows, "
          f"best_val={result.best_val:.6g}, wall={result.wall_s:.1f}s")
    return 1 if result.diverged else 0


def _load_recording(rec_id: str, wav_path: Path, rttm_path: Path):
    from .frontend import frame_count
    from .synth import LabeledRecording

    clip = load_wav(wav_path)
    hyps = read_rttm(rttm_path)
    if rec_id in hyps:
        segs = hyps[rec_id].segments
    elif len(hyps) == 1:
        segs = next(iter(hyps.values())).segments
    else:
        raise ValueError(f"{rttm_path}: no segments for id {rec_id}")
    labels, _ = labels_from_segments(segs, frame_count(len(clip.samples)))
    return LabeledRecording(clip=clip, labels=labels, rec_id=rec_id)


def cmd_infer(args) -> int:
    params, cfg = load_checkpoint(Path(args.ckpt))
    clip = load_wav(Path(args.wav))
    probs = predict_probs(clip, params, cfg)
    hyp = posterior_to_segments(probs, threshold=args.threshold,
                                median_w=args.median,
                                file_id=Path(args.wav).stem)
    write_rttm(Path(args.rttm), hyp)
    print(f"wrote {args.rttm}: {len(hyp.segments)} segments, "
          f"{len(hyp.speakers())} speakers")
    return 0


def cmd_score(args) -> int:
    refs = read_rttm(Path(args.ref))
    hyps = read_rttm(Path(args.hyp))
    if not refs:
        raise ValueError(f"{args.ref}: no reference segments")
    reports = []
    for file_id, ref in sorted(refs.items()):
        hyp = hyps.get(file_id, DiarizationHypothesis(segments=[], file_id=file_id))
        reports.append(der_score(ref, hyp, collar_s=args.collar))
    combined = aggregate_reports(reports)
    print(str(combined))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diarnet",
                                     description="desk-scale neural speaker diarization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate labeled synthetic mixtures")
    p.add_argument("--spec", required=True, help="JSON mixture spec")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("train", help="train on a synthesized dataset")
    p.add_argument("--config", required=True, help="JSON train config")
    p.add_argument("--data", required=True, help="dataset directory (manifest.csv)")
    p.add_argument("--out", required=True, help="output directory for checkpoints")
    p.add_argument("--epochs", type=int, default=None, help="override config epochs")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="diarize a WAV with a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--rttm", required=True, help="output RTTM path")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--median", type=int, default=11)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("score", help="score hypothesis RTTM against reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--collar", type=float, default=0.25)
    p.set_defaults(fn=cmd_score)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # one-line diagnostic, nonzero exit
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
