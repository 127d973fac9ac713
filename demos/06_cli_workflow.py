# # The command-line workflow: synth-data -> train -> infer -> score
#
# The same pipeline as the library demos, driven through the four CLI
# subcommands against a scratch directory. Each call here is exactly what
# `diarnet <subcommand> ...` does in a shell.

import json
import tempfile
from pathlib import Path

from diarnet.cli import main

# the working directory and everything in it are removed when the demo ends
tmp = tempfile.TemporaryDirectory(prefix="diarnet_demo_")
root = Path(tmp.name)
print("working in", root)

# ## 1. synthesize a labeled dataset (WAV + reference RTTM + manifest)
#
# The spec is a list of mixtures; each one's seed draws its audio and names
# its files, mix000040.wav to mix000045.wav here.

spec = {"mixtures": [{"n_speakers": 2, "duration_s": 20.0, "overlap_ratio": 0.2,
                      "noise_snr_db": 15.0, "seed": seed} for seed in range(40, 46)]}
(root / "spec.json").write_text(json.dumps(spec, indent=2))
assert main(["synth-data", "--spec", str(root / "spec.json"),
             "--out", str(root / "data")]) == 0
print((root / "data" / "manifest.csv").read_text().strip().splitlines()[0])

# ## 2. train a small model on it (last recording held out for validation)
#
# Unassigned attractor slots predict from their bias alone during training,
# so clean inference needs the suppression loss to finish pulling their
# directions to zero: give the schedule its full length (about a minute).

config = {
    "batch_size": 3, "epochs": 300, "max_lr": 2e-3, "crop_s": 12.0, "seed": 7,
    "dpcl_mode": "attractor", "weights": [1.0, 0.5, 0.1, 0.1],
    "val_count": 1,
    "model": {"depth": 2, "embed_dim": 64, "latte_dim": 32, "n_latents": 8,
              "n_attractors": 4, "ff_expansion": 4, "conv_kernel": 9, "heads": 4},
}
(root / "train.json").write_text(json.dumps(config, indent=2))
assert main(["train", "--config", str(root / "train.json"),
             "--data", str(root / "data"), "--out", str(root / "run")]) == 0

# ## 3. diarize one of the recordings with the best checkpoint

wav = sorted((root / "data").glob("*.wav"))[0]
assert main(["infer", "--ckpt", str(root / "run" / "best.ckpt"),
             "--wav", str(wav), "--rttm", str(root / "hyp.rttm"),
             "--threshold", "0.5", "--median", "11"]) == 0

# ## 4. score the hypothesis against the generated reference

ref = wav.with_suffix(".rttm")
assert main(["score", "--ref", str(ref), "--hyp", str(root / "hyp.rttm"),
             "--collar", "0.25"]) == 0
tmp.cleanup()
