# # Training on synthetic mixtures and scoring the result
#
# A compact version of the end-to-end experiment: synthesize two-speaker
# mixtures with exact labels, train a small model for a couple of minutes,
# then score "who spoke when" with the collar-aware DER scorer.
#
# Expect one to two minutes of wall time on one core.

import numpy as np

from diarnet import (
    DiarizationHypothesis,
    LossWeights,
    MixtureSpec,
    ModelConfig,
    TrainConfig,
    aggregate_reports,
    der_score,
    posterior_to_segments,
    predict_probs,
    synth_mixture,
    train,
)


def reference(rec):
    """The exact timeline of a labeled recording, speakers named by label column."""
    return posterior_to_segments(rec.labels.y_01, median_w=1, file_id=rec.rec_id)


# ## Data: 10 train + 2 validation recordings, 60 s, 20% overlapped speech

train_specs = [MixtureSpec(n_speakers=2, duration_s=60.0, overlap_ratio=0.2,
                           noise_snr_db=15.0, seed=100 + i) for i in range(10)]
val_specs = [MixtureSpec(n_speakers=2, duration_s=60.0, overlap_ratio=0.2,
                         noise_snr_db=15.0, seed=900 + i) for i in range(2)]

# ## A desk-sized model: 2 blocks of width 64, 4 attractor slots

cfg = TrainConfig(
    batch_size=5, epochs=200, max_lr=2e-3, crop_s=15.0, seed=7,
    model=ModelConfig(depth=2, embed_dim=64, latte_dim=32, n_latents=8,
                      n_attractors=4, ff_expansion=4, conv_kernel=9, heads=4),
    weights=LossWeights(1.0, 0.5, 0.1, 0.1), dpcl_mode="attractor", val_every=50)

result = train(cfg, train_specs, val_specs)
rows = [r for r in result.history if r["split"] == "train"]
print(f"trained {len(rows)} steps in {result.wall_s:.0f}s; "
      f"loss {rows[0]['total']:.3f} -> {rows[-1]['total']:.4f}; "
      f"best val total {result.best_val:.4f}")

# ## Score every validation recording

reports = []
for spec in val_specs:
    rec = synth_mixture(spec)
    probs = predict_probs(rec.clip, result.params, cfg.model)
    hyp = posterior_to_segments(probs, threshold=0.5, median_w=11,
                                file_id=rec.rec_id)
    reports.append(der_score(reference(rec), hyp, collar_s=0.25))

combined = aggregate_reports(reports)
print("validation:", combined)

# Two fixed baselines put the number in context: saying nothing misses all
# speech (DER 100), and one speaker talking through the whole recording
# false-alarms the silences, misses the second voice of every overlap and
# confuses the speaker it is not mapped to.
val_recs = [synth_mixture(spec) for spec in val_specs]
silence = aggregate_reports([
    der_score(reference(r), DiarizationHypothesis(segments=[], file_id=r.rec_id))
    for r in val_recs])
one_speaker = aggregate_reports([
    der_score(reference(r), DiarizationHypothesis([(0.0, r.clip.duration_s, "all")],
                                                   file_id=r.rec_id))
    for r in val_recs])
print(f"silence baseline DER {silence.der:.1f}%, one-speaker baseline DER "
      f"{one_speaker.der:.1f}%  vs model {combined.der:.2f}%")
