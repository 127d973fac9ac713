"""diarnet: desk-scale end-to-end neural speaker diarization.

A numpy-backed library covering the full path from raw audio to scored
diarization output: log-mel features, a CNN window encoder, conformer
decoder blocks with linear-cost latent attention and per-layer speaker
attractors, deep-clustering and detection losses with permutation-invariant
alignment, a synthetic-mixture training pipeline, and a collar-aware
DER/SAD scorer with RTTM interchange.

The package root re-exports what the README quickstart and the demos
import; everything else is imported from its module (`diarnet.rttm`,
`diarnet.training`, ...).
"""

from .autodiff import Tensor, tensor
from .frontend import cnn_encode, frame_count, load_wav, log_mel, window_stack, write_wav
from .gradcheck import GradReport, grad_check
from .losses import (LabelMatrix, LossWeights, activity_dpcl_targets, pit_align,
                     pit_align_bruteforce, total_loss)
from .model import ModelConfig, forward, init_model_params, param_count, predict_probs
from .scoring import DiarizationHypothesis, aggregate_reports, der_score, posterior_to_segments
from .synth import MixtureSpec, synth_mixture
from .training import TrainConfig, train

__version__ = "0.1.0"
