"""diarnet: desk-scale end-to-end neural speaker diarization.

A numpy-backed library covering the full path from raw audio to scored
diarization output: log-mel features, a CNN window encoder, conformer
decoder blocks with linear-cost latent attention and per-layer speaker
attractors, deep-clustering and detection losses with permutation-invariant
alignment, a synthetic-mixture training pipeline, and a collar-aware
DER/SAD scorer with RTTM interchange.
"""

from .autodiff import (
    NumericError,
    ShapeError,
    Tensor,
    audit,
    no_grad,
    tensor,
)
from .frontend import (
    AudioClip,
    cnn_encode,
    encode_clip,
    frame_count,
    load_wav,
    log_mel,
    window_stack,
    write_wav,
)
from .gradcheck import GradReport, grad_check
from .losses import (
    Alignment,
    CapacityError,
    LabelMatrix,
    LossBundle,
    LossWeights,
    activity_dpcl_targets,
    attractor_dpcl_targets,
    bce_with_suppression,
    dpcl_loss,
    ortho_loss,
    pit_align,
    pit_align_bruteforce,
    total_loss,
)
from .model import (
    ForwardResult,
    ModelConfig,
    attractor_decode,
    conformer_block,
    forward,
    init_model_params,
    latte_attention,
    param_count,
    predict_probs,
    sap_pool,
)
from .rttm import RttmParseError, RttmWriteError, read_rttm, write_rttm
from .scoring import (
    DerReport,
    DiarizationHypothesis,
    ScoringError,
    aggregate_reports,
    der_score,
    posterior_to_segments,
)
from .synth import (
    GenerationError,
    LabeledRecording,
    MixtureSpec,
    synth_mixture,
)
from .training import (
    AdamW,
    ScheduleError,
    TrainConfig,
    TrainResult,
    load_checkpoint,
    one_cycle_lr,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
