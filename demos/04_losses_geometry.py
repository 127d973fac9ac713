# # The loss family: aligned BCE, clustering geometry, suppression
#
# Four components share one permutation alignment per example:
#   * detection BCE on the aligned slots, bias-only on unassigned slots,
#   * a deep-clustering Gram loss (activity- or attractor-built targets),
#   * orthogonality between active attractor directions,
#   * an MSE pulling unassigned directions to zero.

import numpy as np

import diarnet.autodiff as ad
from diarnet import (
    LabelMatrix,
    LossWeights,
    activity_dpcl_targets,
    pit_align,
    pit_align_bruteforce,
    tensor,
    total_loss,
)
from diarnet.model import ForwardResult

rng = np.random.default_rng(0)
T, S, E = 40, 4, 16

# ## Labels carry both conventions
#
# {+1,-1} for the clustering targets, {0,1} for the BCE, same matrix.

activity = rng.random((T, 2)) < 0.5
labels = LabelMatrix.from_activity(activity).pad_to(S)
print("active columns:", labels.active_columns, "of", labels.n_slots, "slots")

# ## Activity-built clustering targets saturate at opposite directions
#
# Rows of +-1 normalized by sqrt(S): equal speaker sets meet at Gram +1,
# complementary ones at -1 (not merely orthogonal).

lm = LabelMatrix(np.array([[1, -1], [1, -1], [-1, 1]]))
targets = activity_dpcl_targets(lm)
print("toy Gram:\n", np.round(targets @ targets.T, 3))

# ## One loss bundle end to end

frames = tensor(rng.standard_normal((T, E)).astype(np.float32), requires_grad=True)
dirs = tensor(rng.standard_normal((S, E)).astype(np.float32), requires_grad=True)
biases = tensor(np.zeros(S, dtype=np.float32), requires_grad=True)
b_global = tensor(np.zeros((), dtype=np.float32), requires_grad=True)
logits = ad.matmul(frames, dirs.transpose(1, 0)) + biases.reshape(1, -1) + b_global
result = ForwardResult(logits=logits, frames=frames, attractor_dirs=dirs,
                       attractor_biases=biases, global_bias=b_global)

bundle = total_loss(result, labels, weights=LossWeights(), mode="attractor")
print(f"bce {bundle.bce:.4f} | dpcl {bundle.dpcl:.4f} | ortho {bundle.ortho:.4f} "
      f"| suppress {bundle.suppress:.4f} -> total {bundle.total:.4f}")
print("assignment: columns", bundle.alignment.active_cols,
      "-> slots", bundle.alignment.slots)

# ## The fast assignment agrees with exhaustive search

fast = pit_align(logits.data, labels)
slow = pit_align_bruteforce(logits.data, labels)
print("shortest-augmenting-path cost == brute-force cost:", fast.cost == slow.cost)

# ## Unassigned slots are bias-only: no BCE gradient reaches their directions

bundle = total_loss(result, labels, weights=LossWeights(1, 0, 0, 0), mode="none")
bundle.total_tensor.backward()
unassigned = sorted(set(range(S)) - set(bundle.alignment.slots))
print("unassigned slots:", unassigned,
      "| max |grad| on their directions:",
      float(np.abs(dirs.grad[unassigned]).max()))
