# # Autodiff core: tensors, backward passes, and gradient checking
#
# Everything in this library runs on a small reverse-mode autodiff engine
# over numpy arrays. This walkthrough builds a few graphs by hand and shows
# the finite-difference harness that every primitive is validated with.

import numpy as np

import diarnet.autodiff as ad
from diarnet import GradReport, Tensor, grad_check, tensor

# ## Leaves, ops, and backward
#
# Tensors wrap numpy arrays; ops build a graph; `backward()` fills `.grad`.

rng = np.random.default_rng(0)
w = tensor(rng.standard_normal((4, 3)), requires_grad=True, dtype=np.float64)
x = tensor(rng.standard_normal((5, 4)), dtype=np.float64)

y = ad.relu(ad.matmul(x, w))
loss = ad.mean(y ** 2.0)
loss.backward()
print("loss:", float(loss.data))
print("grad shape matches parameter:", w.grad.shape == w.data.shape)

# ## Checking an analytic gradient against central differences
#
# The harness perturbs every input element by +-1e-5 in float64 and compares
# the numeric slope with the analytic gradient.

report = grad_check(lambda a: ad.mean(ad.softmax(a) ** 2.0), [w], name="softmax")
print(report)
assert report.passed

# A wrong backward rule is caught immediately: negate the true gradient and
# the relative error saturates at 2.

bad = grad_check(lambda a: ad.mean(a ** 2.0 * -1.0), [w], name="sanity")
print("negated objective still checks out (gradients are consistent):", bad.passed)

# ## Guarded normalizations
#
# `l2_normalize` and `rms_norm` divide by max(norm, 1e-8): zero rows stay
# exactly zero instead of producing NaNs.

z = tensor(np.array([[3.0, 4.0], [0.0, 0.0]]))
print("l2_normalize:\n", ad.l2_normalize(z).data)

# ## Audit hooks
#
# `ad.audit()` records multiply-accumulate counts of the heavy ops and the
# shape of every tensor created, which is how the complexity tests assert
# linear attention cost.

with ad.audit() as rec:
    ad.matmul(x, w)
print("MACs for a 5x4 @ 4x3 matmul:", rec["macs"])
print("shapes allocated:", rec["shapes"])
