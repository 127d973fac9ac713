"""Finite-difference validation of analytic gradients.

Checks run in float64; central differences with a fixed step are unreliable
in float32, so callers should hand in float64 leaves (``grad_check`` casts
for them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad

H = 1e-5            # central-difference step
ABS_FLOOR = 1e-9    # a check passes when every absolute error is within this
REL_FLOOR = 1e-6    # relative error counts only where a gradient exceeds this


@dataclass
class GradReport:
    op_name: str
    max_rel_error: float
    max_abs_error: float
    passed: bool

    def __str__(self):
        flag = "ok" if self.passed else "FAIL"
        return (f"[{flag}] {self.op_name}: rel={self.max_rel_error:.3e} "
                f"abs={self.max_abs_error:.3e}")


def grad_check(fn, inputs, tol: float = 1e-5, name: str = "") -> GradReport:
    """Compare analytic gradients of ``fn(*inputs)`` against central differences.

    ``fn`` must return a scalar Tensor; supply a reduction if the op under
    test does not. Relative error is taken over elements whose gradient
    magnitude exceeds ``REL_FLOOR``; the report passes when the worst
    relative error is within ``tol`` or the worst absolute error is within
    ``ABS_FLOOR``.
    """
    leaves = [Tensor(np.asarray(t.data if isinstance(t, Tensor) else t, dtype=np.float64),
                     requires_grad=True) for t in inputs]
    out = fn(*leaves)
    if out.size != 1:
        raise ValueError("grad_check needs a scalar output; supply a reduction")
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else np.asarray(t.grad, dtype=np.float64)
                for t in leaves]

    max_rel = 0.0
    max_abs = 0.0
    with no_grad():
        for t, ga in zip(leaves, analytic):
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + H
                f_plus = float(fn(*leaves).data)
                flat[i] = orig - H
                f_minus = float(fn(*leaves).data)
                flat[i] = orig
                gn = (f_plus - f_minus) / (2.0 * H)
                a = ga.reshape(-1)[i]
                abs_err = abs(a - gn)
                max_abs = max(max_abs, abs_err)
                denom = max(abs(a), abs(gn))
                if denom >= REL_FLOOR:
                    max_rel = max(max_rel, abs_err / denom)

    passed = max_rel <= tol or max_abs <= ABS_FLOOR
    return GradReport(op_name=name or getattr(fn, "__name__", "fn"),
                      max_rel_error=max_rel, max_abs_error=max_abs, passed=passed)
