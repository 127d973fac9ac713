import numpy as np
import pytest

from diarnet.gradcheck import grad_check
from diarnet.autodiff import Tensor, _make, matmul, mean, rms_norm, tensor


def test_linear_function_is_essentially_exact():
    x = tensor(np.array([1.0, 2.0, -3.0]), requires_grad=True, dtype=np.float64)
    rep = grad_check(lambda u: mean(u * 3.0), [x], tol=1e-5, name="3x")
    assert rep.passed
    assert rep.max_rel_error < 1e-9


def test_composed_rms_norm_matmul():
    rng = np.random.default_rng(42)
    a = tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
    b = tensor(rng.standard_normal((4, 4)), requires_grad=True, dtype=np.float64)
    g = tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
    rep = grad_check(lambda u, v, w: mean(rms_norm(matmul(u, v), w) ** 2.0),
                     [a, b, g], tol=1e-5, name="rms_norm.matmul")
    assert rep.passed, str(rep)


def _negated_square(x: Tensor) -> Tensor:
    # A deliberately wrong op: forward x**2 but backward -2x.
    xv = x.data
    out = xv * xv

    def bwd(g):
        return (-2.0 * xv * g,)

    return _make(out, (x,), bwd)


def test_wrong_gradient_rule_fails():
    x = tensor(np.array([0.7, -1.3]), requires_grad=True, dtype=np.float64)
    rep = grad_check(lambda u: mean(_negated_square(u)), [x], name="negated")
    assert not rep.passed


@pytest.mark.parametrize("op,flag", [(lambda u: u * u, "[ok] sq: rel="),
                                     (_negated_square, "[FAIL] sq: rel=")], ids=["ok", "fail"])
def test_report_text_opens_with_its_verdict(op, flag):
    x = tensor(np.array([0.7, -1.3]), requires_grad=True, dtype=np.float64)
    assert str(grad_check(lambda u: mean(op(u)), [x], name="sq")).startswith(flag)


def test_non_scalar_output_rejected():
    x = tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with pytest.raises(ValueError):
        grad_check(lambda u: u * 2.0, [x])
