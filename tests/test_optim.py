import numpy as np
import numpy.testing as npt
import pytest

from mtvqa import autodiff as ad
from mtvqa.autodiff.optim import Nadam, SgdMomentum
from mtvqa.errors import TrainingError

from helpers import NadamReference, SgdMomentumReference, max_over_time_reference


def _param(value, name="p"):
    return ad.parameter(np.array(value, dtype=float), name)


def nadam_scalar_reference(p, g, steps, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Plain-float transcription of the update rule, kept independent of
    the array implementation."""
    m = v = 0.0
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        m_bar = b1 * m_hat + (1 - b1) * g / (1 - b1 ** t)
        p = p - lr * m_bar / (v_hat ** 0.5 + eps)
    return p


def test_nadam_zero_gradient_is_identity():
    p = _param([1.5, -2.0])
    opt = Nadam([p])
    p.grad[...] = np.zeros(2)
    opt.step()
    npt.assert_array_equal(p.data, [1.5, -2.0])


def test_nadam_single_step_matches_scalar_reference():
    p = _param([0.0])
    opt = Nadam([p], lr=1e-3)
    p.grad[...] = np.array([1.0])
    opt.step()
    npt.assert_allclose(p.data[0], nadam_scalar_reference(0.0, 1.0, 1), rtol=1e-12)


def test_nadam_three_steps_match_scalar_reference():
    p = _param([0.25])
    opt = Nadam([p], lr=5e-3)
    for _ in range(3):
        p.grad[...] = np.array([0.7])
        opt.step()
    npt.assert_allclose(p.data[0],
                        nadam_scalar_reference(0.25, 0.7, 3, lr=5e-3), rtol=1e-12)


def test_nadam_symmetry_across_identical_parameters():
    p1, p2 = _param([1.0], "p1"), _param([1.0], "p2")
    opt = Nadam([p1, p2])
    for _ in range(4):
        p1.grad[...] = np.array([0.3])
        p2.grad[...] = np.array([0.3])
        opt.step()
    npt.assert_array_equal(p1.data, p2.data)


def test_sgd_mu_zero_is_plain_gradient_descent():
    p = _param([2.0])
    opt = SgdMomentum([p], lr=0.5, momentum=0.0)
    p.grad[...] = np.array([1.0])
    opt.step()
    npt.assert_allclose(p.data, [1.5])


def test_sgd_zero_gradient_zero_velocity_is_identity():
    p = _param([3.0])
    opt = SgdMomentum([p], lr=0.1, momentum=0.9)
    p.grad[...] = np.zeros(1)
    opt.step()
    npt.assert_array_equal(p.data, [3.0])


def test_sgd_two_steps_hand_iteration():
    # lr=0.1, mu=0.9, constant gradient 1:
    #   v1 = -0.1,  p1 = p0 - 0.1
    #   v2 = 0.9*(-0.1) - 0.1 = -0.19, p2 = p1 - 0.19
    p = _param([1.0])
    opt = SgdMomentum([p], lr=0.1, momentum=0.9)
    for _ in range(2):
        p.grad[...] = np.array([1.0])
        opt.step()
    npt.assert_allclose(p.data, [1.0 - 0.1 - 0.19], rtol=1e-12)


@pytest.mark.parametrize("cls", [Nadam, SgdMomentum])
def test_non_finite_gradient_names_the_parameter(cls):
    p = _param([1.0], name="w_hidden")
    opt = cls([p])
    p.grad[...] = np.array([np.nan])
    with pytest.raises(TrainingError, match="w_hidden"):
        opt.step()


def test_shape_preservation():
    rng = np.random.default_rng(0)
    params = [_param(rng.normal(size=(3, 4)), "a"), _param(rng.normal(size=5), "b")]
    opt = Nadam(params)
    for p in params:
        p.grad[...] = rng.normal(size=p.data.shape)
    opt.step()
    assert params[0].data.shape == (3, 4)
    assert params[1].data.shape == (5,)


def _toy_problem(seed):
    """An embedding table whose padding row takes no gradient, an affine
    layer and a parameter no loss reaches, with a loss over a fresh batch
    per step."""
    rng = np.random.default_rng(seed)
    table = ad.parameter(rng.normal(size=(6, 3)), "embedding")
    params = [table, ad.parameter(rng.normal(size=(3, 4)), "w"),
              ad.parameter(rng.normal(size=4), "b"),
              ad.parameter(rng.normal(size=(2, 2)), "unused")]

    def loss(step):
        batch = np.random.default_rng(100 + step)
        ids = batch.integers(0, 6, size=(5, 2))
        ids[0] = 0
        pooled = max_over_time_reference(ad.embedding(table, ids))
        hidden = ad.tanh(ad.affine(pooled, params[1], params[2]))
        return ad.softmax_cross_entropy_masked(
            hidden, batch.integers(0, 4, size=(5, 1)), batch.random((5, 1)) < 0.8)

    return params, loss


@pytest.mark.parametrize("packed, reference, kw", [
    (Nadam, NadamReference, dict(lr=0.05)),
    (SgdMomentum, SgdMomentumReference, dict(lr=0.05, momentum=0.9)),
])
def test_packed_step_matches_the_per_parameter_loop_bit_for_bit(packed, reference, kw):
    params, loss = _toy_problem(3)
    ref_params, ref_loss = _toy_problem(3)
    opt, ref = packed(params, **kw), reference(ref_params, **kw)
    for step in range(5):
        opt.grad.fill(0.0)
        loss(step).backward()
        ad.zero_grads(ref_params)
        ref_loss(step).backward()
        assert ref_params[3].grad is None  # the unused parameter gets no gradient
        opt.step()
        ref.step()
        for p, r in zip(params, ref_params):
            assert p.data.tobytes() == r.data.tobytes(), (p.name, step)
    fresh = _toy_problem(3)[0]
    assert params[0].data[0].tobytes() == fresh[0].data[0].tobytes()  # padding row stays put
    assert params[3].data.tobytes() == fresh[3].data.tobytes()


def test_packing_makes_views_into_one_vector_and_keeps_values():
    rng = np.random.default_rng(1)
    values = [rng.normal(size=(2, 3)), rng.normal(size=4)]
    params = [_param(v, f"p{i}") for i, v in enumerate(values)]
    params[1].grad = np.full(4, 0.5)
    opt = SgdMomentum(params)
    npt.assert_array_equal(opt.data, np.concatenate([v.reshape(-1) for v in values]))
    npt.assert_array_equal(opt.grad, [0.0] * 6 + [0.5] * 4)
    params[0].grad[1, 2] = 7.0
    assert opt.grad[5] == 7.0
    opt.data[0] = -1.0
    assert params[0].data[0, 0] == -1.0


@pytest.mark.parametrize("cls", [Nadam, SgdMomentum])
def test_non_finite_gradient_in_a_later_parameter_names_it(cls):
    params = [_param([1.0, 2.0], "first"), _param([3.0], "second"), _param([4.0], "third")]
    opt = cls(params)
    params[1].grad[0] = np.inf
    with pytest.raises(TrainingError, match="second"):
        opt.step()
    npt.assert_array_equal(opt.data, [1.0, 2.0, 3.0, 4.0])  # nothing moved


@pytest.mark.parametrize("attr", ["grad", "data"])
def test_rebinding_a_packed_array_raises(attr):
    p = _param([1.0], "w_out")
    opt = Nadam([p])
    setattr(p, attr, np.array([0.5]))
    with pytest.raises(TrainingError, match="w_out.*rebound"):
        opt.step()
