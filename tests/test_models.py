import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedckt.errors import NumericError
from fedckt.models import (
    ARCH_MLP,
    ARCH_SOFTMAX,
    ModelSpec,
    forward_logits,
    grad_local,
    grad_phi_stochastic,
    init_params,
    local_loss,
    objective_phi,
    param_count,
    save_params,
    stable_softmax,
)
from fedckt.rng import substream

from helpers import (
    finite_difference_gradient,
    max_relative_error,
    read_params,
    reference_forward_logits,
    reference_grad_local,
    reference_grad_phi,
    reference_softmax,
)

SOFTMAX = ModelSpec(ARCH_SOFTMAX, dim=10, num_classes=10)
MLP = ModelSpec(ARCH_MLP, dim=4, num_classes=3, hidden=8)

ALL_SPECS = [SOFTMAX, MLP]


def random_instance(spec, rng, batch=6, public=5):
    params = rng.normal(0, 0.7, param_count(spec))
    x = rng.normal(size=(batch, spec.dim))
    y = rng.integers(spec.num_classes, size=batch)
    sbar = rng.dirichlet(np.ones(spec.num_classes), size=public)
    xp = rng.normal(size=(public, spec.dim))
    return params, x, y, xp, sbar


class TestParamCount:
    def test_softmax_linear(self):
        assert param_count(SOFTMAX) == 110

    def test_mlp(self):
        assert param_count(MLP) == 4 * 8 + 8 + 8 * 3 + 3 == 67


class TestInit:
    def test_zero_scale_gives_uniform_rows(self):
        spec = ModelSpec(ARCH_SOFTMAX, dim=3, num_classes=4, init_scale=0.0)
        params = init_params(spec, seed=0)
        assert np.all(params == 0.0)
        probs = forward_logits(spec, params, np.ones((5, 3)))
        assert np.allclose(probs, 0.25)

    def test_same_seed_identical(self):
        assert np.array_equal(init_params(MLP, seed=4), init_params(MLP, seed=4))

    def test_biases_zero_weights_bounded(self):
        spec = ModelSpec(ARCH_MLP, dim=4, num_classes=3, hidden=8, init_scale=0.2)
        params = init_params(spec, seed=1)
        assert np.all(params[32:40] == 0.0)  # b1
        assert np.all(params[64:] == 0.0)  # b2
        assert np.all(np.abs(params) <= 0.2)


class TestForward:
    def test_analytic_softmax_row(self):
        probs = stable_softmax(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(probs, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_shift_invariance(self):
        scores = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
        assert np.allclose(stable_softmax(scores), stable_softmax(scores + 1000.0))

    def test_softmax_linear_is_softmax_of_affine_scores(self):
        spec = ModelSpec(ARCH_SOFTMAX, dim=2, num_classes=2)
        params = np.array([np.log(2.0), 0.0, 0.0, np.log(3.0), 0.0, 0.0])  # W row-major, b
        probs = forward_logits(spec, params, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(probs, [[2 / 3, 1 / 3], [1 / 4, 3 / 4], [2 / 5, 3 / 5]], atol=1e-12)

    def test_nonfinite_output_reported(self):
        params = init_params(SOFTMAX, 0)
        params[0] = np.inf
        with pytest.raises(NumericError, match="row"), np.errstate(invalid="ignore"):
            forward_logits(SOFTMAX, params, np.ones((2, SOFTMAX.dim)))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_simplex_invariant(self, seed):
        rng = substream(seed)
        for spec in (SOFTMAX, MLP):
            params = rng.normal(0, 2.0, param_count(spec))
            probs = forward_logits(spec, params, rng.normal(size=(4, spec.dim)))
            assert np.all(probs >= 0.0)
            assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)


class TestLocalLoss:
    def test_confident_correct_prediction_near_zero(self):
        spec = ModelSpec(ARCH_SOFTMAX, dim=2, num_classes=3)
        params = np.zeros(param_count(spec))
        params[6] = 1000.0  # bias of class 0
        loss = local_loss(spec, params, np.zeros((4, 2)), np.zeros(4, dtype=int))
        assert loss == 0.0

    def test_uniform_prediction_is_log_n(self):
        params = np.zeros(param_count(SOFTMAX))
        loss = local_loss(SOFTMAX, params, np.ones((7, 10)), np.arange(7) % 10)
        assert abs(loss - np.log(10)) < 1e-12



    def test_mean_negative_log_probability_of_the_label(self):
        spec = ModelSpec(ARCH_SOFTMAX, dim=1, num_classes=2)
        params = np.array([0.0, 0.0, np.log(3.0), 0.0])  # class-0 bias log 3: p = (3/4, 1/4)
        loss = local_loss(spec, params, np.zeros((2, 1)), np.array([0, 1]))
        assert abs(loss - (np.log(4 / 3) + np.log(4.0)) / 2) < 1e-12


class TestObjective:
    def test_lambda_zero_equals_local_loss(self):
        rng = substream(3)
        params, x, y, xp, sbar = random_instance(SOFTMAX, rng)
        assert objective_phi(SOFTMAX, params, x, y, xp, sbar, 0.0) == local_loss(
            SOFTMAX, params, x, y
        )

    def test_matching_target_adds_nothing(self):
        rng = substream(4)
        params, x, y, xp, _ = random_instance(MLP, rng)
        sbar = forward_logits(MLP, params, xp)
        assert objective_phi(MLP, params, x, y, xp, sbar, 2.0) == local_loss(MLP, params, x, y)

    def test_analytic_penalty_value(self):
        # uniform prediction vs one-hot target, N=2, one public row, lambda=1
        spec = ModelSpec(ARCH_SOFTMAX, dim=2, num_classes=2)
        params = np.zeros(param_count(spec))
        x = np.ones((1, 2))
        y = np.zeros(1, dtype=int)
        xp = np.ones((1, 2))
        sbar = np.array([[1.0, 0.0]])
        value = objective_phi(spec, params, x, y, xp, sbar, 1.0)
        assert abs(value - (local_loss(spec, params, x, y) + 0.5)) < 1e-12

    def test_never_below_local_loss(self):
        rng = substream(5)
        for spec in ALL_SPECS:
            for _ in range(5):
                params, x, y, xp, sbar = random_instance(spec, rng)
                lam = float(rng.uniform(0, 3))
                assert objective_phi(spec, params, x, y, xp, sbar, lam) >= local_loss(
                    spec, params, x, y
                ) - 1e-15


class TestGradient:
    def test_lambda_zero_equals_local_gradient(self):
        rng = substream(7)
        params, x, y, xp, sbar = random_instance(MLP, rng)
        g = grad_phi_stochastic(MLP, params, x, y, xp, sbar, 0.0)
        assert np.array_equal(g, grad_local(MLP, params, x, y))

    def test_stationary_regularizer_vanishes(self):
        rng = substream(8)
        params, x, y, xp, _ = random_instance(SOFTMAX, rng)
        sbar = forward_logits(SOFTMAX, params, xp)
        g = grad_phi_stochastic(SOFTMAX, params, x, y, xp, sbar, 1.5)
        assert np.allclose(g, grad_local(SOFTMAX, params, x, y), atol=1e-14)

    def test_finite_difference_mlp(self):
        rng = substream(9)
        params, x, y, xp, sbar = random_instance(MLP, rng)
        lam = 0.8
        analytic = grad_phi_stochastic(MLP, params, x, y, xp, sbar, lam)
        fd = finite_difference_gradient(
            lambda p: objective_phi(MLP, p, x, y, xp, sbar, lam), params
        )
        assert max_relative_error(analytic, fd) <= 1e-4

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.arch)
    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    def test_finite_difference_all_architectures(self, spec, lam):
        rng = substream(0, "fd", spec.arch, repr(lam))
        for _ in range(7):
            params, x, y, xp, sbar = random_instance(spec, rng)
            analytic = grad_phi_stochastic(spec, params, x, y, xp, sbar, lam)
            fd = finite_difference_gradient(
                lambda p: objective_phi(spec, p, x, y, xp, sbar, lam), params
            )
            assert max_relative_error(analytic, fd) <= 1e-4

    def test_descent_sanity(self):
        # a small exact-gradient step never increases the objective
        rng = substream(10)
        for spec in ALL_SPECS:
            for _ in range(5):
                params, x, y, xp, sbar = random_instance(spec, rng)
                lam = float(rng.uniform(0, 2))
                before = objective_phi(spec, params, x, y, xp, sbar, lam)
                g = grad_phi_stochastic(spec, params, x, y, xp, sbar, lam)
                after = objective_phi(spec, params - 1e-3 * g, x, y, xp, sbar, lam)
                assert after <= before + 1e-12

    def test_nonfinite_gradient_rejected(self):
        spec = ModelSpec(ARCH_SOFTMAX, dim=2, num_classes=2)
        params = np.zeros(param_count(spec))
        params[0] = np.nan
        with pytest.raises(NumericError):
            grad_phi_stochastic(
                spec,
                params,
                np.ones((2, 2)),
                np.zeros(2),
                np.ones((1, 2)),
                np.full((1, 2), 0.5),
                1.0,
            )


class TestReferenceKernels:
    """The kernels against the out-of-place copies in helpers: equal bit for
    bit, with every input array left as it was."""

    def test_softmax_matches_reference(self):
        scores = substream(31).normal(0.0, 30.0, size=(50, 7))
        before = scores.copy()
        assert np.array_equal(stable_softmax(scores), reference_softmax(scores))
        assert np.array_equal(scores, before)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.arch)
    def test_forward_matches_reference(self, spec):
        params, x, _, _, _ = random_instance(spec, substream(32, spec.arch), batch=40)
        before = [params.copy(), x.copy()]
        out = forward_logits(spec, params, x)
        assert np.array_equal(out, reference_forward_logits(spec, params, x))
        for arr, old in zip([params, x], before):
            assert np.array_equal(arr, old)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.arch)
    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("label_dtype", [np.int64, np.float64], ids=["int64", "float64"])
    def test_gradients_match_reference(self, spec, lam, label_dtype):
        rng = substream(33, spec.arch, int(lam * 10))
        for _ in range(5):
            params, x, y, xp, sbar = random_instance(spec, rng, batch=9, public=7)
            y = y.astype(label_dtype)
            arrays = [params, x, y, xp, sbar]
            before = [a.copy() for a in arrays]
            assert np.array_equal(
                grad_local(spec, params, x, y), reference_grad_local(spec, params, x, y)
            )
            assert np.array_equal(
                grad_phi_stochastic(spec, params, x, y, xp, sbar, lam),
                reference_grad_phi(spec, params, x, y, xp, sbar, lam),
            )
            for arr, old in zip(arrays, before):
                assert np.array_equal(arr, old)


class TestSerialization:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.arch)
    def test_roundtrip(self, tmp_path, spec):
        params = init_params(spec, seed=11) + 0.123
        path = tmp_path / "params.bin"
        with open(path, "wb") as fh:
            save_params(fh, spec, params)
        tag, loaded = read_params(path)
        assert tag == {ARCH_SOFTMAX: 2, ARCH_MLP: 3}[spec.arch]
        assert np.array_equal(loaded, params)

    def test_header_is_sixteen_bytes(self, tmp_path):
        path = tmp_path / "params.bin"
        spec = ModelSpec(ARCH_SOFTMAX, dim=1, num_classes=2)
        with open(path, "wb") as fh:
            save_params(fh, spec, np.array([1.0, 2.0, 3.0, 4.0]))
        blob = path.read_bytes()
        assert len(blob) == 16 + 4 * 8
        assert blob[:4] == b"FKPV"
