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
    _is_tall,
    _row_sums,
    _TALL_ROWS_PER_CLASS,
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
# perfed_dirichlet100's widest model; its pool block is 2000 rows by 10 classes
POOL_MLP = ModelSpec(ARCH_MLP, dim=8, num_classes=10, hidden=24)


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

    @pytest.mark.parametrize("init_scale", [0.0, 0.05])
    @pytest.mark.parametrize(
        "arch, hidden",
        [(ARCH_SOFTMAX, 0), (ARCH_MLP, 16), (ARCH_MLP, 24), (ARCH_MLP, 12)],
        ids=["softmax_linear", "mlp", "heterogeneous_big", "heterogeneous_small"],
    )
    def test_matches_the_layout_drawn_in_order(self, arch, hidden, init_scale):
        d, n, h, s = 8, 10, hidden, init_scale
        spec = ModelSpec(arch, dim=d, num_classes=n, hidden=h, init_scale=s)
        for seed in (0, 9):
            rng = substream(seed, "param-init")
            if arch == ARCH_SOFTMAX:
                parts = [rng.uniform(-s, s, d * n), np.zeros(n)]
            else:
                parts = [rng.uniform(-s, s, d * h), np.zeros(h), rng.uniform(-s, s, h * n), np.zeros(n)]
            want = np.concatenate(parts)
            assert init_params(spec, seed).tobytes() == want.tobytes()

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
        # 2000 x 10 is perfed_dirichlet100's pool block; the others sit on
        # both sides of the tall layout's edge and on it
        edge = [(_TALL_ROWS_PER_CLASS * k + d, k) for k in (3, 10) for d in (-1, 0, 1)]
        shapes = [(50, 7), (2000, 10), *edge]
        assert {_is_tall(np.empty(shape)) for shape in shapes} == {False, True}
        for n, k in shapes:
            scores = substream(31, n).normal(0.0, 30.0, size=(n, k))
            special = {  # non-finite entries, and +0.0 and -0.0 tied at the max
                3: [np.inf] + [1.0] * (k - 1),
                11: [np.inf, -np.inf] + [0.5] * (k - 2),
                40: [-np.inf] + [2.0] * (k - 1),
                41: [-np.inf, 3.0, -np.inf] + [-1.0] * (k - 3),
                42: [np.nan] + [1.0] * (k - 1),
                43: [-np.inf] * k,
                44: [-0.0, 0.0] + [-1.0] * (k - 2),
                45: [0.0, -0.0] + [-1.0] * (k - 2),
                46: [-1.0] * (k - 2) + [-0.0, 0.0],
                47: [-0.0] * (k // 2) + [0.0] * (k - k // 2),
                n - 1: [5.0] * k,
            }
            for row, values in special.items():
                scores[row] = values
            before = scores.copy()
            with np.errstate(invalid="ignore"):
                got, want = stable_softmax(scores), reference_softmax(scores)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(scores, before, equal_nan=True)
            # a row is non-finite exactly when all of it is NaN
            bad = ~np.isfinite(want).all(axis=1)
            assert np.flatnonzero(bad).tolist() == [3, 11, 42, 43]
            assert np.isnan(want[bad]).all()

    @pytest.mark.parametrize("width", [3, 8, 16, 24, 129])
    def test_row_sums_match_the_row_reduce(self, width):
        # _row_sums on both sides of the tall edge, at widths that reach each
        # branch of numpy's pairwise order; a row of -0.0 sums to 0.0
        for rows in (_TALL_ROWS_PER_CLASS * width - 1, _TALL_ROWS_PER_CLASS * width):
            block = substream(37, width, rows).normal(0.0, 1e3, size=(rows, width))
            block[0] = -0.0
            before = block.copy()
            got = _row_sums(block)
            assert got.tobytes() == np.add.reduce(block, axis=1, keepdims=True).tobytes()
            assert got.shape == (rows, 1)
            assert block.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "spec, batch",
        [(SOFTMAX, 40), (MLP, 40), (SOFTMAX, 2000), (POOL_MLP, 2000)],
        ids=["softmax_linear", "mlp", "softmax_linear_pool", "mlp_pool"],
    )
    def test_forward_matches_reference(self, spec, batch):
        params, x, _, _, _ = random_instance(spec, substream(32, spec.arch), batch=batch)
        before = [params.copy(), x.copy()]
        out = forward_logits(spec, params, x)
        assert np.array_equal(out, reference_forward_logits(spec, params, x))
        for arr, old in zip([params, x], before):
            assert np.array_equal(arr, old)

    @pytest.mark.parametrize("spec", [SOFTMAX, POOL_MLP], ids=lambda s: s.arch)
    @pytest.mark.parametrize(
        "rows",
        [{7: np.inf}, {7: -np.inf}, {0: np.nan}, {1234: np.nan, 7: 0.0}, {1500: -np.inf, 0: np.inf}],
        ids=["inf", "neg_inf", "nan_first_row", "zero_row_then_nan", "two_bad_rows"],
    )
    def test_forward_nonfinite_rows_match_reference(self, spec, rows):
        params, x, _, _, _ = random_instance(spec, substream(36, spec.arch), batch=2000)
        for row, value in rows.items():
            x[row] = value
        with np.errstate(invalid="ignore", over="ignore"):
            want = reference_forward_logits(spec, params, x)
            with pytest.raises(NumericError) as err:
                forward_logits(spec, params, x)
        first_bad = np.flatnonzero(~np.isfinite(want).all(axis=1))[0]
        assert first_bad == min(row for row, value in rows.items() if value != 0.0)
        assert str(err.value) == f"non-finite model output at row {first_bad}"

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.arch)
    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("label_dtype", [np.int64, np.float64], ids=["int64", "float64"])
    def test_gradients_match_reference(self, spec, lam, label_dtype):
        rng = substream(33, spec.arch, int(lam * 10))
        # five steps' public mini-batches, then the monitor's 2000-row pool;
        # each without and with the public probabilities the caller holds
        for batch, public in [(9, 7)] * 5 + [(40, 2000)]:
            params, x, y, xp, sbar = random_instance(spec, rng, batch=batch, public=public)
            y = y.astype(label_dtype)
            probs = forward_logits(spec, params, xp)
            arrays = [params, x, y, xp, sbar, probs]
            before = [a.copy() for a in arrays]
            assert np.array_equal(
                grad_local(spec, params, x, y), reference_grad_local(spec, params, x, y)
            )
            want = reference_grad_phi(spec, params, x, y, xp, sbar, lam)
            for given in (None, probs):
                got = grad_phi_stochastic(spec, params, x, y, xp, sbar, lam, public_probs=given)
                assert np.array_equal(got, want)
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
