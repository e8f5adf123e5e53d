import math

import numpy as np
import pytest

from cluster_mlp import mlp
from cluster_mlp.dataset import Dataset, NormalizationParams, apply_normalization, fit_normalization
from cluster_mlp.mlp import (
    MlpModel,
    NetworkSpec,
    NumericalError,
    TrainConfig,
    flatten,
    forward,
    init_model,
    lbfgs_minimize,
    load_model,
    loss_and_gradient,
    predict,
    save_model,
    train,
    unflatten,
)

IDENTITY_NORM = NormalizationParams(
    center=np.zeros(2), scale=np.ones(2), target_center=0.0, target_scale=1.0
)


def make_ds(features, targets):
    features = np.asarray(features, dtype=float)
    return Dataset(
        features=features,
        targets=np.asarray(targets, dtype=float),
        feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
        row_ids=tuple(str(i) for i in range(features.shape[0])),
    )


def identity_norm(d):
    return NormalizationParams(
        center=np.zeros(d), scale=np.ones(d), target_center=0.0, target_scale=1.0
    )


def plain_loss_and_gradient(theta, xs, ys):
    """The objective as plain out-of-place expressions on the layers that
    unflatten copies out of theta: the reference that loss_and_gradient must
    match bit for bit."""
    n, d = xs.shape
    m = unflatten(theta, NetworkSpec(d, (theta.size - 1) // (d + 2)), identity_norm(d))
    h = np.tanh(xs @ m.w1.T + m.b1)
    pred = h @ m.w2 + m.b2
    resid = pred - ys
    loss = float(0.5 * np.mean(resid**2))
    d_pred = resid / n
    g_w2 = h.T @ d_pred
    g_b2 = float(d_pred.sum())
    d_h = np.outer(d_pred, m.w2) * (1.0 - h**2)
    g_w1 = d_h.T @ xs
    g_b1 = d_h.sum(axis=0)
    return loss, np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])


def finite_difference_grad(theta, xs, ys, h=1e-6):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += h
        minus = theta.copy()
        minus[i] -= h
        lp, _ = loss_and_gradient(plus, xs, ys)
        lm, _ = loss_and_gradient(minus, xs, ys)
        grad[i] = (lp - lm) / (2 * h)
    return grad


class TestInitModel:
    def test_shapes_18_9_1(self):
        m = init_model(NetworkSpec(18, 9), seed=0)
        assert m.w1.shape == (9, 18)
        assert m.w2.shape == (9,)
        assert m.b1.shape == (9,)

    def test_deterministic(self):
        a = init_model(NetworkSpec(4, 3), seed=7)
        b = init_model(NetworkSpec(4, 3), seed=7)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)

    def test_weight_bounds(self):
        m = init_model(NetworkSpec(10, 6), seed=1)
        assert np.all(np.abs(m.w1) <= math.sqrt(6.0 / 16))
        assert np.all(np.abs(m.w2) <= math.sqrt(6.0 / 7))
        assert np.all(m.b1 == 0.0) and m.b2 == 0.0


class TestForward:
    def test_zero_weights_gives_output_bias(self):
        m = MlpModel(
            w1=np.zeros((3, 2)), b1=np.zeros(3), w2=np.zeros(3), b2=4.2, norm=IDENTITY_NORM
        )
        assert forward(m, [1.0, -5.0]) == 4.2

    def test_hand_evaluated_value(self):
        # 2:2:1, all weights 0.5, biases 0, x=(1,1): 0.5*(tanh(1)+tanh(1))
        m = MlpModel(
            w1=np.full((2, 2), 0.5), b1=np.zeros(2), w2=np.full(2, 0.5), b2=0.0,
            norm=IDENTITY_NORM,
        )
        assert forward(m, [1.0, 1.0]) == pytest.approx(math.tanh(1.0), abs=1e-12)
        assert forward(m, [1.0, 1.0]) == pytest.approx(0.7615941559557649, abs=1e-12)

    def test_continuity(self):
        m = init_model(NetworkSpec(2, 3), seed=0)
        x = np.array([0.3, -0.4])
        delta = np.array([1e-6, -1e-6])
        assert abs(forward(m, x + delta) - forward(m, x)) < 1e-4

    def test_dimension_mismatch(self):
        m = init_model(NetworkSpec(2, 3), seed=0)
        with pytest.raises(ValueError):
            forward(m, [1.0, 2.0, 3.0])


class TestLossAndGradient:
    def test_exact_fit_zeroes_everything(self):
        m = MlpModel(
            w1=np.zeros((3, 2)), b1=np.zeros(3), w2=np.zeros(3), b2=1.5, norm=IDENTITY_NORM
        )
        xs = np.random.default_rng(0).normal(size=(4, 2))
        ys = np.full(4, 1.5)
        loss, grad = loss_and_gradient(flatten(m), xs, ys)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(9)
        spec = NetworkSpec(3, 4)
        theta = flatten(init_model(spec, seed=2))
        xs = rng.normal(size=(5, 3))
        ys = rng.normal(size=5)
        _, grad = loss_and_gradient(theta, xs, ys)
        fd = finite_difference_grad(theta, xs, ys)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-5

    def test_sample_duplication_invariance(self):
        rng = np.random.default_rng(3)
        theta = flatten(init_model(NetworkSpec(2, 3), seed=1))
        xs = rng.normal(size=(6, 2))
        ys = rng.normal(size=6)
        loss1, grad1 = loss_and_gradient(theta, xs, ys)
        loss2, grad2 = loss_and_gradient(theta, np.vstack([xs, xs]), np.concatenate([ys, ys]))
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        assert np.allclose(grad1, grad2, rtol=1e-12)

    @pytest.mark.parametrize("n_params", [16, 18, 4, 3])
    def test_theta_length_mismatch(self, n_params):
        # a 2-d batch fits k * 4 + 1 parameters: 17 for k = 4, none of these
        xs = np.zeros((5, 2))
        with pytest.raises(ValueError, match="do not fit"):
            loss_and_gradient(np.zeros(n_params), xs, np.zeros(5))

    @pytest.mark.parametrize("ys_shape", [(4,), (6,), (5, 1)])
    def test_targets_mismatch(self, ys_shape):
        theta = flatten(init_model(NetworkSpec(2, 4), seed=0))
        with pytest.raises(ValueError, match="do not fit"):
            loss_and_gradient(theta, np.zeros((5, 2)), np.zeros(ys_shape))

    @pytest.mark.parametrize(
        "n, d, k", [(1, 1, 1), (1, 4, 3), (9, 1, 6), (50, 3, 1), (333, 10, 8), (4097, 6, 11)]
    )
    def test_bit_identical_to_plain_expression(self, n, d, k):
        rng = np.random.default_rng([n, d, k])
        m = MlpModel(
            w1=rng.normal(size=(k, d)),
            b1=rng.normal(size=k),
            w2=rng.normal(size=k),
            b2=float(rng.normal()),
            norm=identity_norm(d),
        )
        theta = flatten(m)
        xs = rng.normal(size=(n, d))
        ys = rng.normal(size=n)
        before = theta.copy(), xs.copy(), ys.copy()
        loss, grad = loss_and_gradient(theta, xs, ys)
        ref_loss, ref_grad = plain_loss_and_gradient(theta, xs, ys)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        assert all(np.array_equal(a, b) for a, b in zip((theta, xs, ys), before))


class TestFlatten:
    def test_round_trip_exact(self):
        m = init_model(NetworkSpec(5, 3), seed=4)
        back = unflatten(flatten(m), m.spec, m.norm)
        assert np.array_equal(back.w1, m.w1)
        assert np.array_equal(back.b1, m.b1)
        assert np.array_equal(back.w2, m.w2)
        assert back.b2 == m.b2

    def test_canonical_order(self):
        m = MlpModel(
            w1=np.array([[1.0, 2.0], [3.0, 4.0]]),
            b1=np.array([5.0, 6.0]),
            w2=np.array([7.0, 8.0]),
            b2=9.0,
            norm=IDENTITY_NORM,
        )
        assert list(flatten(m)) == [1, 2, 3, 4, 5, 6, 7, 8, 9]


class TestLbfgs:
    def test_identity_quadratic(self):
        def f(x):
            return 0.5 * float(x @ x), x

        x, rep = lbfgs_minimize(f, np.array([3.0, -4.0]), TrainConfig(grad_tol=1e-10))
        assert np.linalg.norm(x) < 1e-8
        assert rep.iterations <= 3
        assert rep.converged

    def test_rosenbrock(self):
        def rosen(x):
            f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
            g = np.array(
                [
                    -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                    200.0 * (x[1] - x[0] ** 2),
                ]
            )
            return f, g

        x, rep = lbfgs_minimize(
            rosen, np.array([-1.2, 1.0]), TrainConfig(max_iter=200, grad_tol=1e-8)
        )
        assert np.allclose(x, [1.0, 1.0], atol=1e-6)
        assert rep.converged

    def test_already_converged(self):
        def f(x):
            return 0.5 * float(x @ x), x

        x, rep = lbfgs_minimize(f, np.zeros(3), TrainConfig())
        assert rep.iterations == 0
        assert rep.converged
        assert np.all(x == 0.0)

    def test_monotone_objective(self):
        values = []

        def tracked(x):
            f = float((x**2).sum() + 0.3 * (x**4).sum())
            values.append(f)
            return f, 2 * x + 1.2 * x**3

        lbfgs_minimize(tracked, np.array([2.0, -3.0, 1.0]), TrainConfig(max_iter=50))
        # accepted iterates never increase the objective; trial points during
        # the line search may, so check the running minimum trend instead
        accepted = [values[0]]
        for v in values[1:]:
            if v <= accepted[-1]:
                accepted.append(v)
        assert accepted[-1] < accepted[0]

    def test_quadratic_memory_covers_dimension(self):
        # with memory >= dim, a convex quadratic converges in <= dim+2 steps
        rng = np.random.default_rng(12)
        diag = np.linspace(1.0, 50.0, 50)
        x0 = rng.normal(size=50)

        def quad(x):
            return 0.5 * float(x @ (diag * x)), diag * x

        _, rep = lbfgs_minimize(
            quad, x0, TrainConfig(lbfgs_memory=50, max_iter=100, grad_tol=1e-8)
        )
        assert rep.converged
        assert rep.iterations <= 52

    def test_non_finite_objective(self):
        def bad(x):
            return float("nan"), x

        with pytest.raises(NumericalError, match="iteration 0"):
            lbfgs_minimize(bad, np.ones(2), TrainConfig())

    def test_non_finite_gradient_from_the_line_search(self):
        calls = []

        def f(x):
            # finite at the start, a NaN gradient at every trial point
            calls.append(x)
            return 0.5 * float(x @ x), x if len(calls) == 1 else np.full_like(x, np.nan)

        with pytest.raises(NumericalError, match="at iteration 1"):
            lbfgs_minimize(f, np.array([1.0, -2.0]), TrainConfig())


def logged(objective):
    """objective, plus the list of the points it was called at."""
    points = []

    def f(x):
        points.append(float(x[0]))
        return objective(x)

    return f, points


class TestStrongWolfe:
    def test_zoom_interval_collapses_onto_the_start(self):
        # The gradient claims descent while the values rise, so every trial
        # lands at an eighth of the interval and replaces its upper end. The
        # interval collapses after 18 trials, far inside the budget, and the
        # search returns its lower end, the start.
        f, points = logged(lambda x: (1.0 + 3.0 * float(x[0]), np.array([-1.0])))
        alpha, value, grad = mlp._strong_wolfe(f, np.zeros(1), 1.0, np.array([-1.0]), np.ones(1))
        assert (alpha, value, grad.tolist()) == (0.0, 1.0, [-1.0])
        assert len(points) == 20 and points[-1] == 0.0

    def test_non_finite_trial_point_backtracks(self):
        # NaN below 0.5: the first trial, at 0, halves the step to 1.0,
        # which meets both Wolfe conditions.
        f, points = logged(lambda x: (0.5 * float(x @ x) if x[0] >= 0.5 else math.nan, x.copy()))
        alpha, value, grad = mlp._strong_wolfe(f, np.array([2.0]), 2.0, np.array([2.0]), np.array([-2.0]))
        assert (alpha, value, grad.tolist()) == (0.5, 0.5, [1.0])
        assert points == [0.0, 1.0]

    def test_linear_objective_exhausts_the_budget(self):
        # The slope never shrinks, so no step meets the curvature condition;
        # after 50 doublings the last finite trial point is evaluated again.
        f, points = logged(lambda x: (-float(x[0]), np.array([-1.0])))
        alpha, value, grad = mlp._strong_wolfe(f, np.zeros(1), 0.0, np.array([-1.0]), np.ones(1))
        assert (alpha, value, grad.tolist()) == (2.0**49, -(2.0**49), [-1.0])
        assert points == [2.0**i for i in range(50)] + [2.0**49]


class TestTrain:
    def test_linear_targets(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(200, 3))
        w = np.array([1.0, -2.0, 0.5])
        ds = make_ds(xs, xs @ w + 0.3)
        model, report = train(NetworkSpec(3, 4), ds, TrainConfig(max_iter=300))
        pred = predict(model, ds)
        resid = pred - ds.targets
        norm_rms_train = np.sqrt(np.mean(resid**2)) / ds.targets.std()
        assert norm_rms_train < 0.02

    def test_single_sample_interpolation(self):
        ds = make_ds([[0.5, -0.5]], [2.0])
        model, report = train(
            NetworkSpec(2, 2), ds, TrainConfig(max_iter=200, grad_tol=1e-12)
        )
        assert report.final_loss < 1e-10
        assert predict(model, ds)[0] == pytest.approx(2.0, abs=1e-5)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        ds = make_ds(rng.normal(size=(30, 2)), rng.normal(size=30))
        cfg = TrainConfig(max_iter=50, init_scale_seed=3)
        m1, _ = train(NetworkSpec(2, 3), ds, cfg)
        m2, _ = train(NetworkSpec(2, 3), ds, cfg)
        assert np.array_equal(m1.w1, m2.w1)
        assert np.array_equal(m1.w2, m2.w2)
        assert m1.b2 == m2.b2

    def test_theta_bit_identical_to_plain_objective(self, monkeypatch):
        rng = np.random.default_rng(11)
        ds = make_ds(rng.normal(size=(120, 3)), rng.normal(size=120))
        cfg = TrainConfig(max_iter=60, restarts=2)
        model, report = train(NetworkSpec(3, 5), ds, cfg)
        monkeypatch.setattr(mlp, "loss_and_gradient", plain_loss_and_gradient)
        ref_model, ref_report = train(NetworkSpec(3, 5), ds, cfg)
        assert np.array_equal(flatten(model), flatten(ref_model))
        assert report.final_loss == ref_report.final_loss
        assert report.iterations == ref_report.iterations

    def test_one_model_built_per_call(self, monkeypatch):
        # the objective reads theta directly; only the returned model is built
        rng = np.random.default_rng(12)
        ds = make_ds(rng.normal(size=(30, 2)), rng.normal(size=30))
        calls = []

        def counting_unflatten(*args):
            calls.append(args)
            return unflatten(*args)

        monkeypatch.setattr(mlp, "unflatten", counting_unflatten)
        train(NetworkSpec(2, 3), ds, TrainConfig(max_iter=20, restarts=2))
        assert len(calls) == 1

    def test_spec_width_mismatch(self):
        # a 2:4:1 network has as many parameters as a 6:2:1 one
        rng = np.random.default_rng(13)
        ds = make_ds(rng.normal(size=(10, 6)), rng.normal(size=10))
        with pytest.raises(ValueError, match="does not match"):
            train(NetworkSpec(2, 4), ds, TrainConfig(max_iter=5))

    def test_report_counts_objective_calls(self, monkeypatch):
        rng = np.random.default_rng(14)
        ds = make_ds(rng.normal(size=(40, 2)), rng.normal(size=40))
        calls = []
        real = mlp.loss_and_gradient

        def counting(theta, xs, ys):
            calls.append(1)
            return real(theta, xs, ys)

        monkeypatch.setattr(mlp, "loss_and_gradient", counting)
        model, report = train(NetworkSpec(2, 3), ds, TrainConfig(max_iter=7, restarts=3))
        # summed over the restarts, line-search evaluations included
        assert report.objective_calls == len(calls) > 3 * 7
        # the kept restart's gradient at the returned weights
        norm = fit_normalization(ds)
        xs = (ds.features - norm.center) / norm.scale
        ys = (ds.targets - norm.target_center) / norm.target_scale
        _, grad = real(flatten(model), xs, ys)
        assert report.grad_inf_norm == float(np.max(np.abs(grad)))
        assert report.converged == (report.grad_inf_norm < 1e-6)

    def test_report_lists_restart_losses(self):
        rng = np.random.default_rng(15)
        ds = make_ds(rng.normal(size=(40, 2)), rng.normal(size=40))
        _, report = train(NetworkSpec(2, 3), ds, TrainConfig(max_iter=10, restarts=3))
        assert len(report.restart_losses) == 3
        assert min(report.restart_losses) == report.final_loss
        # each restart alone gives its own entry
        for r, loss in enumerate(report.restart_losses):
            _, single = train(NetworkSpec(2, 3), ds, TrainConfig(max_iter=10, init_scale_seed=r))
            assert single.restart_losses == (loss,) == (single.final_loss,)

    def test_restarts_pick_lowest_loss(self):
        rng = np.random.default_rng(6)
        ds = make_ds(rng.normal(size=(40, 2)), rng.normal(size=40))
        base_cfg = TrainConfig(max_iter=40, init_scale_seed=0)
        multi_cfg = TrainConfig(max_iter=40, init_scale_seed=0, restarts=3)
        _, single = train(NetworkSpec(2, 4), ds, base_cfg)
        _, multi = train(NetworkSpec(2, 4), ds, multi_cfg)
        assert multi.final_loss <= single.final_loss + 1e-12

    def test_loss_never_worse_than_initial(self):
        rng = np.random.default_rng(7)
        ds = make_ds(rng.normal(size=(25, 3)), rng.normal(size=25))
        from cluster_mlp.dataset import fit_normalization

        norm = fit_normalization(ds)
        xs = (ds.features - norm.center) / norm.scale
        ys = (ds.targets - norm.target_center) / norm.target_scale
        m0 = init_model(NetworkSpec(3, 4), seed=0, norm=norm)
        loss0, _ = loss_and_gradient(flatten(m0), xs, ys)
        _, report = train(NetworkSpec(3, 4), ds, TrainConfig(max_iter=30, init_scale_seed=0))
        assert report.final_loss <= loss0


class TestPredict:
    def test_identity_norm_equals_forward(self):
        m = init_model(NetworkSpec(2, 3), seed=0)
        rng = np.random.default_rng(1)
        ds = make_ds(rng.normal(size=(5, 2)), np.zeros(5))
        out = predict(m, ds)
        expected = [forward(m, row) for row in ds.features]
        assert np.allclose(out, expected, rtol=1e-14)

    def test_row_permutation(self):
        m = init_model(NetworkSpec(2, 3), seed=0)
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(8, 2))
        ds = make_ds(feats, np.zeros(8))
        perm = rng.permutation(8)
        permuted = make_ds(feats[perm], np.zeros(8))
        assert np.array_equal(predict(m, ds)[perm], predict(m, permuted))

    def test_width_mismatch(self):
        m = init_model(NetworkSpec(3, 2), seed=0)
        ds = make_ds([[1.0, 2.0]], [0.0])
        with pytest.raises(ValueError):
            predict(m, ds)

    def test_z_scores_as_the_dataset_does(self):
        # The features go through the dataset's own z-score, bit for bit,
        # and the output is mapped back to target units.
        rng = np.random.default_rng(3)
        ds = make_ds(rng.normal(size=(6, 2)) * [3.0, 0.01] + [5.0, -2.0], rng.normal(size=6))
        norm = NormalizationParams(
            center=np.array([5.1, -1.9]), scale=np.array([2.9, 0.011]), target_center=0.3, target_scale=1.7
        )
        m = unflatten(flatten(init_model(NetworkSpec(2, 3), seed=0)), NetworkSpec(2, 3), norm)
        xs = apply_normalization(ds, norm).features
        assert np.array_equal(xs, (ds.features - norm.center) / norm.scale)
        assert np.array_equal(predict(m, ds), mlp.forward_batch(m, xs) * 1.7 + 0.3)


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = make_ds(rng.normal(3, 2, size=(20, 3)), rng.normal(size=20))
        model, _ = train(NetworkSpec(3, 4), ds, TrainConfig(max_iter=30))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.w1, model.w1)
        assert np.array_equal(loaded.b1, model.b1)
        assert np.array_equal(loaded.w2, model.w2)
        assert loaded.b2 == model.b2
        assert np.array_equal(predict(loaded, ds), predict(model, ds))

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="format version"):
            load_model(path)
