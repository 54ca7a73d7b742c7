import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covlasso import Degenerate, InvalidInput, LogitMatrix, evaluate, fit_extension
from covlasso.evaluation import _base_terms, _extension_loss

from conftest import raises_exact
from oracles import armijo_extension_fit, dense_extension_loss_grad, replace_logit


def loss_grad(data, labels, theta):
    """The loss and the gradient f^T R / N that fit_extension's kernel gives."""
    loss, resp = _extension_loss(_base_terms(data, labels), data @ theta)
    return loss, data.T @ resp / data.shape[0]


class TestEvaluate:
    def test_worked_metrics(self):
        data = np.array([[2.0, 4.0], [6.0, 1.0]])
        logits = LogitMatrix(data, labels=np.array([1, 0]))
        m = evaluate(logits, 0, [-1.0, 0.5])
        # residuals: 0.5*4-2 = 0, 0.5*1-6 = -5.5
        assert_allclose(m.abs_err, 2.75)
        assert_allclose(m.rel_err, 100.0 * 2.75 / 4.0)
        # replaced logits: [[2,4],[0.5,1]] -> preds [1,1]; original preds [1,0]
        assert m.acc == 0.5
        assert m.ori_acc == 1.0
        assert m.positives == 1
        assert m.pos_acc == 0.0
        assert m.ori_pos_acc == 1.0
        assert m.samples == 2 and m.target == 0

    def test_exact_solution_keeps_accuracy(self, rng):
        base = rng.standard_normal((100, 3))
        data = np.column_stack([base[:, 0], base[:, 1], 0.7 * base[:, 0] - 0.2 * base[:, 1]])
        labels = np.argmax(data, axis=1)
        logits = LogitMatrix(data, labels=labels)
        m = evaluate(logits, 2, [0.7, -0.2, -1.0])
        assert m.abs_err == pytest.approx(0.0, abs=1e-12)
        assert m.acc == m.ori_acc == 1.0

    def test_argmax_tie_takes_lowest_index(self):
        data = np.array([[1.0, 1.0, 0.0]])
        logits = LogitMatrix(data, labels=np.array([0]))
        m = evaluate(logits, 0, [-1.0, 1.0, 0.0])
        assert m.ori_acc == 1.0 and m.acc == 1.0

    def test_predictions_match_replace_logit_oracle(self, rng):
        # Small integer logits and weights make the replacement tie the
        # best other logit often, on both sides of the target's index.
        # Random signs give zeros of both signs, which tie too.
        signs = rng.choice([-1.0, 1.0], size=(500, 6))
        data = rng.integers(-2, 3, size=(500, 6)) * signs
        for target in range(6):
            theta = rng.integers(-1, 2, size=6).astype(float)
            theta[target] = -1.0
            expected = np.argmax(replace_logit(data, target, theta), axis=1)
            m = evaluate(LogitMatrix(data, labels=expected), target, theta)
            assert m.acc == 1.0
            assert m.ori_acc == np.mean(np.argmax(data, axis=1) == expected)

    def test_logits_are_not_copied(self, rng):
        # np.argmax copies a read-only matrix, and LogitMatrix's is one.
        samples, n = 4000, 200
        labels = np.zeros(samples, dtype=np.int64)
        logits = LogitMatrix(rng.standard_normal((samples, n)), labels=labels)
        theta = np.zeros(n)
        theta[0] = -1.0
        tracemalloc.start()
        try:
            evaluate(logits, 0, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < samples * n * 8 / 4, peak

    def test_non_finite_replacement_rejected(self):
        # 10 * 1e308 overflows to +inf and -inf, whose sum is NaN.
        data = np.array([[1.0, 1e308, -1e308], [1.0, 2.0, 0.0]])
        logits = LogitMatrix(data, labels=np.array([0, 1]))
        theta = [-1.0, 10.0, 10.0]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInput, match="replaced target logit is not finite"):
                evaluate(logits, 0, theta)

    def test_no_positive_samples(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        logits = LogitMatrix(data, labels=np.array([1, 1]))
        m = evaluate(logits, 0, [-1.0, 0.5])
        assert m.positives == 0
        assert m.pos_acc is None and m.ori_pos_acc is None

    def test_requires_labels(self):
        with raises_exact(InvalidInput, "evaluation needs per-sample labels"):
            evaluate(LogitMatrix(np.ones((2, 2))), 0, [-1.0, 0.5])

    def test_zero_target_column_rejected(self):
        data = np.array([[0.0, 1.0], [0.0, 2.0]])
        logits = LogitMatrix(data, labels=np.array([1, 1]))
        with raises_exact(Degenerate, "target logit is identically zero"):
            evaluate(logits, 0, [-1.0, 0.5])

    def test_theta_must_be_a_dependency_of_the_target(self):
        logits = LogitMatrix(np.ones((2, 2)), labels=np.array([1, 1]))
        expect = "logits have 2 categories, theta has shape (3,)"
        with raises_exact(InvalidInput, expect):
            evaluate(logits, 0, [-1.0, 0.5, 0.0])
        for target in (2, -1):
            with raises_exact(InvalidInput, f"target {target} outside [0, 2)"):
                evaluate(logits, target, [-1.0, 0.5])
        with pytest.raises(InvalidInput, match="-1 at target 1"):
            evaluate(logits, 1, [-1.0, 0.5])


class TestExtensionLossGrad:
    def test_uniform_loss_at_zero_weights(self, rng):
        # Theta = 0 makes the new logits 0; with zero base logits the
        # prediction is uniform over n1 + n2 categories.
        data = np.zeros((8, 3))
        labels = np.array([0, 1, 2, 3, 4, 0, 1, 2])
        loss, _ = loss_grad(data, labels, np.zeros((3, 2)))
        assert loss == pytest.approx(np.log(5.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(5):
            data = rng.standard_normal((30, 4))
            labels = rng.integers(0, 6, size=30)
            theta = rng.standard_normal((4, 2)) * 0.3
            _, grad = loss_grad(data, labels, theta)
            fd = np.zeros_like(theta)
            h = 1e-6
            for a in range(4):
                for b in range(2):
                    up = theta.copy()
                    up[a, b] += h
                    dn = theta.copy()
                    dn[a, b] -= h
                    lu, _ = loss_grad(data, labels, up)
                    ld, _ = loss_grad(data, labels, dn)
                    fd[a, b] = (lu - ld) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(grad - fd).max() / scale < 1e-4

    def test_huge_logits_stay_finite(self):
        data = np.array([[500.0, -500.0]])
        loss, grad = loss_grad(data, np.array([0]), np.array([[1.0], [0.0]]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestFitExtension:
    def _problem(self, rng, samples=120):
        base = rng.standard_normal((samples, 3))
        truth = np.array([[0.9, -0.4], [0.1, 0.8], [-0.5, 0.3]])
        z = np.hstack([base, base @ truth])
        labels = np.argmax(z, axis=1)
        return LogitMatrix(base), labels, truth

    def test_loss_decreases_monotonically(self, rng):
        base, labels, _ = self._problem(rng)
        fit = fit_extension(base, labels, 2, epochs=100)
        trace = np.array(fit.losses)
        assert trace.size == 101
        assert np.all(np.diff(trace) <= 1e-12)
        assert trace[-1] < trace[0]

    def test_fit_reaches_convex_optimum(self, rng):
        # The loss is convex, so the fit must beat the generating matrix
        # and land near a stationary point.
        base, labels, truth = self._problem(rng, samples=400)
        fit = fit_extension(base, labels, 2, epochs=400)
        loss_at_truth, _ = dense_extension_loss_grad(base.data, labels, truth)
        assert fit.losses[-1] <= loss_at_truth
        _, grad = dense_extension_loss_grad(base.data, labels, fit.theta)
        assert np.abs(grad).max() < 1e-3

    @pytest.mark.parametrize("scale", [3.0, 10.0])
    def test_descends_on_large_logits(self, scale):
        # Rank-20 logits (N=2000, n1=50, std 4.3) with labels from a noisy
        # argmax.  A fixed step of 0.5 took the loss from 2.38 to 19.1 at x3
        # and from 7.43 to 625 at x10.
        rng = np.random.default_rng(14)
        z = rng.standard_normal((2000, 20)) @ rng.standard_normal((20, 52))
        z *= 4.3 / z.std()
        labels = np.argmax(z + rng.standard_normal(z.shape), axis=1)
        trace = np.array(fit_extension(LogitMatrix(z[:, :50] * scale), labels, 2).losses)
        assert np.all(np.diff(trace) <= 0.0)
        assert trace[-1] < trace[0]

    def test_dominant_new_category_is_learned(self, rng):
        # New category whose logit is a scaled copy of one base column:
        # the fit should match the oracle labeling on that category.
        base_data = rng.standard_normal((400, 4))
        z = np.hstack([base_data, 3.0 * base_data[:, [1]]])
        labels = np.argmax(z, axis=1)
        base = LogitMatrix(base_data)
        fit = fit_extension(base, labels, 1)
        pred = np.argmax(np.hstack([base_data, base_data @ fit.theta]), axis=1)
        new_mask = labels == 4
        assert new_mask.sum() > 50
        assert np.mean(pred[new_mask] == 4) >= 0.95

    def test_trajectory_matches_dense_oracle(self, rng):
        # Every iterate of the split-normalizer fit matches Armijo
        # backtracking on the dense stacked-logit loss.  Near the optimum
        # a try's loss falls by less than its roundoff, and the two fits
        # may decide it differently (on this draw first at epoch 38), so
        # Theta is compared over the epochs before that and the loss
        # trace over all 100.
        base, labels, _ = self._problem(rng)
        fit = fit_extension(base, labels, 2, epochs=30)
        theta, losses = armijo_extension_fit(base.data, labels, 2, 30)
        assert_allclose(fit.theta, theta, rtol=1e-12, atol=0.0)
        assert_allclose(fit.losses, losses, rtol=1e-12, atol=0.0)
        fit = fit_extension(base, labels, 2, epochs=100)
        _, losses = armijo_extension_fit(base.data, labels, 2, 100)
        assert_allclose(fit.losses, losses, rtol=1e-12, atol=0.0)

    def test_stationary_start_ends(self, rng):
        # The gradient at Theta = 0 is exactly zero, so every try is
        # accepted first and the step grows by 1.5 each epoch; uncapped,
        # it overflows to inf near epoch 1750 and inf * 0 = nan is halved
        # forever.
        data = np.array([[1.0, -1.0], [-1.0, 1.0]])
        fit = fit_extension(LogitMatrix(data), np.array([0, 1]), 1, epochs=3000)
        assert np.array_equal(fit.theta, np.zeros((2, 1)))
        assert len(set(fit.losses)) == 1
        # All-zero logits: the first try 2N/||f||_F^2 = inf is capped too,
        # and the prediction stays uniform over the n1 + n2 = 3 categories.
        labels = rng.integers(0, 3, size=20)
        fit = fit_extension(LogitMatrix(np.zeros((20, 2))), labels, 1, epochs=5)
        assert np.array_equal(fit.theta, np.zeros((2, 1)))
        assert len(fit.losses) == 6 and len(set(fit.losses)) == 1
        assert fit.losses[0] == pytest.approx(np.log(3.0), rel=1e-15)

    def test_zero_new_categories(self, rng):
        data = rng.standard_normal((10, 3))
        labels = rng.integers(0, 3, size=10)
        fit = fit_extension(LogitMatrix(data), labels, 0)
        assert fit.theta.shape == (3, 0)
        assert len(fit.losses) == 1
        assert np.array_equal(np.hstack([data, data @ fit.theta]), data)

    def test_zero_epochs_returns_initial_point(self, rng):
        data = rng.standard_normal((10, 3))
        labels = rng.integers(0, 4, size=10)
        fit = fit_extension(LogitMatrix(data), labels, 1, epochs=0)
        assert np.array_equal(fit.theta, np.zeros((3, 1)))
        assert len(fit.losses) == 1

    def test_label_validation(self, rng):
        data = rng.standard_normal((6, 2))
        good = np.array([0, 1, 2, 0, 1, 2])
        expect = "labels shape (4,) does not match sample count 6"
        with raises_exact(InvalidInput, expect):
            fit_extension(LogitMatrix(data), good[:4], 1)
        with raises_exact(InvalidInput, "labels must be integers"):
            fit_extension(LogitMatrix(data), good.astype(float), 1)
        for bad in (3, -1):
            expect = f"labels must lie in [0, 3), got range [{bad}, {bad}]"
            with raises_exact(InvalidInput, expect):
                fit_extension(LogitMatrix(data), np.full(6, bad), 1)

    def test_config_validation(self, rng):
        data = rng.standard_normal((6, 2))
        labels = np.zeros(6, dtype=np.int64)
        with pytest.raises(InvalidInput):
            fit_extension(LogitMatrix(data), labels, -1)
        with pytest.raises(InvalidInput):
            fit_extension(LogitMatrix(data), labels, 1, epochs=-1)

    def test_divergence_detected(self, rng):
        labels = rng.integers(0, 3, size=20)
        # ||f||_F^2 overflows float64, so the first try is 2N/inf = 0.
        expect = "no positive first step: 2N/||f||_F^2 = 0.0"
        with raises_exact(Degenerate, expect):
            fit_extension(LogitMatrix(np.full((20, 2), 1e155)), labels, 1, epochs=5)
        # A labelled logit 2e308 below its row's peak: the loss is inf.
        data = np.array([[1e308, -1e308]])
        with raises_exact(Degenerate, "initial loss is not finite: inf"):
            fit_extension(LogitMatrix(data), np.array([1]), 0)

