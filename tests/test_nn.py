import math

import numpy as np
import pytest

from shiftbound import (
    CheckpointSchedule,
    DivergedError,
    LabeledSample,
    MlpArchitecture,
    TrainConfig,
    bce_gradient,
    bce_loss,
    forward,
    init_weights,
    predict,
    train,
)


def naive_forward(arch, w, x):
    """Independent oracle: explicit index arithmetic and Python loops."""
    widths = arch.layer_widths
    a = [float(v) for v in x]
    pos = 0
    for layer in range(len(widths) - 1):
        n_in, n_out = widths[layer], widths[layer + 1]
        out = []
        for j in range(n_out):
            s = 0.0
            for i in range(n_in):
                s += a[i] * w[pos + i * n_out + j]
            s += w[pos + n_in * n_out + j]
            out.append(s)
        pos += n_in * n_out + n_out
        if layer < len(widths) - 2:
            if arch.activation == "relu":
                a = [max(v, 0.0) for v in out]
            else:
                a = [math.tanh(v) for v in out]
        else:
            a = out
    return a[0]


def blob_data(rng, m, centers=((-3.0, 0.0), (3.0, 0.0)), std=0.5):
    labels = rng.integers(0, 2, size=m)
    feats = np.asarray(centers)[labels] + std * rng.standard_normal((m, 2))
    return LabeledSample(features=feats, labels=labels)


def test_param_count():
    assert MlpArchitecture((2, 3, 1)).num_params == 13
    assert MlpArchitecture((4, 8, 8, 1)).num_params == 4 * 8 + 8 + 8 * 8 + 8 + 8 + 1


def test_architecture_validation():
    with pytest.raises(ValueError):
        MlpArchitecture((5,))
    with pytest.raises(ValueError):
        MlpArchitecture((2, 0, 1))
    with pytest.raises(ValueError):
        MlpArchitecture((2, 3, 2))
    with pytest.raises(ValueError):
        MlpArchitecture((2, 3, 1), activation="sigmoid")


def test_init_deterministic_and_seed_sensitive():
    arch = MlpArchitecture((2, 3, 1))
    w1 = init_weights(arch, 7)
    w2 = init_weights(arch, 7)
    w3 = init_weights(arch, 8)
    assert np.array_equal(w1, w2)
    assert not np.array_equal(w1, w3)
    assert w1.shape == (13,)


def test_init_scale_and_zero_biases():
    arch = MlpArchitecture((9, 4, 1))
    w = init_weights(arch, 0)
    W1 = w[: 9 * 4]
    b1 = w[9 * 4 : 9 * 4 + 4]
    assert np.all(np.abs(W1) <= 1.0 / 3.0)
    assert np.all(b1 == 0.0)


def test_forward_zero_network():
    arch = MlpArchitecture((3, 4, 1))
    assert forward(arch, np.zeros(arch.num_params), [1.0, -2.0, 0.5]) == 0.0


def test_forward_identity_single_layer():
    arch = MlpArchitecture((1, 1))
    assert forward(arch, [1.0, 0.0], [0.5]) == 0.5


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_matches_naive_oracle(activation):
    rng = np.random.default_rng(42)
    for _ in range(20):
        widths = (int(rng.integers(1, 5)), int(rng.integers(1, 6)), 1)
        arch = MlpArchitecture(widths, activation)
        w = rng.standard_normal(arch.num_params)
        x = rng.standard_normal(widths[0])
        got = forward(arch, w, x)
        want = naive_forward(arch, w, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_forward_batch_matches_rowwise():
    arch = MlpArchitecture((3, 5, 1), "tanh")
    rng = np.random.default_rng(0)
    w = rng.standard_normal(arch.num_params)
    X = rng.standard_normal((7, 3))
    batch = forward(arch, w, X)
    assert batch.shape == (7,)
    for i in range(7):
        # BLAS may reorder the row sums, so exact equality is not guaranteed
        assert batch[i] == pytest.approx(forward(arch, w, X[i]), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("widths, activation", [((3, 5, 4, 1), "relu"), ((3, 5, 1), "tanh"), ((4, 1), "relu")])
def test_forward_stack_equals_per_draw_calls(widths, activation):
    arch = MlpArchitecture(widths, activation)
    rng = np.random.default_rng(3)
    draws = rng.standard_normal((4, arch.num_params))
    for x in (rng.standard_normal((9, widths[0])), rng.standard_normal((1, widths[0])), rng.standard_normal(widths[0])):
        got = forward(arch, draws, x)
        want = np.array([forward(arch, w, x) for w in draws])
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_forward_refuses_bad_weight_stack():
    arch = MlpArchitecture((3, 2, 1))
    x = np.zeros((4, 3))
    with pytest.raises(ValueError):
        forward(arch, np.zeros((2, 1, arch.num_params)), x)
    with pytest.raises(ValueError):
        forward(arch, np.zeros((2, arch.num_params + 1)), x)


def test_forward_dim_mismatch():
    arch = MlpArchitecture((3, 1))
    with pytest.raises(ValueError):
        forward(arch, np.zeros(arch.num_params), [1.0, 2.0])
    with pytest.raises(ValueError):
        forward(arch, np.zeros(5), [1.0, 2.0, 3.0])


def test_predict_tie_break():
    assert predict(3.2) == 1
    assert predict(0.0) == 0
    assert predict(-0.001) == 0
    assert list(predict(np.array([-1.0, 0.0, 1e-9]))) == [0, 0, 1]


def test_bce_gradient_near_stationary():
    arch = MlpArchitecture((1, 1))
    data = LabeledSample(features=[[1.0]], labels=[1])
    g = bce_gradient(arch, [0.0, 40.0], data)  # logit 40 on a positive label
    assert np.linalg.norm(g) < 1e-6


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_bce_gradient_finite_differences(activation):
    rng = np.random.default_rng(3)
    h = 1e-5
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 100:
        attempts += 1
        arch = MlpArchitecture((3, int(rng.integers(2, 8)), 1), activation)
        w = 0.5 * rng.standard_normal(arch.num_params)
        data = LabeledSample(
            features=rng.standard_normal((4, 3)), labels=rng.integers(0, 2, 4)
        )
        if activation == "relu":
            # keep probes away from the activation kink where central
            # differences are invalid
            pre = data.features @ w[: 3 * arch.layer_widths[1]].reshape(3, -1)
            if np.min(np.abs(pre)) < 1e-2:
                continue
        g = bce_gradient(arch, w, data)
        for idx in rng.choice(arch.num_params, size=5, replace=False):
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            fd = (bce_loss(arch, wp, data) - bce_loss(arch, wm, data)) / (2 * h)
            denom = max(abs(g[idx]), abs(fd), 1e-8)
            assert abs(g[idx] - fd) / denom <= 1e-4
        checked += 1
    assert checked == 10


def test_bce_gradient_batch_linearity():
    arch = MlpArchitecture((2, 4, 1), "tanh")
    rng = np.random.default_rng(8)
    w = rng.standard_normal(arch.num_params)
    X = rng.standard_normal((2, 2))
    y = np.array([0, 1])
    g_batch = bce_gradient(arch, w, LabeledSample(features=X, labels=y))
    g0 = bce_gradient(arch, w, LabeledSample(features=X[:1], labels=y[:1]))
    g1 = bce_gradient(arch, w, LabeledSample(features=X[1:], labels=y[1:]))
    np.testing.assert_allclose(g_batch, 0.5 * (g0 + g1), rtol=0, atol=1e-12)


def test_bce_over_ln2_dominates_zero_one_loss():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(1000) * 5
    y = rng.integers(0, 2, 1000)
    pointwise = np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z))) - y * z
    zero_one = (predict(z) != y).astype(float)
    assert np.all(pointwise / math.log(2) >= zero_one - 1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.1, epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.1, batch_size=0)


def test_train_zero_learning_rate_keeps_weights():
    arch = MlpArchitecture((2, 3, 1))
    data = blob_data(np.random.default_rng(0), 50)
    w0 = init_weights(arch, 1)
    w, _ = train(arch, w0, data, TrainConfig(learning_rate=0.0, epochs=2, seed=3))
    assert np.array_equal(w, w0)


def test_train_separable_blobs_reach_low_risk():
    arch = MlpArchitecture((2, 8, 1))
    data = blob_data(np.random.default_rng(10), 400)
    w0 = init_weights(arch, 2)
    w, _ = train(
        arch, w0, data, TrainConfig(learning_rate=3e-3, epochs=5, batch_size=32, seed=4)
    )
    assert np.mean(predict(forward(arch, w, data.features)) != data.labels) <= 0.05


def test_train_deterministic_checkpoints():
    arch = MlpArchitecture((2, 4, 1))
    data = blob_data(np.random.default_rng(1), 300)
    w0 = init_weights(arch, 0)
    cfg = TrainConfig(learning_rate=1e-2, epochs=3, batch_size=16, seed=11)
    w1, cks1 = train(arch, w0, data, cfg)
    w2, cks2 = train(arch, w0, data, cfg)
    assert np.array_equal(w1, w2)
    assert len(cks1) == len(cks2)
    for (f1, a), (f2, b) in zip(cks1, cks2):
        assert f1 == f2
        assert np.array_equal(a, b)


def test_checkpoint_schedule_counts_and_monotonicity():
    arch = MlpArchitecture((2, 4, 1))
    data = blob_data(np.random.default_rng(2), 2000)
    w0 = init_weights(arch, 0)
    cfg = TrainConfig(learning_rate=1e-3, epochs=5, batch_size=128, seed=0)
    _, cks = train(arch, w0, data, cfg, CheckpointSchedule(10, True))
    # 10 saves across the first epoch (from zero seen) plus every epoch end
    assert len(cks) == 15
    fractions = [f for f, _ in cks]
    assert fractions[0] == 0.0
    assert fractions[-1] == 1.0
    assert all(b > a for a, b in zip(fractions, fractions[1:]))
    # epoch ends sit at multiples of 1/epochs
    assert fractions[-5:] == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])


def test_checkpoint_zero_equals_start():
    arch = MlpArchitecture((2, 4, 1))
    data = blob_data(np.random.default_rng(3), 200)
    w0 = init_weights(arch, 5)
    _, cks = train(arch, w0, data, TrainConfig(learning_rate=1e-2, epochs=1, seed=1))
    assert cks[0][0] == 0.0
    assert np.array_equal(cks[0][1], w0)


def test_train_divergence_aborts():
    arch = MlpArchitecture((2, 4, 1))
    data = blob_data(np.random.default_rng(4), 100)
    w0 = init_weights(arch, 0)
    with pytest.raises(DivergedError):
        train(
            arch, w0, data,
            TrainConfig(learning_rate=1e150, epochs=5, batch_size=10, seed=0),
        )

