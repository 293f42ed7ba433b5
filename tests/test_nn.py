import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import shiftbound
from shiftbound import (
    DivergedError,
    LabeledSample,
    MlpArchitecture,
    TrainConfig,
    forward,
    init_weights,
    predict,
    train,
)
from shiftbound import nn
from shiftbound.nn import (BLOCK_ROWS, _bce_gradient_arrays, _block_rows32, _layer_views, _logit_bounds, _row_blocks,
                          hard_labels)
from shiftbound.stochastic import IsotropicGaussian, sample_posterior
from shiftbound.tasks import build_synthetic_task, default_synthetic_spec

from oracles import bce_loss


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
        a = [max(v, 0.0) for v in out] if layer < len(widths) - 2 else out
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


@pytest.mark.parametrize("widths", [(3, 5, 4, 1), (2, 1)])
def test_layer_views_read_the_flat_layout_in_order_without_copies(widths):
    """The raveled [W; b] views of a vector, and of a (k, num_params) stack
    draw by draw, concatenate back to it in order; each view of the stack
    equals the view of its own vector; a write through a view changes the
    vector."""
    arch = MlpArchitecture(widths)
    shapes = [(n_in + 1, n_out) for n_in, n_out in zip(widths[:-1], widths[1:])]
    stack = np.random.default_rng(0).standard_normal((3, arch.num_params))
    w = stack[1].copy()
    views, stacked = _layer_views(arch, w), _layer_views(arch, stack)
    assert [v.shape for v in views] == shapes
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), w)
    assert np.array_equal(np.concatenate([v.reshape(3, -1) for v in stacked], axis=1), stack)
    for k in range(3):
        for v, own in zip(stacked, _layer_views(arch, stack[k])):
            assert np.array_equal(v[k], own)
    for vector, layers in ((w, views), (stack, stacked)):
        for i, layer in enumerate(layers):
            layer[...] = i + 1
        numbered = np.repeat(np.arange(1.0, len(shapes) + 1), [rows * cols for rows, cols in shapes])
        assert np.array_equal(vector, np.broadcast_to(numbered, vector.shape))


def test_forward_zero_network():
    arch = MlpArchitecture((3, 4, 1))
    assert forward(arch, np.zeros((1, arch.num_params)), [[1.0, -2.0, 0.5]]).tolist() == [[0.0]]


def test_forward_identity_single_layer():
    arch = MlpArchitecture((1, 1))
    assert forward(arch, [[1.0, 0.0]], [[0.5]]).tolist() == [[0.5]]


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        widths = (int(rng.integers(1, 5)), int(rng.integers(1, 6)), 1)
        arch = MlpArchitecture(widths)
        w = rng.standard_normal(arch.num_params)
        x = rng.standard_normal(widths[0])
        got = forward(arch, w[None], x[None])[0, 0]
        want = naive_forward(arch, w, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_forward_batch_matches_rowwise():
    arch = MlpArchitecture((3, 5, 1))
    rng = np.random.default_rng(0)
    w = rng.standard_normal((1, arch.num_params))
    X = rng.standard_normal((7, 3))
    batch = forward(arch, w, X)
    assert batch.shape == (1, 7)
    for i in range(7):
        # BLAS may reorder the row sums, so exact equality is not guaranteed
        assert batch[0, i] == pytest.approx(forward(arch, w, X[i : i + 1])[0, 0], rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("widths, activation", [((3, 5, 4, 1), "relu"), ((3, 5, 1), "relu"), ((4, 1), "relu")])
def test_forward_stack_equals_per_draw_calls(widths, activation):
    arch = MlpArchitecture(widths)
    rng = np.random.default_rng(3)
    draws = rng.standard_normal((4, arch.num_params))
    for x in (rng.standard_normal((9, widths[0])), rng.standard_normal((1, widths[0]))):
        got = forward(arch, draws, x)
        want = np.array([forward(arch, draws[k : k + 1], x)[0] for k in range(len(draws))])
        assert got.shape == want.shape == (4, len(x))
        assert np.array_equal(got, want)


# a fresh interpreter that evaluates ``sys.argv[1]`` (``forward`` or
# ``unblocked_forward``) at the architecture, draw stack and inputs saved in
# the .npz file ``sys.argv[2]``, saving the results to ``sys.argv[3]``
CHILD = """
import sys
import numpy as np
from oracles import unblocked_forward
from shiftbound import MlpArchitecture, forward
fn = {"forward": forward, "unblocked_forward": unblocked_forward}[sys.argv[1]]
with np.load(sys.argv[2]) as case:
    arch = MlpArchitecture(tuple(case["widths"]))
    np.savez(sys.argv[3], *(fn(arch, case["draws"], case[f"x{i}"]) for i in range(case["count"])))
"""


def in_one_thread(tmp_path, fn_name, arch, draws, xs):
    """``fn_name(arch, draws, x)`` for each ``x`` of ``xs``, computed in a
    fresh interpreter whose BLAS runs one thread; the arrays go through .npz
    files in ``tmp_path``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftbound.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    case, out = tmp_path / "case.npz", tmp_path / "out.npz"
    np.savez(case, widths=arch.layer_widths, draws=draws, count=len(xs), **{f"x{i}": x for i, x in enumerate(xs)})
    subprocess.run(
        [sys.executable, "-c", CHILD, fn_name, str(case), str(out)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    with np.load(out) as got:
        return [got[f"arr_{i}"] for i in range(len(xs))]


@pytest.mark.parametrize("hidden", [(64,), (64, 64), (16, 32, 8)])
def test_blocked_forward_equals_the_unblocked_layer_loop(hidden, tmp_path):
    """The reference runs in one BLAS thread: a full-height matrix-vector
    product rounds each row according to how BLAS splits the rows across
    threads, so only its 1-thread result is fixed."""
    arch = MlpArchitecture((3, *hidden, 1))
    rng = np.random.default_rng(len(hidden))
    draws = rng.standard_normal((3, arch.num_params)) / 4
    B = BLOCK_ROWS
    xs = [rng.standard_normal((n, 3)) for n in (0, 1, 2, B - 1, B, B + 1, 2 * B + 1, 14001)]
    for X, want in zip(xs, in_one_thread(tmp_path, "unblocked_forward", arch, draws, xs)):
        assert np.array_equal(forward(arch, draws, X), want)
        assert np.array_equal(forward(arch, draws[1:2], X)[0], want[1])


@pytest.mark.parametrize("hidden", [(16,), (64,), (64, 64)])
def test_forward_gives_the_same_bits_at_any_blas_thread_count(hidden, tmp_path):
    arch = MlpArchitecture((2, *hidden, 1))
    rng = np.random.default_rng(7)
    draws = rng.standard_normal((2, arch.num_params)) / 4
    xs = [rng.standard_normal((n, 2)) for n in (BLOCK_ROWS + 1, 5000, 14001, 33333)]
    for X, want in zip(xs, in_one_thread(tmp_path, "forward", arch, draws, xs)):
        assert np.array_equal(forward(arch, draws, X), want)


def test_forward_holds_no_full_height_layer(peak_traced_bytes):
    """The logits are the only array with a row per input row."""
    arch = MlpArchitecture((2, 64, 64, 1))
    w = init_weights(arch, 0)[None]
    for n in (20000, 100000):
        X = np.random.default_rng(0).standard_normal((n, 2))
        assert peak_traced_bytes(forward, arch, w, X) < 8 * len(w) * n + 2 * 2**20


@pytest.mark.parametrize(
    "draws, cpus",
    [(draws, cpus) for cpus in (1, 2, 8) for draws in (1, 10)],
    # a 1-CPU case keeps the id of the single-worker pass
    ids=[f"{draws}" if cpus == 1 else f"{draws} at {cpus} cpus" for cpus in (1, 2, 8) for draws in (1, 10)],
)
def test_float32_forward_holds_no_full_height_layer(peak_traced_bytes, float32_cpus, draws, cpus):
    """The float32 logits are the only array with a row per input row: the
    rows of ``x`` are cast one block at a time, so no float32 copy of ``x``
    is made, and at most two workers each hold their own block stacks."""
    float32_cpus(cpus)
    arch = MlpArchitecture((2, 64, 64, 1))
    w = np.repeat(init_weights(arch, 0)[None], draws, axis=0).astype(np.float32)
    for n in (20000, 100000):
        X = np.random.default_rng(0).standard_normal((n, 2))
        assert peak_traced_bytes(forward, arch, w, X) < 4 * draws * n + 1.5 * 2**20


def spy_workers(monkeypatch, fail_in=None):
    """Lists of where each worker of the float32 pass runs, "caller" or
    "thread", and of the first rows of the blocks the workers claim; the
    worker running in ``fail_in`` raises instead of claiming blocks."""
    where, claimed = [], []
    claim = nn._claim_blocks32

    def spy(starts, *args):
        where.append("caller" if threading.current_thread() is threading.main_thread() else "thread")
        if where[-1] == fail_in:
            raise RuntimeError(f"worker in the {fail_in} failed")

        def recorded():
            for start in starts:
                claimed.append(start)
                yield start

        claim(recorded(), *args)

    monkeypatch.setattr(nn, "_claim_blocks32", spy)
    return where, claimed


@pytest.mark.parametrize("D", [1, 2, 10, 33])
def test_float32_logits_have_the_same_bits_at_any_worker_count(monkeypatch, float32_cpus, D):
    """The workers claim the blocks of one layout, so every row goes through
    the same products whichever worker runs it: at block heights B - 1, B,
    B + 1 and 2B + 1, over many blocks and over no rows, 1, 2 and 3 workers
    give the same float32 bits, and each block is claimed once, also when
    the threads switch as often as they can."""
    arch = MlpArchitecture((2, 64, 64, 1))
    rng = np.random.default_rng(D)
    draws = (rng.standard_normal((D, arch.num_params)) / 4).astype(np.float32)
    B = _block_rows32(arch, D)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (0, B - 1, B, B + 1, 2 * B + 1, 37 * B + 5):
            x = rng.standard_normal((n, 2))
            bits = []
            for workers in (1, 2, 3):
                float32_cpus(workers, rules=False)
                where, claimed = spy_workers(monkeypatch)
                bits.append(forward(arch, draws, x).view(np.uint32))
                assert len(where) == max(1, min(workers, -(-n // B)))
                assert sorted(claimed) == list(range(0, n, B))
            assert bits[0].shape == (D, n)
            assert np.array_equal(bits[0], bits[1]) and np.array_equal(bits[0], bits[2])
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("fail_in", ["caller", "thread"])
def test_a_failing_float32_worker_fails_forward_and_leaves_no_thread(monkeypatch, float32_cpus, fail_in):
    """An exception of either worker reaches the caller once both have
    ended; one swallowed in the thread would fail the test as a warning."""
    float32_cpus(2)
    arch = MlpArchitecture((2, 64, 64, 1))
    draws = np.repeat(init_weights(arch, 0)[None], 10, axis=0).astype(np.float32)
    x = np.random.default_rng(0).standard_normal((5000, 2))
    where, _ = spy_workers(monkeypatch, fail_in)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^worker in the {fail_in} failed$"):
        forward(arch, draws, x)
    assert sorted(where) == ["caller", "thread"]
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize(
    "widths, D, workers",
    [((784, 64, 64, 1), 10, 1), ((2, 64, 64, 1), 1, 1), ((2, 16, 1), 10, 1), ((2, 64, 64, 1), 10, 2),
     ((2, 16, 1), 2, 2)],
    ids=["wide input", "one draw", "narrow", "quick start", "cli round trip"],
)
def test_float32_pass_runs_a_second_worker_only_where_it_pays(monkeypatch, float32_cpus, widths, D, workers, cpus):
    """One worker where a block's largest per-draw product reaches the
    cutoff from which BLAS threads it itself (785 rows × 785 × 64 for 784
    inputs, 1,008 rows × 65 × 64 for one draw), or lies below 2^16 (385 rows
    × 3 × 16 for 10 draws of width 16); else one per CPU, at most two."""
    float32_cpus(cpus)
    arch = MlpArchitecture(widths)
    draws = np.repeat(init_weights(arch, 0)[None], D, axis=0).astype(np.float32)
    where, _ = spy_workers(monkeypatch)
    forward(arch, draws, np.random.default_rng(0).standard_normal((3000, widths[0])))
    assert sorted(where) == ["caller", "thread"][: min(workers, cpus)]


def _bias_scaled(arch, draws, weights, biases):
    """``draws`` with every weight matrix scaled by ``weights`` and every
    bias by ``biases``."""
    draws = draws.copy()
    for layer in _layer_views(arch, draws):
        layer[..., :-1, :] *= weights
        layer[..., -1, :] *= biases
    return draws


@pytest.mark.parametrize("D", [1, 2, 10, 33])
@pytest.mark.parametrize("biased", [False, True], ids=["plain", "bias-dominated"])
def test_float32_pass_at_the_stacked_block_edges(D, biased):
    """At, one below and one past the stacked block height (a 1-row tail),
    and past two blocks: the float32 logits lie within the rounding bound of
    the float64 ones, and ``hard_labels`` gives the float64 labels. Biases
    x50 over weights x0.25 make the folded bias product dominate each sum."""
    arch = MlpArchitecture((2, 64, 64, 1))
    rng = np.random.default_rng(D)
    draws = rng.standard_normal((D, arch.num_params)) / 4
    if biased:
        draws = _bias_scaled(arch, draws, 0.25, 50.0)
    B = _block_rows32(arch, D)
    for n in (B - 1, B, B + 1, 2 * B + 1):
        x = rng.standard_normal((n, 2))
        z32, z64 = forward(arch, draws.astype(np.float32), x), forward(arch, draws, x)
        bound, _ = _logit_bounds(arch, draws, np.abs(x).max())
        assert np.all(np.isfinite(bound))
        assert np.all(np.abs(z32.astype(np.float64) - z64) <= bound[:, None])
        assert np.array_equal(hard_labels(arch, draws, x), predict(z64))


@pytest.mark.parametrize("widths", [(2, 64, 64, 1), (9, 64, 64, 1), (3, 16, 32, 8, 1)])
@pytest.mark.parametrize("scale", [0.25, 50.0])
def test_float32_logits_lie_within_the_rounding_bound(widths, scale):
    """|z32 - z64| <= e32 + e64 on every row, and a float64 pass over a
    subset of the rows lies within 2 e64 of the full pass."""
    arch = MlpArchitecture(widths)
    rng = np.random.default_rng(len(widths))
    draws = scale * rng.standard_normal((4, arch.num_params))
    x = rng.standard_normal((3000, widths[0]))
    z32 = forward(arch, draws.astype(np.float32), x)
    z64 = forward(arch, draws, x)
    assert z32.dtype == np.float32 and z64.dtype == np.float64
    bound, e64 = _logit_bounds(arch, draws, np.abs(x).max())
    assert np.all(np.isfinite(bound))
    assert np.all(np.abs(z32.astype(np.float64) - z64) <= bound[:, None])
    subset = forward(arch, draws, x[::7])
    assert np.all(np.abs(subset - z64[:, ::7]) <= 2 * e64[:, None])


@pytest.mark.parametrize("widths", [(2, 1), (2, 2, 1)])
def test_one_sided_rounding_comes_within_a_factor_4_of_the_bound(widths):
    """Every input, weight and bias is 1 + 0.499 * 2^-23, which float32
    rounds down to 1: the roundings add up with no cancellation, so the
    float32 logit misses by over a quarter of the bound, and a bound 4x
    smaller fails here."""
    arch = MlpArchitecture(widths)
    v = 1 + 0.499 * 2.0**-23
    draws = np.full((1, arch.num_params), v)
    x = np.full((3, widths[0]), v)
    error = np.abs(forward(arch, draws.astype(np.float32), x).astype(np.float64) - forward(arch, draws, x))
    bound, _ = _logit_bounds(arch, draws, v)
    assert np.all(bound / 4 < error) and np.all(error <= bound)


def _near_zero_draws(arch, x, rows, steps=(-3, -1, 0, 1, 2)):
    """Copies of one weight vector whose output bias puts the float64 logit
    of one of ``rows`` exactly ``step`` ulps from 0, one copy per (row,
    step): the bias is minus that row's logit without a bias, moved by
    ``step`` ulps."""
    w = np.random.default_rng(arch.num_params).standard_normal(arch.num_params) / 4
    w[-1] = 0.0
    unbiased = forward(arch, w[None], x)[0]
    draws = []
    for r in rows:
        for step in steps:
            bias = -unbiased[r]
            for _ in range(abs(step)):
                bias = np.nextafter(bias, math.copysign(math.inf, step))
            draws.append(np.concatenate([w[:-1], [bias]]))
    return np.array(draws)


@pytest.mark.parametrize("widths", [(2, 64, 64, 1), (3, 16, 32, 8, 1)])
def test_float64_labels_decide_logits_at_and_near_zero(widths):
    """Rows whose float64 logit is 0 or a few ulps from it get the float64
    pass's label, whatever the sign of their float32 logit."""
    arch = MlpArchitecture(widths)
    x = np.random.default_rng(1).standard_normal((1100, widths[0]))
    rows = [0, 511, 512, 700, 1099]
    draws = _near_zero_draws(arch, x, rows)
    z64 = forward(arch, draws, x)
    near = z64[np.arange(len(draws)), np.repeat(rows, len(draws) // len(rows))]
    assert np.all(np.abs(near) <= 3 * np.spacing(np.abs(draws[:, -1]))) and np.any(near == 0)
    labels = hard_labels(arch, draws, x)
    assert labels.dtype == bool and np.array_equal(labels, z64 > 0)


@pytest.mark.parametrize("n", [3 * 512 + 1, 1300])
def test_a_block_alone_gives_the_bits_of_the_full_pass(n):
    """The premise of the block re-run: each float64 block of ``forward``,
    evaluated on its own, equals its rows of the full pass bit for bit; the
    1-row tail of 1537 rows joins the block before it."""
    arch = MlpArchitecture((2, 64, 64, 1))
    rng = np.random.default_rng(n)
    draws = rng.standard_normal((2, arch.num_params)) / 4
    x = rng.standard_normal((n, 2))
    full = forward(arch, draws, x)
    blocks = _row_blocks(len(x))
    assert blocks[-1] == {1537: (1024, 1537), 1300: (1024, 1300)}[n]
    for start, stop in blocks:
        assert np.array_equal(forward(arch, draws, x[start:stop]), full[:, start:stop])


def test_block_rerun_corrects_a_wrong_sign_from_the_gathered_recheck(monkeypatch):
    """A gathered float64 logit within 2 e64 of 0 does not decide a label: a
    gathered recheck that returns tiny values of the wrong sign still gives
    the float64 pass's labels, from the re-run blocks."""
    arch = MlpArchitecture((2, 64, 64, 1))
    x = np.random.default_rng(2).standard_normal((1100, 2))
    draws = _near_zero_draws(arch, x, [600], steps=(1,))
    want = forward(arch, draws, x) > 0
    original = nn._forward
    calls = []

    def wrong_gathered_signs(arch, w, x):
        z = original(arch, w, x)
        calls.append(len(x))
        return np.where(z > 0, -1e-300, 1e-300) if len(calls) == 1 else z

    monkeypatch.setattr(nn, "_forward", wrong_gathered_signs)
    assert np.array_equal(hard_labels(arch, draws, x), want)
    assert len(calls) > 1  # the gathered rows' blocks ran again


def test_float64_recheck_covers_under_one_percent_of_an_initial_net(monkeypatch):
    """sigma = 0.03 draws around the initial (2, 64, 64, 1) net on the default
    task's 10k source rows: the float64 recheck covers under 1% of the
    (draw, row) pairs, so the bound has not loosened into a float64 pass."""
    arch = MlpArchitecture((2, 64, 64, 1))
    x = build_synthetic_task(default_synthetic_spec(0)).source.features
    draws = sample_posterior(IsotropicGaussian(init_weights(arch, 0), 0.03), 5, 0).draws
    original, original32 = nn._forward, nn._forward32
    rechecked, passes32 = [], []

    def counting(arch, w, x):
        rechecked.append(len(w) * len(x))
        return original(arch, w, x)

    def counting32(arch, w, x):
        passes32.append(len(w) * len(x))
        return original32(arch, w, x)

    monkeypatch.setattr(nn, "_forward", counting)
    monkeypatch.setattr(nn, "_forward32", counting32)
    labels = hard_labels(arch, draws, x)
    monkeypatch.undo()
    assert np.array_equal(labels, predict(forward(arch, draws, x)))
    assert passes32 == [draws.shape[0] * len(x)]  # one float32 pass over every (draw, row) pair
    assert 0 < sum(rechecked) < 0.01 * draws.shape[0] * len(x)


def test_forward_refuses_bad_weight_stack():
    arch = MlpArchitecture((3, 2, 1))
    x = np.zeros((4, 3))
    for w in (np.zeros(arch.num_params), np.zeros((2, 1, arch.num_params)), np.zeros((2, arch.num_params + 1))):
        with pytest.raises(ValueError, match="^weights have shape"):
            forward(arch, w, x)


def test_forward_dim_mismatch():
    arch = MlpArchitecture((3, 1))
    w = np.zeros((1, arch.num_params))
    for x in ([[1.0, 2.0]], [1.0, 2.0, 3.0], np.zeros((1, 1, 3))):
        with pytest.raises(ValueError, match="^inputs have shape"):
            forward(arch, w, x)


def test_predict_tie_break():
    assert predict(np.array([[3.2, 0.0, -0.001], [-1.0, 0.0, 1e-9]])).tolist() == [[1, 0, 0], [0, 0, 1]]


def test_bce_gradient_near_stationary():
    arch = MlpArchitecture((1, 1))
    # logit 40 on a positive label
    g = _bce_gradient_arrays(arch, np.array([0.0, 40.0]), np.array([[1.0]]), np.array([1.0]))
    assert np.linalg.norm(g) < 1e-6


def test_bce_gradient_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 100:
        attempts += 1
        arch = MlpArchitecture((3, int(rng.integers(2, 8)), 1))
        w = 0.5 * rng.standard_normal(arch.num_params)
        data = LabeledSample(
            features=rng.standard_normal((4, 3)), labels=rng.integers(0, 2, 4)
        )
        # keep probes away from the ReLU kink where central differences are
        # invalid
        pre = data.features @ w[: 3 * arch.layer_widths[1]].reshape(3, -1)
        if np.min(np.abs(pre)) < 1e-2:
            continue
        g = _bce_gradient_arrays(arch, w, data.features, data.labels)
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
    arch = MlpArchitecture((2, 4, 1))
    rng = np.random.default_rng(8)
    w = rng.standard_normal(arch.num_params)
    X = rng.standard_normal((2, 2))
    y = np.array([0, 1])
    g_batch = _bce_gradient_arrays(arch, w, X, y)
    g0 = _bce_gradient_arrays(arch, w, X[:1], y[:1])
    g1 = _bce_gradient_arrays(arch, w, X[1:], y[1:])
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


# (2, 3, 1) has 13 parameters
TRAIN_REFUSALS = {
    "short weights": (
        np.zeros(12), np.zeros((4, 2)), [0, 1, 0, 1], "weight vector has length (12,), architecture needs 13"
    ),
    "nan weight": (np.full(13, np.nan), np.zeros((4, 2)), [0, 1, 0, 1], "initial weights contain non-finite values"),
    "no rows": (np.zeros(13), np.zeros((0, 2)), np.zeros(0, dtype=int), "training data must be non-empty"),
    "wrong dim": (np.zeros(13), np.zeros((4, 3)), [0, 1, 0, 1], "data dimension does not match architecture input"),
    "label 2": (np.zeros(13), np.zeros((4, 2)), [0, 1, 2, 1], "labels must be in {0, 1}"),
}


@pytest.mark.parametrize("w0, features, labels, message", TRAIN_REFUSALS.values(), ids=TRAIN_REFUSALS)
def test_train_refuses_bad_inputs(w0, features, labels, message):
    data = LabeledSample(features=features, labels=labels)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        train(MlpArchitecture((2, 3, 1)), w0, data, TrainConfig(learning_rate=0.1))


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
    assert np.mean(predict(forward(arch, w[None], data.features)[0]) != data.labels) <= 0.05


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
    _, cks = train(arch, w0, data, cfg)
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

