"""Per-layer timings of the sample-token layer, the hypergradient estimator
and the hyper-cleaning oracle.

    PYTHONPATH=src python -m pytest benches -q --benchmark-only

These cases sit outside ``tests/`` so that the test suite does not run them.
A fresh draw is timed one call per round: each round's setup hands over a
token whose memo is empty and whose own key is already known, so the timed
call derives the child key, resets the shared generator and draws.
"""

import numpy as np
import pytest

from sustain.hypergrad import NeumannConfig, estimate_coupled
from sustain.oracle import IteratePair
from sustain.sampling import STREAM_UPPER, SampleToken, _mix_into, _mix_path, _stream
from sustain.testbed import (
    _NOISE_TAG,
    HyperCleanSpec,
    _sigmoid,
    generate_corrupted_dataset,
    make_hyperclean,
    make_quadratic,
    random_quadratic_spec,
)

BLOCK = 256
DRAW = ((_NOISE_TAG, 7), "standard_normal", 6)  # the quadratic's noise draw
ROUNDS = 5000


def _fresh_tokens(make_block):
    """Endless fresh tokens, one per call, taken from successive blocks.

    Row 0 of each block draws first, so the block's key table for the drawn
    suffix exists before the timed rows 1..BLOCK-1 draw."""
    root = SampleToken.root(0)
    start = 0
    while True:
        tokens = make_block(root, start, start + BLOCK)
        start += BLOCK
        tokens[0].draw(*DRAW)
        for tok in tokens[1:]:
            tok.key
            yield tok


def _bench_fresh_draw(benchmark, make_block):
    tokens = _fresh_tokens(make_block)
    benchmark.pedantic(lambda tok: tok.draw(*DRAW), setup=lambda: ((next(tokens),), {}),
                       rounds=ROUNDS, warmup_rounds=100)


def test_fresh_draw_block_token(benchmark):
    _bench_fresh_draw(benchmark, lambda root, a, b: root.children(a, b))


def test_fresh_draw_scalar_token(benchmark):
    _bench_fresh_draw(benchmark, lambda root, a, b: [root.child(t) for t in range(a, b)])


def test_memo_hit(benchmark):
    tok = SampleToken.root(0).children(0, BLOCK)[3]
    first = tok.draw(*DRAW)
    assert benchmark(tok.draw, *DRAW) is first


@pytest.mark.parametrize("path", [(0,), (1,)], ids=["same_top_bits", "mixed_top_bits"])
def test_stream_reset(benchmark, path):
    benchmark(_stream, _mix_path(path))


def test_mix_into_two_ids(benchmark):
    benchmark(_mix_into, _mix_path((0, 5)), (_NOISE_TAG, 7))


def test_block_plus_one_suffix(benchmark):
    # 256 iteration tokens and the key of (t, STREAM_UPPER) for every t
    root = SampleToken.root(0)
    root.key
    benchmark(lambda: [tok.child(STREAM_UPPER).key for tok in root.children(0, BLOCK)])


def test_sigmoid_32(benchmark):
    z = 3.0 * np.random.default_rng(0).standard_normal(32)
    benchmark(_sigmoid, z)


@pytest.mark.parametrize("n_points", [1, 2])
@pytest.mark.parametrize("K", [1, 12, 21])
def test_estimate_coupled(benchmark, K, n_points):
    # the quad-rate shape; each round takes a fresh composite sample from a
    # block, as the run loop does, and evaluates it at one point or at the
    # pair (x_t, x_{t-1}), so k varies over 0..K-1 from round to round
    spec = random_quadratic_spec(np.random.default_rng(0), d_up=3, d_lo=6, lam=0.2,
                                 sigma_f=0.4, sigma_g=0.4, sin_amp=0.5)
    oracle, _ = make_quadratic(spec, rng_seed=0)
    cfg = NeumannConfig.from_constants(oracle.constants, K)
    rng = np.random.default_rng(1)
    points = tuple(IteratePair(rng.standard_normal(3), rng.standard_normal(6))
                   for _ in range(n_points))
    tokens = _fresh_tokens(lambda root, a, b: root.children(a, b))
    benchmark.pedantic(
        estimate_coupled,
        setup=lambda: ((oracle, points, cfg, next(tokens).child(STREAM_UPPER)), {}),
        rounds=ROUNDS, warmup_rounds=100)


@pytest.mark.parametrize("capability", ["grad_y_g_sample", "hess_yy_g_sample", "hess_xy_g_sample"])
def test_hyperclean_training_capability(benchmark, capability):
    # the hyperclean-compare shape (500 training and 500 validation points,
    # d = 20, batch 32); after the first round the batch draw is a memo hit,
    # so a round times the capability's arithmetic, and one action for the
    # Hessian operators
    train, val = generate_corrupted_dataset(500, 500, 20, p=0.3, rng_seed=0)
    oracle = make_hyperclean(HyperCleanSpec(train, val, 0.3, reg=1.0, batch_size=32),
                             rng_seed=0)
    rng = np.random.default_rng(2)
    pair = IteratePair(rng.standard_normal(500), rng.standard_normal(20))
    v = rng.standard_normal(20)
    tok = SampleToken.root(0).children(0, BLOCK)[3]
    method = getattr(oracle, capability)
    if capability == "grad_y_g_sample":
        benchmark(method, pair, tok)
    else:
        benchmark(lambda: method(pair, tok)(v))
