"""Per-layer timings of the sample-token layer and the hyper-cleaning sigmoid.

    PYTHONPATH=src python -m pytest benches -q --benchmark-only

These cases sit outside ``tests/`` so that the test suite does not run them.
A fresh draw is timed one call per round: each round's setup hands over a
token whose memo is empty and whose own key is already known, so the timed
call derives the child key, resets the shared generator and draws.
"""

import numpy as np
import pytest

from sustain.sampling import STREAM_UPPER, SampleToken, _mix_into, _mix_path, _stream
from sustain.testbed import _NOISE_TAG, _sigmoid

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
