"""Per-layer timings of the sample-token layer, the hypergradient estimator
and its truncation draw, the momentum updates, the schedules, the
hyper-cleaning and meta-learning oracles, the metric records (with and without an exact oracle)
and the trajectory CSV, and of one whole block of the quad-rate run; and
the cost of a scalar operand to a NumPy ufunc, as a Python float and as a
0-d array.

    PYTHONPATH=src python -m pytest benches -q --benchmark-only

These cases sit outside ``tests/`` so that the test suite does not run them.
A fresh draw is timed one call per round: each round's setup hands over the
next row of a block, rows in order as the run loop takes them, with an empty
memo.  On a token of ``children`` the timed call of row 0 tables the drawn
suffix and fills the call's column for the whole block, and every later row
reads it, so the mean is the cost per draw of a whole block.  Past its column
cap (``_MAX_COLUMNS``) a block serves a draw row by row: the call derives the
child key from the longest tabled prefix, resets the shared generator and
draws.  A token made from a path alone, such as a run's root, is a block of
one row and always draws alone.
"""

import operator

import numpy as np
import pytest

from sustain.driver import (
    Policy,
    RunConfig,
    _draw_return_index,
    _records,
    resolve_schedule,
    run_sustain,
)
from sustain.harness import write_trajectory_csv
from sustain.hypergrad import draw_k, estimate_coupled
from sustain.momentum import update_f, update_g
from sustain.oracle import IteratePair, constant
from sustain.sampling import (
    STREAM_K_DRAW,
    STREAM_LOWER,
    STREAM_UPPER,
    STREAM_ZETA,
    _MAX_COLUMNS,
    SampleToken,
    _mix_into,
    _mix_path,
    _stream,
)
from sustain.testbed import (
    _NOISE_TAG,
    HyperCleanOracle,
    HyperCleanSpec,
    MetaLinearOracle,
    QuadraticExact,
    _sigmoid,
    generate_corrupted_dataset,
    make_quadratic,
    random_meta_linear_spec,
    random_quadratic_spec,
)

BLOCK = 256
DRAW = ((_NOISE_TAG, 7), "standard_normal", 6)  # the quadratic's noise draw
ROUNDS = 5000


def _fresh_tokens(make_block):
    """Endless fresh tokens, one per call: every row of successive blocks,
    in order, each with an empty memo."""
    root = SampleToken.root(0)
    start = 0
    while True:
        yield from make_block(root, start, start + BLOCK)
        start += BLOCK


def _bench_fresh_draw(benchmark, make_block):
    tokens = _fresh_tokens(make_block)
    benchmark.pedantic(lambda tok: tok.draw(*DRAW), setup=lambda: ((next(tokens),), {}),
                       rounds=ROUNDS, warmup_rounds=100)


def test_fresh_draw_block_token(benchmark):
    _bench_fresh_draw(benchmark, lambda root, a, b: root.children(a, b))


def _past_caps(root, start, stop):
    """A block of the root's children whose column budget is filled first,
    by draws below a token its rows never use, so every row draws alone."""
    block = root.children(start, stop)
    filler = block[0].child(-1)
    for i in range(_MAX_COLUMNS):
        filler.draw((i,), "integers", 2)
    return block


def test_fresh_draw_past_block_caps(benchmark):
    _bench_fresh_draw(benchmark, _past_caps)


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
    # 256 iteration tokens and the draw that opens a call's column below
    # (t, STREAM_UPPER): row 0's first ask tables the suffix for every t and
    # draws the call for every row
    root = SampleToken.root(0)
    benchmark(lambda: root.children(0, BLOCK)[0].child(STREAM_UPPER).draw(*DRAW))


def test_run_root_and_return_index(benchmark):
    # a run's fixed sampling cost: its root token, a block of one row, and
    # the returned-index draw, which that block draws alone
    benchmark(lambda: _draw_return_index(SampleToken.root(0), 1000))


_BATCH = ((_NOISE_TAG, 0, 1), "integers", 0, 500, 32)  # the hyper-cleaning batch


@pytest.mark.parametrize("call,step", [
    (DRAW, BLOCK),
    (_BATCH, BLOCK),
    (((STREAM_K_DRAW,), "integers", 12), BLOCK),  # draw_k at K 12
    (((STREAM_UPPER, STREAM_ZETA, 2) + _BATCH[0], *_BATCH[1:]), 8),
], ids=["standard_normal_6", "integers_0_500_32", "integers_12", "sparse_term_integers"])
def test_column_fill(benchmark, call, step):
    # the asks of every step-th row of a fresh block, starting at row 0: the
    # first fills the call's column for all BLOCK rows, the rest read it.
    # Integers on plain ints take every row's raw words and NumPy's
    # bounded-integer rule at once.  The sparse case is a Neumann term's
    # batch that only every eighth row reaches, so it also draws the rows
    # that never ask
    root = SampleToken.root(0)
    starts = iter(range(0, 10**9, BLOCK))

    def setup():
        start = next(starts)
        return (root.children(start, start + BLOCK)[::step],), {}

    benchmark.pedantic(lambda tokens: [tok.draw(*call) for tok in tokens], setup=setup,
                       rounds=200, warmup_rounds=5)


@pytest.mark.parametrize("operand", ["python_float", "array_0d"])
@pytest.mark.parametrize("call,n", [(operator.mul, 6), (np.minimum, 64)],
                         ids=["c_times_v_6", "minimum_64"])
def test_scalar_operand(benchmark, call, n, operand):
    # a constant fixed for the run times a quad-rate vector, and the
    # sigmoid's clamp of a pair of hyper-cleaning batches: NumPy converts a
    # Python float operand on every call (NEP 50), and reads a 0-d float64
    # array as it is, which is why the run-wide constants are 0-d arrays; if
    # a NumPy release closes the gap, the two operand ids show it
    c = 0.4 if operand == "python_float" else constant(0.4)
    v = np.random.default_rng(0).standard_normal(n)
    args = (c, v) if call is operator.mul else (v, c)
    assert call(*args).tobytes() == call(*args[::-1]).tobytes()
    benchmark(call, *args)


def test_sigmoid_32(benchmark):
    z = 3.0 * np.random.default_rng(0).standard_normal(32)
    benchmark(_sigmoid, z)


def _quad_rate(sin_amp=0.5):
    """The quad-rate oracle (d_up 3, d_lo 6); without the sinusoid its outer
    objective is strongly convex, which the strongly-convex schedule needs."""
    spec = random_quadratic_spec(np.random.default_rng(0), d_up=3, d_lo=6, lam=0.2,
                                 sigma_f=0.4, sigma_g=0.4, sin_amp=sin_amp)
    return make_quadratic(spec, rng_seed=0)[0]


def _fresh_samples(stream, *args):
    """A ``benchmark.pedantic`` setup: the call's ``args`` and a fresh
    composite sample of ``stream``, one per round, as the run loop takes them
    from its iteration-token blocks."""
    tokens = _fresh_tokens(lambda root, a, b: root.children(a, b))
    return lambda: ((*args, next(tokens).child(stream)), {})


@pytest.mark.parametrize("n_points", [1, 2])
@pytest.mark.parametrize("K", [1, 12, 21])
def test_estimate_coupled(benchmark, K, n_points):
    # the quad-rate shape; each round takes a fresh composite sample from a
    # block, as the run loop does, and evaluates it at one point or at the
    # pair (x_t, x_{t-1}), so k varies over 0..K-1 from round to round
    oracle = _quad_rate()
    rng = np.random.default_rng(1)
    points = tuple(IteratePair(rng.standard_normal(3), rng.standard_normal(6))
                   for _ in range(n_points))
    benchmark.pedantic(estimate_coupled,
                       setup=_fresh_samples(STREAM_UPPER, oracle, points, K),
                       rounds=ROUNDS, warmup_rounds=100)


def test_draw_k(benchmark):
    # the truncation draw of a fresh composite sample, K 12 as in quad-rate
    benchmark.pedantic(draw_k, setup=_fresh_samples(STREAM_UPPER, 12),
                       rounds=ROUNDS, warmup_rounds=100)


def _momentum_state():
    """The trackers h_f, h_g at t >= 1 on the quad-rate shape, the previous
    iterate they were built at and the current iterate."""
    rng = np.random.default_rng(5)
    h_f, h_g = rng.standard_normal(3), rng.standard_normal(6)
    prev = IteratePair(rng.standard_normal(3), rng.standard_normal(6))
    return h_f, h_g, prev, IteratePair(rng.standard_normal(3), rng.standard_normal(6))


def test_update_g(benchmark):
    # eta_g < 1: the lower gradient at x_t and x_{t-1} on one fresh sample
    oracle = _quad_rate()
    _, h_g, prev, cur = _momentum_state()
    benchmark.pedantic(update_g, setup=_fresh_samples(STREAM_LOWER, oracle, cur, prev, h_g, 0.5),
                       rounds=ROUNDS, warmup_rounds=100)


def test_update_f(benchmark):
    # eta_f < 1 at K 12: the fresh sample evaluated at the pair (x_t, x_{t-1})
    oracle = _quad_rate()
    h_f, _, prev, cur = _momentum_state()
    benchmark.pedantic(update_f,
                       setup=_fresh_samples(STREAM_UPPER, oracle, cur, prev, h_f, 0.5, 12),
                       rounds=ROUNDS, warmup_rounds=100)


@pytest.mark.parametrize("policy", list(Policy), ids=[p.value for p in Policy])
def test_schedule(benchmark, policy):
    # one schedule(t) call of a resolved schedule, quad-rate's T and K
    cfg = RunConfig(T=1000, policy=policy, K_override=12, base_alpha=0.15)
    schedule, _ = resolve_schedule(_quad_rate(sin_amp=0.0), cfg)
    benchmark(schedule, 500)


def test_run_sustain_block(benchmark):
    # one whole block of quad-rate's run_sustain: T 256, K 12, base_alpha
    # 0.15, metric_stride 200 with the exact oracle, no tracker errors
    oracle = _quad_rate()
    cfg = RunConfig(T=BLOCK, policy=Policy.PRACTICAL, metric_stride=200, K_override=12,
                    base_alpha=0.15, record_errors=False)
    x, records = benchmark(run_sustain, oracle, QuadraticExact(oracle), cfg)
    assert [r.t for r in records] == [0, 200, BLOCK - 1]


def _hyperclean_compare():
    """The hyperclean-compare oracle: 500 training and 500 validation points,
    d = 20, batch 32."""
    train, val = generate_corrupted_dataset(500, 500, 20, p=0.3, rng_seed=0)
    return HyperCleanOracle(HyperCleanSpec(train, val, reg=1.0, batch_size=32),
                            rng_seed=0)


@pytest.mark.parametrize("capability", ["grad_y_f_sample", "grad_y_g_sample",
                                        "hess_yy_g_sample", "hess_xy_g_sample"])
def test_hyperclean_training_capability(benchmark, capability):
    # the hyperclean-compare shape (500 training and 500 validation points,
    # d = 20, batch 32); after the first round the batch draw is a memo hit,
    # so a round times the capability's arithmetic, and one action for the
    # Hessian operators; grad_y_f_sample draws its batch from the validation set
    oracle = _hyperclean_compare()
    rng = np.random.default_rng(2)
    pair = IteratePair(rng.standard_normal(500), rng.standard_normal(20))
    v = rng.standard_normal(20)
    tok = SampleToken.root(0).children(0, BLOCK)[3]
    method = getattr(oracle, capability)
    if capability.startswith("grad_"):
        benchmark(method, pair, tok)
    else:
        benchmark(lambda: method(pair, tok)(v))


@pytest.mark.parametrize("M,m", [(4, 4), (16, 4)], ids=["M4_m4", "M16_m4"])
@pytest.mark.parametrize("capability", ["grad_y_g_sample", "hess_yy_g_sample"])
def test_meta_linear_capability(benchmark, capability, M, m):
    # the make_problem shape (p 3, q 8); with m < M the task draw is a memo
    # hit after the first round, so a round times the per-task loop, and one
    # action for the Hessian operator
    oracle = MetaLinearOracle(random_meta_linear_spec(np.random.default_rng(0), M=M, p=3,
                                                      q=8, rho=1.0, m=m), rng_seed=0)
    rng = np.random.default_rng(3)
    pair = IteratePair(rng.standard_normal(3), rng.standard_normal(3 * M))
    v = rng.standard_normal(3 * M)
    tok = SampleToken.root(0).children(0, BLOCK)[3]
    if capability == "grad_y_g_sample":
        benchmark(oracle.grad_y_g_sample, pair, tok)
    else:
        benchmark(lambda: oracle.hess_yy_g_sample(pair, tok)(v))


def _grid_records_rows(n):
    """The grid-records shape (d_up 3, d_lo 6, K 20) and ``n`` record inputs
    (t, alpha, beta, eta_f, eta_g, x, y, h_f, h_g, samples, hvps)."""
    spec = random_quadratic_spec(np.random.default_rng(3), d_up=3, d_lo=6,
                                 sigma_f=0.3, sigma_g=0.3)
    oracle, exact = make_quadratic(spec, rng_seed=0)
    rng = np.random.default_rng(4)
    rows = [(t, 0.1, 0.1, 0.5, 0.5, rng.standard_normal(3), rng.standard_normal(6),
             rng.standard_normal(3), rng.standard_normal(6), 24 * (t + 1), 11 * (t + 1))
            for t in range(n)]
    return oracle, exact, rows


@pytest.mark.parametrize("record_errors", [True, False], ids=["errors", "no_errors"])
def test_records_block(benchmark, record_errors):
    # one token block of records at metric_stride 1: SUSTAIN's with the
    # tracker errors, a baseline's without
    oracle, exact, rows = _grid_records_rows(BLOCK)
    records = benchmark(_records, rows, exact, oracle, 20, record_errors)
    assert len(records) == BLOCK


def test_records_block_hyperclean(benchmark):
    # one token block of records on the hyperclean-compare shape, which has
    # no exact oracle: the stacked upper_loss over 256 iterates is the step
    rng = np.random.default_rng(6)
    rows = [(t, 0.1, 0.1, 1.0, 1.0, rng.standard_normal(500), rng.standard_normal(20),
             rng.standard_normal(500), rng.standard_normal(20), 24 * (t + 1), 11 * (t + 1))
            for t in range(BLOCK)]
    records = benchmark(_records, rows, None, _hyperclean_compare(), 3, False)
    assert len(records) == BLOCK and records[0].upper_loss is not None


def test_write_trajectory_csv_1000(benchmark, tmp_path):
    oracle, exact, rows = _grid_records_rows(1000)
    records = _records(rows, exact, oracle, 20, True)
    benchmark(write_trajectory_csv, tmp_path / "trajectory.csv", records)
