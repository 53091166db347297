import gc
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sustain.sampling
from sustain.sampling import (
    _MAX_COLUMNS,
    _MAX_TABLES,
    SampleToken,
    _mix_path,
    _stream,
)

_ID = st.integers(-(2**70), 2**70)


def test_same_token_same_stream():
    a = SampleToken.root(7).child(3, 1)
    b = SampleToken.root(7).child(3, 1)
    assert np.array_equal(a.rng().standard_normal(10), b.rng().standard_normal(10))


def test_rng_is_replayable():
    tok = SampleToken.root(0).child(5)
    assert np.array_equal(tok.rng().standard_normal(4), tok.rng().standard_normal(4))


def test_children_are_distinct():
    root = SampleToken.root(1)
    draws = {root.child(i).rng().integers(0, 2**63) for i in range(200)}
    assert len(draws) == 200


def test_distinct_seeds_distinct_streams():
    xs = {SampleToken.root(s).rng().integers(0, 2**63) for s in range(200)}
    assert len(xs) == 200


def test_child_appends_to_path():
    tok = SampleToken.root(9).child(1).child(2, 3)
    assert tok.path[-3:] == (1, 2, 3)


def test_sibling_and_nested_paths_do_not_collide():
    root = SampleToken.root(4)
    a = root.child(1, 2).rng().integers(0, 2**63)
    b = root.child(1).child(2).rng().integers(0, 2**63)
    # (1, 2) as one call and as two calls name the same stream
    assert a == b
    c = root.child(2, 1).rng().integers(0, 2**63)
    assert a != c


def test_no_stream_collisions_across_disjoint_seeds():
    # first draws from many (seed, iteration) cells are all distinct
    draws = set()
    for seed in range(20):
        root = SampleToken.root(seed)
        for t in range(50):
            draws.add(int(root.child(t).rng().integers(0, 2**63)))
    assert len(draws) == 20 * 50


@pytest.mark.parametrize("path, key", [
    ((0,), (3220344897584144929, 8837397457878254965)),
    ((7, 3, 1), (9488490150761698738, 596136240284820398)),
    ((2**64 + 5, -1, 12345678901234567890),
     (3800407894664393745, 3866410255975316845)),
])
def test_path_keys_are_pinned(path, key):
    # the streams every stored trajectory was drawn from
    assert _mix_path(path) == key
    assert SampleToken(path).key == key


@settings(max_examples=200, deadline=None)
@given(
    path=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=8),
    cuts=st.lists(st.integers(0, 8), max_size=4),
)
def test_incremental_key_equals_path_hash(path, cuts):
    # grow the token through children split at arbitrary points; its key is
    # the hash of the full path however the path was assembled
    tok = SampleToken((path[0],))
    start = 1
    for cut in sorted(c for c in cuts if 1 <= c < len(path)) + [len(path)]:
        tok = tok.child(*path[start:cut])
        start = max(start, cut)
    assert tok.path == tuple(path)
    assert tok.key == _mix_path(tuple(path))


def test_child_holds_no_reference_to_its_parent():
    # a child shares its parent's key block, not the parent, so it does not
    # keep the parent or the parent's memo alive
    parent = SampleToken.root(5).child(1)
    parent.draw((101, 2), "standard_normal", 3)
    child = parent.child(2, 3)
    assert child.key == _mix_path(child.path)
    assert parent not in gc.get_referents(child)


def test_equality_and_hash_by_path():
    a = SampleToken.root(3).child(1, 2)
    b = SampleToken((3, 1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != SampleToken((3, 2, 1))
    assert len({a, b}) == 1


def test_draw_is_memoized_and_read_only():
    tok = SampleToken.root(8).child(4)
    first = tok.draw((101, 2), "standard_normal", 5)
    assert np.array_equal(first, tok.child(101, 2).rng().standard_normal(5))
    assert tok.draw((101, 2), "standard_normal", 5) is first
    assert not first.flags.writeable
    # a different call on the same token is a different draw
    assert tok.draw((101, 2), "standard_normal", 6)[:5].tolist() == first.tolist()
    assert tok.draw((101, 3), "standard_normal", 5).tolist() != first.tolist()
    # an equal token object starts with an empty memo but draws the same values
    other = SampleToken((8, 4)).draw((101, 2), "standard_normal", 5)
    assert other is not first and np.array_equal(other, first)


def test_philox_key_rounding_is_pinned():
    # one half >= 2**63 and one below: np.asarray makes the pair float64, so
    # Philox keys the stream with both halves rounded.  Kept on purpose
    key = _mix_path((1,))
    assert key == (17135239835083093536, 7589107670886370289)
    rounded = [17135239835083094016, 7589107670886370304]
    assert SampleToken((1,)).rng().bit_generator.state["state"]["key"].tolist() == rounded
    assert _stream(key).bit_generator.state["state"]["key"].tolist() == rounded


_HALF = 2**63
_DRAWS = [
    ("standard_normal", (5,)),
    ("integers", (7,)),
    ("integers", (0, 1000, 9)),
    ("choice", (12, 4, False)),
]


def _same_bits(a, b):
    return (type(a) is type(b) and np.asarray(a).dtype == np.asarray(b).dtype
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


@st.composite
def _paths_by_half_order(draw):
    # a random path extended by the first index that gives its key the drawn
    # order around 2**63: both halves below, one on each side, or both above
    path = tuple(draw(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=6)))
    highs = draw(st.sampled_from([0, 1, 2]))
    j = next(j for j in range(10_000)
             if sum(h >= _HALF for h in _mix_path(path + (j,))) == highs)
    return path + (j,)


@settings(max_examples=150, deadline=None)
@given(path=_paths_by_half_order(), split=st.integers(1, 7), which=st.sampled_from(range(len(_DRAWS))))
def test_draw_equals_fresh_child_generator(path, split, which):
    split = min(split, len(path) - 1)
    method, args = _DRAWS[which]
    tok = SampleToken(path[:-split])
    ids = path[-split:]
    fresh = getattr(tok.child(*ids).rng(), method)(*args)
    assert _same_bits(tok.draw(ids, method, *args), fresh)


def test_interleaved_draws_leave_no_buffered_state():
    # B's 32-bit integers leave half a 64-bit word buffered in the shared
    # generator; the next draw must start from its own key's fresh state.
    # The np.int64 bound sends the draws to NumPy's own call, as a column of
    # integers on plain ints is filled from raw words
    a, b = SampleToken.root(11).child(2), SampleToken.root(12).child(2)
    high = np.int64(10)
    first = a.draw((1,), "integers", 0, high, 3)
    assert _same_bits(first, a.child(1).rng().integers(0, 10, 3))
    mid = b.draw((1,), "integers", 0, high, 3)
    assert _same_bits(mid, b.child(1).rng().integers(0, 10, 3))
    assert sustain.sampling._BITGEN.state["has_uint32"] == 1
    again = SampleToken((11, 2)).draw((1,), "integers", 0, high, 3)
    assert again is not first and _same_bits(again, first)
    normal = a.draw((1,), "standard_normal", 4)
    assert _same_bits(normal, a.child(1).rng().standard_normal(4))


def test_threads_draw_their_own_streams():
    # four threads share the one generator; a reset from another thread
    # between a draw's reset and its values would give a wrong stream
    n_threads, n_draws = 4, 1000
    results = {}

    def work(i):
        root = SampleToken.root(100 + i)
        results[i] = [root.draw((j,), "standard_normal", 4) for j in range(n_draws)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i in range(n_threads):
        root = SampleToken.root(100 + i)
        assert all(np.array_equal(v, root.child(j).rng().standard_normal(4))
                   for j, v in enumerate(results[i]))


@settings(max_examples=150, deadline=None)
@given(
    base=st.lists(_ID, min_size=1, max_size=4),
    start=_ID,
    size=st.integers(0, 40),
    suffixes=st.lists(st.lists(_ID, max_size=3), max_size=4),
    rows=st.lists(st.integers(0, 39), max_size=4),
    warning_action=st.sampled_from(["default", "error"]),
    full=st.booleans(),
)
@example(base=[0], start=0, size=256, suffixes=[[1], [4, 3], [101, 7]], rows=[0, 255],
         warning_action="error", full=False)
@example(base=[0], start=0, size=256, suffixes=[[1], [4, 3], [101, 7]], rows=[0, 255],
         warning_action="error", full=True)
def test_block_keys_equal_path_hash(base, start, size, suffixes, rows, warning_action, full):
    # keys of block tokens and of every child and draw below them, looked up
    # in the block's tables, equal the scalar definition of the full path;
    # under "error" the wrapping uint64 steps are shown not to warn.  A full
    # block has no room for another table: its rows key new suffixes alone.
    # It is filled by one draw on a suffix longer than the budget, which
    # tables its prefixes until there is no room and then draws alone
    with warnings.catch_warnings():
        warnings.simplefilter(warning_action)
        parent = SampleToken(tuple(base))
        block = parent.children(start, start + size)
        assert [tok.path for tok in block] == [tuple(base) + (t,)
                                               for t in range(start, start + size)]
        tables = block[0]._block._halves if size else {}
        if full and size > 1:
            long = tuple(2**70 + i for i in range(_MAX_TABLES))
            assert _same_bits(block[0].draw(long, "standard_normal", 2),
                              block[0].child(*long).rng().standard_normal(2))
            assert len(tables) == _MAX_TABLES
            for n in range(len(long) + 1):
                tok = block[-1].child(*long[:n])
                assert tok.key == _mix_path(tok.path)
        for row in rows if size else []:
            tok = block[row % size]
            assert tok.key == _mix_path(tok.path)
            for ids in suffixes:
                tok = tok.child(*ids)
                assert tok.key == _mix_path(tok.path)
            ids = (101, start)
            assert _same_bits(tok.draw(ids, "integers", 0, 2**62, 2),
                              SampleToken(tok.path).draw(ids, "integers", 0, 2**62, 2))
        # every sibling reads the tables its first sibling's draws filled
        for tok in block:
            for ids in suffixes:
                tok = tok.child(*ids)
            assert tok.key == _mix_path(tok.path)
        if full and size > 1:
            assert len(tables) == _MAX_TABLES
        if size == 1:  # a block of one row draws alone and tables nothing
            assert len(tables) == 1


_ROWS = 12


@settings(max_examples=100, deadline=None)
@given(order=st.permutations(range(_ROWS)), asks=st.integers(1, _ROWS),
       sub=st.lists(_ID, max_size=2), which=st.sampled_from(range(len(_DRAWS))),
       full=st.booleans())
@example(order=list(range(_ROWS)), asks=_ROWS, sub=[], which=0, full=False)
@example(order=list(range(_ROWS)), asks=_ROWS, sub=[1, 4], which=2, full=False)
@example(order=list(range(_ROWS)), asks=_ROWS, sub=[3], which=1, full=True)
@example(order=[_ROWS - 1, 5, 0], asks=3, sub=[], which=3, full=False)
def test_block_draws_equal_fresh_child_generator(order, asks, sub, which, full):
    # only the first ``asks`` rows of ``order`` make the call, as only the
    # rows whose truncation index reaches a Neumann term draw its samples;
    # each gets the values of a fresh generator on the full path, also
    # through tokens made with child and past the table budget.  The first
    # ask opens the call's column for every row, unless the table budget is
    # full; the column's values, like the others, are read-only and kept in
    # the token's memo.  One draw on a suffix longer than the budget fills
    # the tables and, drawn alone, opens no column
    method, args = _DRAWS[which]
    block = SampleToken.root(9).children(0, _ROWS)
    if full:
        block[0].draw(tuple(2**70 + i for i in range(_MAX_TABLES)), "standard_normal", 1)
        assert len(block[0]._block._halves) == _MAX_TABLES
    columns = block[0]._block._columns
    ids = (101, 7)
    for row in order[:asks]:
        tok = block[row].child(*sub)
        value = tok.draw(ids, method, *args)
        assert _same_bits(value, getattr(tok.child(*ids).rng(), method)(*args))
        assert tok.draw(ids, method, *args) is value
        assert not isinstance(value, np.ndarray) or not value.flags.writeable
        assert len(columns) == (not full)
    assert all(len(column) == _ROWS for column in columns.values())


def test_token_from_a_path_keeps_its_block_bounded():
    # a token made from its path is the one row of its own block; asked for
    # 300 distinct child suffixes it draws each value of the fresh child
    # generator alone, and keeps only its own key and no column
    tok = SampleToken((6, 2))
    assert tok._block._halves[()][0].shape == (1,)
    for i in range(300):
        for method, args in (("integers", (0, 1000, 3)), ("standard_normal", (2,))):
            assert _same_bits(tok.draw((i,), method, *args),
                              getattr(tok.child(i).rng(), method)(*args))
    assert len(tok._block._halves) == 1
    assert len(tok._block._columns) == 0


def test_root_draws_alone_and_keeps_no_column():
    # a run's root is a block of one row: each draw, of every form, has the
    # fresh child generator's values and opens no column
    root = SampleToken.root(7)
    for i, (method, args) in enumerate(_DRAWS):
        for ids in ((5,), (i, 3)):
            assert _same_bits(root.draw(ids, method, *args),
                              getattr(root.child(*ids).rng(), method)(*args))
    assert len(root._block._halves) == 1
    assert len(root._block._columns) == 0


def test_key_writes_nothing():
    # keys of 300 distinct suffixes of a block of many rows are read from
    # its tables, and leave them as they were
    block = SampleToken.root(3).children(0, _ROWS)
    block[0].draw((101, 7), "standard_normal", 2)
    halves = dict(block[0]._block._halves)
    for i in range(300):
        tok = block[i % _ROWS].child(101, i)
        assert tok.key == _mix_path(tok.path)
    assert list(block[0]._block._halves) == list(halves)


def test_block_columns_are_bounded():
    # past _MAX_COLUMNS calls the rows draw alone, with the same values
    block = SampleToken.root(4).children(0, _ROWS)
    for n in range(_MAX_COLUMNS + 3):
        for tok in block:
            assert _same_bits(tok.draw((101, n), "standard_normal", 2),
                              tok.child(101, n).rng().standard_normal(2))
    assert len(block[0]._block._columns) == _MAX_COLUMNS


# a column of integers(low, high[, size]) on plain ints with 1 < r = high -
# low < 2**32 - 1 is computed from raw words by NumPy's bounded-integer rule;
# these ranges put every word on the rule's edges or send other forms to
# NumPy's call: half the words are rejected at r = 2**31 + 1, a quarter land
# exactly on the threshold 2**32 % r at r = 3 * 2**30, and r = 1, 2**32 - 1
# and r >= 2**32 are drawn by NumPy's own call
_COLUMN_ROWS = 32
_RANGES = [2, 3, 500, 2**31 + 1, 3 * 2**30, 2**32 - 2, 1, 2**32 - 1, 2**32, 2**40]


def _numpy_rejects(tok, args):
    """Whether NumPy's ``integers(*args)`` on ``tok``'s stream rejects a word:
    it then stands further along the stream than ``size`` words."""
    n = args[2] if len(args) == 3 else 1
    a, b = tok.rng(), tok.rng()
    a.integers(*args)
    b.integers(0, 2**32, n, dtype=np.uint32)  # reads exactly n words
    return (a.integers(0, 2**32, 4, dtype=np.uint32).tolist()
            != b.integers(0, 2**32, 4, dtype=np.uint32).tolist())


def _check_integer_column(block, args):
    """Every row of ``block`` draws, in order, the values of NumPy's call on
    its stream, read-only; each row's stream is reset once, at the first
    row's ask, and for a filled form a second time where NumPy rejects a
    word."""
    calls = {}
    stream = sustain.sampling._stream

    def counting_stream(key):
        calls[key] = calls.get(key, 0) + 1
        return stream(key)

    ids = (101, 7)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sustain.sampling, "_stream", counting_stream)
        first = block[0].draw(ids, "integers", *args)
        resets = sum(calls.values())
        values = [first] + [tok.draw(ids, "integers", *args) for tok in block[1:]]
    assert sum(calls.values()) == resets
    low, high = (0, args[0]) if len(args) == 1 else args[:2]
    filled = all(type(a) is int for a in args) and 1 < high - low < 2**32 - 1
    for tok, value in zip(block, values):
        child = tok.child(*ids)
        assert _same_bits(value, getattr(child.rng(), "integers")(*args))
        assert not isinstance(value, np.ndarray) or not value.flags.writeable
        redrawn = filled and _numpy_rejects(child, args)
        assert calls[child.key] == 1 + redrawn
    assert len(block[0]._block._columns) == 1


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64), form=st.sampled_from([1, 2, 3]),
       r=st.one_of(st.sampled_from(_RANGES), st.integers(2, 2**32 - 2)),
       low=st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(2**62), 2**62)),
       size=st.one_of(st.sampled_from([1, 2, 3, 31, 32, 33]), st.integers(1, 70)),
       wrap=st.booleans())
@example(seed=0, form=3, r=500, low=0, size=32, wrap=False)
@example(seed=0, form=1, r=12, low=0, size=1, wrap=False)
@example(seed=1, form=3, r=2**31 + 1, low=-5, size=7, wrap=False)
@example(seed=2, form=3, r=3 * 2**30, low=3, size=1, wrap=False)
@example(seed=3, form=3, r=500, low=0, size=32, wrap=True)
def test_integer_columns_equal_numpy(seed, form, r, low, size, wrap):
    # the one-, two- and three-argument forms, with np.int64 arguments too,
    # which NumPy's call draws; the rows' keys fall in all three half orders
    # around 2**63 (pinned for the examples' seeds by the next test)
    args = {1: (r,), 2: (low, low + r), 3: (low, low + r, size)}[form]
    if wrap:
        args = tuple(np.int64(a) for a in args)
    block = SampleToken.root(seed).children(0, _COLUMN_ROWS)
    _check_integer_column(block, args)


def test_integer_column_rows_cover_every_half_order():
    # the examples above draw rows keyed with both halves below 2**63, one on
    # each side (rounded by Philox's float conversion) and both above
    for seed in range(4):
        block = SampleToken.root(seed).children(0, _COLUMN_ROWS)
        orders = {sum(h >= _HALF for h in tok.child(101, 7).key) for tok in block}
        assert orders == {0, 1, 2}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64), on=st.booleans(), size=st.sampled_from([1, 2, 5]))
def test_integer_column_follows_numpy_threshold_exactly(seed, on, size):
    # r picked from a column row's first word u so that u * r % 2**32 is the
    # threshold 2**32 % r (kept) or one below it (rejected, drawn again);
    # for r > 2**31 the threshold is 2**32 - r
    block = SampleToken.root(seed).children(0, _COLUMN_ROWS)
    for tok in block:
        u = int(tok.child(101, 7).rng().integers(0, 2**32, dtype=np.uint32))
        if on and u % 4 == 3:
            r = 3 * 2**30
        elif not on and u % 2 == 0:
            r = -pow(u + 1, -1, 2**32) % 2**32
        else:
            continue
        if 2**31 < r < 2**32 - 1:
            break
    else:
        return
    assert u * r % 2**32 == 2**32 % r - (not on)
    _check_integer_column(block, (0, r, size))


_LOW = st.integers(0, 2**63 - 1)
_HIGH = st.one_of(st.integers(2**63, 2**64 - 1), st.integers(2**64 - 1024, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(key=st.one_of(st.tuples(_LOW, _LOW), st.tuples(_LOW, _HIGH),
                     st.tuples(_HIGH, _LOW), st.tuples(_HIGH, _HIGH)))
@example(key=(2**64 - 1, 5))
@example(key=(5, 2**64 - 1024))
def test_stream_rounds_keys_like_numpy(key):
    # both halves below 2**63, mixed, or both above; with mixed halves a half
    # from 2**64 - 1024 up rounds to 2**64, and NumPy's cast (with its
    # RuntimeWarning) is kept
    with warnings.catch_warnings(record=True) as numpy_warned:
        warnings.simplefilter("always")
        expected = np.asarray(key).astype(np.uint64).tolist()
    with warnings.catch_warnings(record=True) as stream_warned:
        warnings.simplefilter("always")
        got = _stream(key).bit_generator.state["state"]["key"].tolist()
    assert got == expected
    assert [w.category for w in stream_warned] == [w.category for w in numpy_warned]


def test_stream_keeps_numpy_cast_when_a_half_rounds_to_2_64():
    key = (2**64 - 1, 5)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        expected = np.asarray(key).astype(np.uint64).tolist()
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert _stream(key).bit_generator.state["state"]["key"].tolist() == expected
