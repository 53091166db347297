import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sustain.sampling import SampleToken, _mix_path


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
