"""Counter-based sample tokens.

Every stochastic oracle evaluation is a pure function of (iterate, token),
so the recursive momentum corrections can re-evaluate the exact same sample
at two different iterates bit-identically.  A token is an immutable integer
path; child tokens extend the path, and ``rng()`` maps the path to an
independent Philox stream.

Draw contract: oracle capabilities (and the estimator's truncation index)
draw their randomness only through ``token.draw(ids, method, *args)``, which
returns the values of ``getattr(token.child(*ids).rng(), method)(*args)`` and
computes them once per token object.  The memo lives on the token, so it is
released with it and needs no size limit.  A draw builds no generator: under
one lock it writes the child's key into a prebuilt Philox state (counter 0,
empty buffer), assigns that state to one module-wide Philox and calls
``method`` on it.  Draws are therefore not re-entrant; the lock serialises
them across threads.  ``rng()`` still returns a fresh generator for callers
that hold one.

Columns: the first time any row of a key block (below) of more than one
row makes a call ``(suffix, method, args)``, the block draws it for all its
rows, those that never make it included, in one loop under one hold of the
lock and from the rows' keys (so with the values each row would draw alone);
every later ask reads that column.  A row draws alone when its block has one
row, no key table for the suffix or already ``_MAX_COLUMNS`` columns.  A
column of ``integers`` on plain ints with 1 < high - low < 2**32 - 1 is
filled in one pass: each row's raw Philox words, then NumPy's bounded-integer
rule (Lemire 2019) on all rows at once, so with NumPy's values; a row where
NumPy would reject a word is drawn by NumPy's own call.  Tier-1's hypothesis
test pins these columns to the installed NumPy.

Keys: ``_mix_step`` is the one splitmix64 step (one per path id, masked to
64 bits after every add and multiply, so it gives the same bits on Python
ints and on uint64 arrays), and ``_mix_into`` loops it over a path as the
scalar definition.  Every token is a row of a key block: ``children(start,
stop)`` keys a block of sibling tokens at once, as two uint64 arrays, and a
token made from a path alone is the only row of its own block, keyed by
``_mix_path``.  A token of a block, and every token made from it with
``child``, extends the longest tabled prefix of its path suffix with
``_mix_into``; ``key`` (so also ``rng`` and ``children``) only reads.  Only a
draw writes a block: on a block of more than one row, a call's first ask
tables its suffix for every row, up to ``_MAX_TABLES`` tables a block.

Key quirk, kept on purpose: a path hashes to two 64-bit halves ``(a, b)``,
and ``Philox(key=(a, b))`` converts the pair through ``np.asarray``.  When
exactly one half is >= 2**63 that array is float64, so both halves are
rounded to 53 significant bits before they become the key; path ``(1,)``,
for example, is keyed by ``[17135239835083094016, 7589107670886370304]``,
not by ``_mix_path((1,))``.  ``draw`` applies the same rounding, in Python,
because changing it would change every stored stream.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

_MASK64 = (1 << 64) - 1
_MIX_INIT = (0x243F6A8885A308D3, 0x13198A2E03707344)
_GOLDEN, _MUL1, _MUL2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix_step(a, b, v):
    """One step of the 128-bit mixing state ``(a, b)`` by the id ``v``: the
    splitmix64 finalizer (Steele et al.) on each half.  The masks make the
    arithmetic wrap mod 2**64 on Python ints as uint64 arrays (scalars
    broadcast) do by themselves."""
    x = ((a ^ v) + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK64
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK64
    a = x ^ (x >> 31)
    x = (((b ^ v) + a) + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK64
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK64
    return a, x ^ (x >> 31)


def _mix_into(state: tuple[int, int], ids: tuple[int, ...]) -> tuple[int, int]:
    """Extend a 128-bit mixing state by the integers ``ids``."""
    a, b = state
    for v in ids:
        a, b = _mix_step(a, b, v & _MASK64)
    return a, b


def _mix_path(path: tuple[int, ...]) -> tuple[int, int]:
    """Hash an integer path into a 128-bit Philox key."""
    return _mix_into(_MIX_INIT, path)


# the most tables and columns a block keeps; the benchmark needs at most 60
# and 15 (hyper-cleaning's DoubleLoop(10) at K = 3)
_MAX_TABLES = 128
_MAX_COLUMNS = 16


class _KeyBlock:
    """Keys of sibling tokens ``parent.path + (t,)``, or of one token made
    from its path, one row per token, and columns of the values drawn from them.

    ``_halves[suffix]`` holds the two key halves of ``row path + suffix`` for
    every row, and ``_columns[(suffix, method, args)]`` a call's values for
    every row.  Only ``draw`` writes them, on a block of more than one row: a
    call's first ask tables its suffix while the block has fewer than
    ``_MAX_TABLES`` tables (a deep Neumann series draws one suffix per term),
    and opens the call's column while it has fewer than ``_MAX_COLUMNS``.
    """

    __slots__ = ("depth", "_halves", "_columns")

    def __init__(self, depth: int, a: np.ndarray, b: np.ndarray):
        self.depth = depth  # path length of the block's rows
        self._halves = {(): (a, b)}
        self._columns = {}

    def _tabled(self, suffix: tuple[int, ...]):
        """The length of ``suffix``'s longest tabled prefix, and its halves."""
        n = len(suffix)
        while suffix[:n] not in self._halves:
            n -= 1
        return n, self._halves[suffix[:n]]

    def key(self, suffix: tuple[int, ...], row: int) -> tuple[int, int]:
        """Row ``row``'s key of ``suffix``, its longest tabled prefix extended
        with ``_mix_into``.  It writes nothing: only ``draw`` tables a suffix."""
        n, (a, b) = self._tabled(suffix)
        return _mix_into((a.item(row), b.item(row)), suffix[n:])

    def draw(self, suffix: tuple[int, ...], row: int, method: str, args: tuple):
        """Row ``row``'s values of ``method(*args)`` on its stream ``suffix``."""
        call = (suffix, method, args)
        column = self._columns.get(call)
        if column is not None:
            return column[row]
        n, (a, b) = self._tabled(suffix)
        if len(a) > 1:  # a block of one row draws alone
            while n < len(suffix) and len(self._halves) < _MAX_TABLES:
                a, b = self._halves[suffix[:n + 1]] = _mix_step(a, b, suffix[n] & _MASK64)
                n += 1
            if n == len(suffix) and len(self._columns) < _MAX_COLUMNS:
                column = self._columns[call] = _column(zip(a.tolist(), b.tolist()), method, args)
                return column[row]
        return _draws((_mix_into((a.item(row), b.item(row)), suffix[n:]),), method, args)[0]


_BITGEN = np.random.Philox(0)  # seeded so that import pulls no OS entropy
_GEN = np.random.Generator(_BITGEN)
_STREAM_LOCK = threading.Lock()
_KEY = [0, 0]
_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": (0, 0, 0, 0), "key": _KEY},
    "buffer": (0, 0, 0, 0),  # never read at buffer_pos 4
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


def _stream(key: tuple[int, int]) -> np.random.Generator:
    """The shared generator, reset to the state ``Philox(key=key)`` starts in.

    Call it holding ``_STREAM_LOCK``.  The key goes through the conversion
    ``Philox`` applies (see the module docstring): with mixed top bits both
    halves are rounded as ``np.asarray`` rounds them to float64, unless a
    half rounds to 2**64, where NumPy's own cast is kept."""
    a, b = key
    if a >> 63 != b >> 63:
        a, b = int(float(a)), int(float(b))
        if a > _MASK64 or b > _MASK64:
            a, b = (int(h) for h in np.asarray(key).astype(np.uint64))
    _KEY[0] = a
    _KEY[1] = b
    _BITGEN.state = _STATE
    return _GEN


def _draws(keys, method: str, args: tuple) -> list:
    """``method(*args)`` on each key's stream, under one hold of the lock;
    arrays are read-only, as every later call with the same arguments shares them."""
    with _STREAM_LOCK:
        values = [getattr(_stream(key), method)(*args) for key in keys]
    for value in values:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return values


def _column(keys, method: str, args: tuple) -> list:
    """``_draws(keys, method, args)``, for ``integers`` with plain int ``low``,
    ``high`` and ``size >= 1`` and 1 < r = high - low < 2**32 - 1 computed as
    NumPy computes it: the value of a uint32 word u is ``low + (u * r >> 32)``,
    and a row where NumPy rejects a word, ``(u * r) % 2**32 < 2**32 % r``,
    is drawn again by NumPy's call."""
    if method != "integers" or not 0 < len(args) < 4 or any(type(a) is not int for a in args):
        return _draws(keys, method, args)
    low, high, size = (0, *args, None) if len(args) == 1 else (*args, None)[:3]
    r, n = high - low, 1 if size is None else size
    if not (1 < r < 2**32 - 1 and n > 0 and -2**63 <= low and high <= 2**63):
        return _draws(keys, method, args)
    keys = list(keys)
    n_raw = (n + 1) // 2 if n > 2 else None  # None: one word, as a Python int
    with _STREAM_LOCK:
        raw = []
        for key in keys:
            _stream(key)
            raw.append(_BITGEN.random_raw(n_raw))
        words = np.array(raw, dtype=np.uint64).reshape(len(keys), -1)
        # NumPy takes each 64-bit word's low 32 bits first, then its high ones;
        # all in uint64, as a uint32 view cast to uint64 raised peak RSS 0.5 MB
        u = np.stack((words & 0xFFFFFFFF, words >> 32), axis=-1).reshape(len(keys), -1)
        m = u[:, :n] * r
        values = (m >> 32).view(np.int64)  # below 2**32, so the same numbers
        values += low
        for i in np.flatnonzero(((m & 0xFFFFFFFF) < 2**32 % r).any(axis=1)):
            values[i] = _stream(keys[i]).integers(*args)
    values.setflags(write=False)
    return list(values[:, 0]) if size is None else list(values)


_new_token = object.__new__


class SampleToken:
    """Opaque handle identifying one stochastic sample draw.

    Equality and hashing go by ``path``.  The token is row ``_row`` of the
    key block ``_block``; made from a path alone, it is the only row of its
    own block.  Its Philox key is read from the block's tables when it is
    used, so a child whose stream is never drawn costs one tuple concatenation.
    """

    __slots__ = ("path", "_memo", "_block", "_row")

    def __init__(self, path: tuple[int, ...], _block: Optional[_KeyBlock] = None,
                 _row: int = 0):
        self.path = path
        self._memo: Optional[dict] = None
        if _block is None:
            _block = _KeyBlock(len(path), *np.array([_mix_path(path)], dtype=np.uint64).T)
        self._block = _block
        self._row = _row

    @classmethod
    def root(cls, seed: int) -> "SampleToken":
        return cls((int(seed),))

    def child(self, *ids: int) -> "SampleToken":
        # filled in place, at half the cost of a call of the class
        tok = _new_token(SampleToken)
        tok.path = self.path + ids
        tok._memo = None
        tok._block, tok._row = self._block, self._row
        return tok

    def children(self, start: int, stop: int) -> list["SampleToken"]:
        """The tokens ``self.child(t)`` for t in ``range(start, stop)``, keyed
        from one table of the block; a draw call's column covers every row
        (see the module docstring)."""
        a, b = self.key
        ts = range(start, stop)
        v = np.array([t & _MASK64 for t in ts], dtype=np.uint64)
        block = _KeyBlock(len(self.path) + 1, *_mix_step(a, b, v))
        return [SampleToken(self.path + (t,), block, row) for row, t in enumerate(ts)]

    @property
    def key(self) -> tuple[int, int]:
        """The 128-bit path hash, read from the block's tables (it writes
        nothing); always equal to ``_mix_path(self.path)``.  Philox takes it
        through ``np.asarray``, which may round it (see the module docstring)."""
        return self._block.key(self.path[self._block.depth:], self._row)

    def rng(self) -> np.random.Generator:
        """Fresh generator; identical tokens always yield identical streams."""
        return np.random.Generator(np.random.Philox(key=self.key))

    def draw(self, ids: tuple[int, ...], method: str, *args):
        """The values of ``getattr(self.child(*ids).rng(), method)(*args)``,
        computed once per token object and per distinct call: taken from the
        block's column, or drawn alone from the shared generator reset to the
        child's key (see the module docstring).  Arrays are returned read-only."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        call = (ids, method, args)
        value = memo.get(call)
        if value is None:
            block = self._block
            value = memo[call] = block.draw(self.path[block.depth:] + ids, self._row, method, args)
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleToken):
            return NotImplemented
        return self.path == other.path

    def __hash__(self) -> int:
        return hash(self.path)

    def __repr__(self) -> str:
        return f"SampleToken(path={self.path!r})"


# Stream tags used when deriving sub-tokens.  Kept in one place so the
# composite upper-level sample and the driver never collide.
STREAM_LOWER = 0       # zeta_t for the lower-level gradient
STREAM_UPPER = 1       # composite xi-bar for the upper-level estimator
STREAM_K_DRAW = 2      # uniform truncation index k(K)
STREAM_XI = 3          # upper-level gradient sample xi (shared by grad_x/grad_y)
STREAM_ZETA = 4        # Hessian samples zeta^(0..K); pair with an index
STREAM_RETURN = 5      # the returned-iterate index a(T)
