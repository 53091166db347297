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

Keys: ``_mix_step`` is the one splitmix64 step (one per path id, masked to
64 bits after every add and multiply, so it gives the same bits on Python
ints and on uint64 arrays), and ``_mix_into`` loops it over a path as the
scalar definition.  ``children(start, stop)`` keys a block of sibling tokens
at once, as two uint64 arrays.  A token of the block, and every token made
from it with ``child``, reads its key from the block's table; the first time
any of them needs the key of a path suffix, that suffix is keyed for the
whole block and kept for the siblings.  Any other token hashes its own path
the first time its key is needed.

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


class _KeyBlock:
    """Keys of sibling tokens ``parent.path + (t,)``, one row per token.

    ``halves(suffix)`` holds the two key halves of ``row path + suffix`` for
    every row, derived from the shorter suffix the first time it is asked for.
    """

    __slots__ = ("depth", "_halves")

    def __init__(self, depth: int, a: np.ndarray, b: np.ndarray):
        self.depth = depth  # path length of the block's rows
        self._halves = {(): (a, b)}

    def halves(self, suffix: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        found = self._halves.get(suffix)
        if found is None:
            a, b = self.halves(suffix[:-1])
            found = self._halves[suffix] = _mix_step(a, b, suffix[-1] & _MASK64)
        return found

    def key(self, suffix: tuple[int, ...], row: int) -> tuple[int, int]:
        a, b = self.halves(suffix)
        return a.item(row), b.item(row)


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


class SampleToken:
    """Opaque handle identifying one stochastic sample draw.

    Equality and hashing go by ``path``.  The Philox key is computed on first
    use, from the key table of the block the token descends from or else by
    hashing the path, so a token whose stream is never drawn costs one tuple
    concatenation.
    """

    __slots__ = ("path", "_key", "_memo", "_block", "_row")

    def __init__(self, path: tuple[int, ...], _block: Optional[_KeyBlock] = None,
                 _row: int = 0):
        self.path = path
        self._key: Optional[tuple[int, int]] = None
        self._memo: Optional[dict] = None
        self._block = _block
        self._row = _row

    @classmethod
    def root(cls, seed: int) -> "SampleToken":
        return cls((int(seed),))

    def child(self, *ids: int) -> "SampleToken":
        return SampleToken(self.path + ids, self._block, self._row)

    def children(self, start: int, stop: int) -> list["SampleToken"]:
        """The tokens ``self.child(t)`` for t in ``range(start, stop)``, keyed
        from one table of the block (see the module docstring)."""
        a, b = self.key
        ts = range(start, stop)
        v = np.array([t & _MASK64 for t in ts], dtype=np.uint64)
        block = _KeyBlock(len(self.path) + 1, *_mix_step(a, b, v))
        return [SampleToken(self.path + (t,), block, row) for row, t in enumerate(ts)]

    def _key_of(self, ids: tuple[int, ...]) -> tuple[int, int]:
        block = self._block
        if block is None:
            return _mix_into(self.key, ids)
        return block.key(self.path[block.depth:] + ids, self._row)

    @property
    def key(self) -> tuple[int, int]:
        """The 128-bit path hash; always equal to ``_mix_path(self.path)``.
        Philox takes it through ``np.asarray``, which may round it (see the
        module docstring)."""
        if self._key is None:
            if self._block is None:
                self._key = _mix_path(self.path)
            else:
                self._key = self._key_of(())
        return self._key

    def rng(self) -> np.random.Generator:
        """Fresh generator; identical tokens always yield identical streams."""
        return np.random.Generator(np.random.Philox(key=self.key))

    def draw(self, ids: tuple[int, ...], method: str, *args):
        """The values of ``getattr(self.child(*ids).rng(), method)(*args)``,
        computed once per token object and per distinct call from the shared
        generator reset to the child's key.  Arrays are returned read-only
        because every later call with the same arguments shares them."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        call = (ids, method, args)
        value = memo.get(call)
        if value is None:
            key = self._key_of(ids)
            with _STREAM_LOCK:
                value = getattr(_stream(key), method)(*args)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            memo[call] = value
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
