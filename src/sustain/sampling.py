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
released with it and needs no size limit.  A draw builds no generator: it
resets one module-wide Philox to the child's key (counter 0, empty buffer)
and calls ``method`` on it.  Draws are therefore not re-entrant; a lock
serialises them across threads.  ``rng()`` still returns a fresh generator
for callers that hold one.

Key quirk, kept on purpose: a path hashes to two 64-bit halves ``(a, b)``,
and ``Philox(key=(a, b))`` converts the pair through ``np.asarray``.  When
exactly one half is >= 2**63 that array is float64, so both halves are
rounded to 53 significant bits before they become the key; path ``(1,)``,
for example, is keyed by ``[17135239835083094016, 7589107670886370304]``,
not by ``_mix_path((1,))``.  ``draw`` applies the same conversion, because
changing it would change every stored stream.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

_MASK64 = (1 << 64) - 1
_MIX_INIT = (0x243F6A8885A308D3, 0x13198A2E03707344)


def _mix_into(state: tuple[int, int], ids: tuple[int, ...]) -> tuple[int, int]:
    """Extend a 128-bit mixing state by the integers ``ids``.

    Each half goes through the splitmix64 finalizer (Steele et al.), inlined
    because this runs once per drawn stream."""
    a, b = state
    for v in ids:
        v &= _MASK64
        x = ((a ^ v) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        a = x ^ (x >> 31)
        x = (((b ^ v) + a) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        b = x ^ (x >> 31)
    return a, b


def _mix_path(path: tuple[int, ...]) -> tuple[int, int]:
    """Hash an integer path into a 128-bit Philox key."""
    return _mix_into(_MIX_INIT, path)


_BITGEN = np.random.Philox(0)  # seeded so that import pulls no OS entropy
_GEN = np.random.Generator(_BITGEN)
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)
_STREAM_LOCK = threading.Lock()


def _stream(key: tuple[int, int]) -> np.random.Generator:
    """The shared generator, reset to the state ``Philox(key=key)`` starts in.

    The key goes through the conversion ``Philox`` applies (see the module
    docstring); the buffer contents are never read at ``buffer_pos`` 4."""
    _BITGEN.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": np.asarray(key).astype(np.uint64)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _GEN


class SampleToken:
    """Opaque handle identifying one stochastic sample draw.

    Equality and hashing go by ``path``.  The Philox key is computed on first
    use by extending the parent's key, so a token whose stream is never drawn
    costs one tuple concatenation.
    """

    __slots__ = ("path", "_parent", "_key", "_memo")

    def __init__(self, path: tuple[int, ...], _parent: Optional["SampleToken"] = None):
        self.path = path
        self._parent = _parent
        self._key: Optional[tuple[int, int]] = None
        self._memo: Optional[dict] = None

    @classmethod
    def root(cls, seed: int) -> "SampleToken":
        return cls((int(seed),))

    def child(self, *ids: int) -> "SampleToken":
        return SampleToken(self.path + ids, self)

    @property
    def key(self) -> tuple[int, int]:
        """The 128-bit path hash; always equal to ``_mix_path(self.path)``.
        Philox takes it through ``np.asarray``, which may round it (see the
        module docstring)."""
        if self._key is None:
            parent = self._parent
            if parent is None:
                self._key = _mix_path(self.path)
            else:
                self._key = _mix_into(parent.key, self.path[len(parent.path):])
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
            key = _mix_into(self.key, ids)
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
