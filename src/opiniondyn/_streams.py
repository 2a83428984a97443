"""numpy's spawned random substreams, drawn for many spawn keys at once.

``substream_doubles(seed, start, stop, k)[i]`` is bit for bit
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,))).random(k)``
with ``t = start + i``.  Building one ``SeedSequence`` and one ``Generator``
per key costs tens of microseconds; here the three stages run as array
arithmetic over the keys instead:

1. ``SeedSequence`` hashing: every entropy word but the last depends on the
   seed alone, so numpy's own ``SeedSequence(seed)`` mixes them once; only
   the spawn-key word ``t`` and ``generate_state(4, uint64)`` run as uint32
   arrays.
2. ``PCG64``: the 128-bit state that gives output j is, after ``srandom``,
   the closed form ``MULT^(j+2)·s + (1 + MULT + … + MULT^(j+2))·inc``
   (mod 2^128) of the seed words ``s`` and ``inc``, evaluated on pairs of
   uint64 arrays and output by XSL-RR.
3. Doubles: ``(u >> 11) · 2^-53``, the map ``Generator.random`` and
   ``Generator.uniform`` use.

The constants and the order of operations are numpy's
(``numpy/random/bit_generator.pyx`` and ``numpy/random/src/pcg64``); the
tests compare the output with numpy's own per-key ``Generator``, so a change
to numpy's streams shows there.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MAX_KEYS = 1 << 32  # a spawn key past this takes two entropy words
_BLOCK = 1 << 16  # doubles per block: the temporaries are a few (2, rows, k) uint64 arrays


def _hash_constants(init: int, mult: int, count: int) -> tuple[list[int], list[int]]:
    """The (xor, multiply) pair each of ``count`` successive hashes uses."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = init * mult & _M32
        mults.append(init)
    return xors, mults


_STATE_XOR, _STATE_MUL = (
    np.array(c, np.uint32).reshape(2, _POOL) for c in _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
)


def _seed_pool(seed: int) -> tuple[list[int], list[int], list[int]]:
    """The pool before the spawn-key word, and the hash constants that word meets.

    ``SeedSequence(seed, spawn_key=(t,))`` pads the seed's uint32 words to
    the pool size, appends ``t`` and mixes the words into the pool in order,
    so the pool before ``t`` is ``SeedSequence(seed).pool``.  Every hash
    advances one shared constant, whatever the value hashed: the seed's words
    take ``_POOL`` hashes each, and ``t`` meets the next ``_POOL``.
    """
    words = max(_POOL, -(-seed.bit_length() // 32))
    xors, mults = _hash_constants(_INIT_A, _MULT_A, _POOL * (words + 1))
    return np.random.SeedSequence(seed).pool.tolist(), xors[-_POOL:], mults[-_POOL:]


@lru_cache(maxsize=64)
def _jumps(k: int) -> tuple[np.ndarray, ...]:
    """``MULT^(j+2)`` and ``1 + … + MULT^(j+2)`` for j < k, as (2, 1, k) uint64 limbs.

    The limbs are the high and low 64-bit words, then the low word's 32-bit
    halves.
    """
    powers, sums = [], []
    p, s = 1, 0
    for _ in range(k + 3):
        powers.append(p)
        sums.append(s)
        s = (s + p) & _M128
        p = p * _PCG_MULT & _M128
    rows = (powers[2:-1], sums[3:])
    hi = np.array([[v >> 64 for v in row] for row in rows], np.uint64)[:, None]
    lo = np.array([[v & _M64 for v in row] for row in rows], np.uint64)[:, None]
    limbs = (hi, lo, lo & _M32, lo >> 32)
    for a in limbs:
        a.flags.writeable = False
    return limbs


def substream_doubles(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """First k doubles of spawned substreams ``start..stop-1`` of ``seed``, one row each.

    ``seed`` is a non-negative int and ``0 <= start <= stop <= MAX_KEYS``;
    the callers validate both.  Keys are drawn in blocks of about
    ``_BLOCK`` doubles, so the temporaries stay a few MB for any draw.
    """
    pool, xors, mults = _seed_pool(seed)
    c = np.array([xors, mults, [_MIX_L * x & _M32 for x in pool]], np.uint32)
    out = np.empty((stop - start, k))
    step = max(1, _BLOCK // k)
    for first in range(start, stop, step):
        last = min(stop, first + step)
        _fill(out[first - start : last - start], c, first, last, k)
    return out


def _fill(out: np.ndarray, c: np.ndarray, start: int, stop: int, k: int) -> None:
    """Write the doubles of keys ``start..stop-1`` into ``out``.

    ``c`` holds, per pool word, the xor and multiply constants the key's
    hash meets and the mix-scaled pool word.
    """
    t = np.arange(start, stop, dtype=np.uint32)[:, None]
    v = (t ^ c[0]) * c[1]
    v ^= v >> 16
    p = c[2] - _MIX_R * v
    p ^= p >> 16
    w = p[:, None, :] ^ _STATE_XOR  # generate_state cycles through the pool twice
    w *= _STATE_MUL
    w ^= w >> 16
    # generate_state(4, uint64) pairs the words little-endian: initstate hi,
    # initstate lo, seq hi, seq lo; then inc = 2·seq + 1.
    state = w.reshape(-1, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False).T
    state[2] <<= 1
    state[2] |= state[3] >> 63
    state[3] <<= 1
    state[3] |= 1
    ah, al = state[0::2, :, None], state[1::2, :, None]
    bh, bl, b0, b1 = _jumps(k)
    # (ah:al)·(bh:bl) mod 2^128 for both rows, in three reused (2, m, k)
    # buffers.  The high word of al·bl comes from 32-bit halves; no partial
    # sum passes 2^64.
    a0, a1 = al & _M32, al >> 32
    mid = a0 * b0
    mid >>= 32
    buf = a1 * b0
    mid += buf
    hi = mid >> 32
    mid &= _M32
    mid += np.multiply(a0, b1, out=buf)
    mid >>= 32
    hi += mid
    for x, y in ((a1, b1), (ah, bl), (al, bh)):
        hi += np.multiply(x, y, out=mid)
    lo = np.multiply(al, bl, out=buf)
    # Sum the two rows with the carry, then output XSL-RR in place.
    x_lo, x_hi = lo[0], hi[0]
    x_lo += lo[1]
    x_hi += hi[1]
    x_hi += x_lo < lo[1]
    rot = np.right_shift(x_hi, 58, out=hi[1])
    x_lo ^= x_hi
    u = np.right_shift(x_lo, rot, out=lo[1])
    np.subtract(64, rot, out=rot)
    rot &= 63
    x_lo <<= rot
    x_lo |= u
    x_lo >>= 11
    np.multiply(x_lo, 1.0 / 9007199254740992.0, out=out)
