"""numpy's seeded random streams, computed for many seeds at once.

Building ``np.random.default_rng(SeedSequence(seed, spawn_key=(k,)))``
takes about 25 µs per child on a 2-vCPU x86-64 host. The simulator needs
only the first 64-bit output of each child's generator, so
``first_outputs`` computes it for a whole array of spawn keys in numpy,
bit for bit:

1. SeedSequence's uint32 hash mixing, where only the last entropy word (the
   spawn key) differs between children;
2. PCG64's seeding from ``generate_state(4, np.uint64)``;
3. one 128-bit LCG step (O'Neill, "PCG: A Family of Simple Fast
   Space-Efficient Statistically Good Algorithms", 2014) and the XSL-RR
   output.

``bounded`` is ``Generator.integers(bound)``'s draw from one 32-bit word:
Lemire's multiply-shift ("Fast Random Integer Generation in an Interval",
ACM TOMACS 2019), which flags the words numpy would reject and replace by
further draws. ``integers`` is ``Generator.integers(0, highs)`` for a
whole array of bounds: ``bounded`` over the 32-bit halves of PCG64 words
drawn in one ``random_raw`` call, the state left as numpy leaves it.
128-bit values are (high, low) pairs of uint64 arrays; uint64 arithmetic
wraps, which is the arithmetic modulo 2**64 these steps need.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generating state from the pool
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_U32, _U1, _U63 = np.uint64(32), np.uint64(1), np.uint64(63)


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix on uint32 values held in Python ints or uint64
    arrays; returns the mixed value and the next hash constant."""
    value = (value ^ const) * (const * mult & _MASK32) & _MASK32
    return value ^ value >> 16, const * mult & _MASK32


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _parent_pool(seed: int) -> tuple[list[int], int]:
    """The pool of every child of ``SeedSequence(seed)`` before its spawn
    key is mixed in, and the hash constant at that point.

    A child's entropy is the seed's little-endian uint32 words, zero-padded
    to the pool size, followed by the spawn key; every word before the key
    is the same for all children.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected a nonnegative seed, got {seed}")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, const = _hashmix(word, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    return pool, const


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> _U32
    b0, b1 = b & _MASK32, b >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def first_outputs(seed: int, keys: np.ndarray) -> np.ndarray:
    """``PCG64(SeedSequence(seed, spawn_key=(k,))).random_raw()`` for every
    k in ``keys`` (nonnegative, below 2**32), as a uint64 array."""
    pool, const = _parent_pool(seed)
    keys = np.asarray(keys, dtype=np.uint64)
    for dst in range(_POOL_SIZE):
        value, const = _hashmix(keys, const, _MULT_A)
        pool[dst] = _mix(pool[dst], value)
    # generate_state(4, np.uint64): eight uint32 words cycling over the
    # pool, paired little-endian into four uint64 words
    const = _INIT_B
    state = []
    for j in range(0, 2 * _POOL_SIZE, 2):
        low, const = _hashmix(pool[j % _POOL_SIZE], const, _MULT_B)
        high, const = _hashmix(pool[(j + 1) % _POOL_SIZE], const, _MULT_B)
        state.append(low | high << _U32)
    del pool
    # pcg64_set_seed: initstate = state[0]:state[1], initseq =
    # state[2]:state[3]; inc = 2 * initseq + 1, then state = inc +
    # initstate and one step. random_raw steps once more and outputs.
    inc_hi = state[2] << _U1 | state[3] >> _U63
    inc_lo = state[3] << _U1 | _U1
    lo = inc_lo + state[1]
    hi = inc_hi + state[0] + (lo < inc_lo)
    del state
    for _ in range(2):
        hi = _mulhi(lo, _MULT_LO) + lo * _MULT_HI + hi * _MULT_LO
        lo = lo * _MULT_LO
        lo += inc_lo
        hi += inc_hi + (lo < inc_lo)
    # XSL-RR: xor the halves, rotate right by the top six bits
    value = hi ^ lo
    rot = hi >> np.uint64(58)
    return value >> rot | value << (-rot & _U63)


def bounded(words: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(bound)`` from one uint32 word each.

    ``words`` are uint32 values in a uint64 array and ``bounds`` integers
    in [1, 2**32), one per word or one for all. Returns the draws and a
    mask of the words Lemire's method rejects; numpy then draws again from
    the following words, so a rejected draw is not numpy's. A bound of 1
    always draws 0 and never rejects, though numpy consumes no word for it.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    product = words * bounds
    # numpy's threshold, 2**32 % bound, lies below the bound, so only the
    # rare words whose low product word is below the bound need the division
    rejected = product & _MASK32 < bounds
    near = np.flatnonzero(rejected)
    if len(near):
        threshold = np.uint64(2**32) % np.broadcast_to(bounds, rejected.shape)[near]
        rejected[near] = product[near] & _MASK32 < threshold
    product >>= _U32
    return product, rejected


def integers(rng: np.random.Generator, highs: np.ndarray) -> np.ndarray:
    """``rng.integers(0, highs)`` for int64 ``highs`` in [1, 2**32), bit
    for bit, leaving ``rng.bit_generator.state`` as numpy would.

    numpy draws each bound above 1 from one uint32: the half that an
    earlier draw left buffered, else the low half of a fresh PCG64 word,
    whose high half it buffers. Here the halves come from one
    ``random_raw`` call and ``bounded`` maps them. If Lemire's method
    rejects any of them, the state is restored and numpy draws instead.
    """
    highs = np.asarray(highs, dtype=np.int64)
    bitgen = rng.bit_generator
    saved = bitgen.state
    drawn = highs > 1
    every = bool(drawn.all())
    bounds = highs if every else highs[drawn]
    if not len(bounds):
        return np.zeros(len(highs), dtype=np.int64)
    buffered = saved["has_uint32"]
    words = bitgen.random_raw((len(bounds) - buffered + 1) // 2)
    halves = np.empty(buffered + 2 * len(words), dtype=np.uint64)
    halves[:buffered] = saved["uinteger"]
    # little-endian uint32 pairs: each word's low half, then its high half
    halves[buffered:] = words.astype("<u8", copy=False).view("<u4")
    state = bitgen.state
    state["has_uint32"] = len(halves) - len(bounds)
    if len(words):  # else numpy leaves its stale buffered half
        state["uinteger"] = int(halves[-1])
    bitgen.state = state
    del words
    values, rejected = bounded(halves[: len(bounds)], bounds.view(np.uint64))
    if rejected.any():
        bitgen.state = saved
        return rng.integers(0, highs)
    values = values.view(np.int64)  # every draw is below 2**32
    if every:
        return values
    out = np.zeros(len(highs), dtype=np.int64)
    out[drawn] = values
    return out
