"""Counter-based random number streams.

Every stochastic routine in the package draws from a generator keyed by the
triple ``(seed, stream, replicate)``:

* ``seed``: the experiment seed (64-bit int, possibly overridden by the
  ``UNICONSIST_SEED`` environment variable at the CLI layer),
* ``stream``: a small integer naming the purpose (see the ``STREAM_*``
  constants), so distinct purposes never share draws,
* ``replicate``: the Monte Carlo replicate id.

The generator is a Philox counter stream at counter 0 whose key is
numpy's ``SeedSequence(seed, spawn_key=(stream, replicate))
.generate_state(2, np.uint64)``, so draws for a replicate depend only on
its key, never on scheduling or worker count. Parallel callers must use
disjoint replicate ids.

:func:`philox_keys` computes those keys without building a
``SeedSequence``: it restates numpy's pool mixing, hashes the (seed,
stream) prefix once and mixes only the replicate words, as a vector.
:func:`substreams` re-keys one Philox for each id of a block, and
:func:`substream` builds a fresh one for one id.
"""

from __future__ import annotations

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that cost
# in the package's import rather than in the first draw.
from numpy.random import Generator, Philox

from .errors import ValidationError, check_count

# Stream ids. Keep stable: changing them changes all simulated output.
STREAM_SEQUENCE_MODEL = 0   # Gaussian sequence-model noise
STREAM_IID = 1              # uniforms fed to inverse-CDF sampling
STREAM_NULL_TABLE = 2       # weighted chi-square null tables
STREAM_FACTORY = 3          # random mass placement in alternative factories

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = 0xca01f9dd
_MIX_MULT_R = 0x4973f715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def check_seed(seed) -> int:
    """``seed`` as an int; anything but an integer in [0, 2**64) raises."""
    try:
        return check_count(seed, "seed", 0, 2**64 - 1)
    except ValidationError:
        raise ValidationError(
            f"seed must be an integer in [0, 2**64), got {seed!r}") from None


def _words(value: int) -> list[int]:
    """A nonnegative int as little-endian 32-bit words (0 is one word)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value, hash_const: int, mult: int):
    """One word through SeedSequence's hash; returns it and the next constant.

    ``value`` is a Python int or a uint64 array of 32-bit words."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _absorb(pool: list, hash_const: int, word):
    """Mix one entropy word past the pool into every pool word."""
    out = []
    for p in pool:
        h, hash_const = _hashmix(word, hash_const, _MULT_A)
        out.append(_mix(p, h))
    return out, hash_const


def philox_keys(seed: int, stream: int, ids) -> np.ndarray:
    """``(len(ids), 2)`` uint64 Philox keys, row k equal to
    ``SeedSequence(seed, spawn_key=(stream, ids[k])).generate_state(2, np.uint64)``.

    The entropy is the seed's words padded with zeros to the pool size,
    then the stream's words, then the id's (one word below 2**32, two
    from there on).
    """
    words = _words(check_seed(seed))
    words += [0] * (_POOL_SIZE - len(words))
    stream = check_count(stream, "stream", 0)
    ids = list(ids)
    if not all(isinstance(i, (int, np.integer)) and 0 <= i < 2**64 for i in ids):
        raise ValidationError("replicate ids must be integers in [0, 2**64)")

    hash_const = _INIT_A
    pool = []
    for w in words:
        h, hash_const = _hashmix(w, hash_const, _MULT_A)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for w in _words(stream):
        pool, hash_const = _absorb(pool, hash_const, w)

    ids = np.array(ids, dtype=np.uint64)
    pool, hash_const = _absorb(pool, hash_const, ids & np.uint64(_MASK32))
    high = ids >> np.uint64(32)
    if high.any():
        two_words, _ = _absorb(pool, hash_const, high)
        pool = [np.where(high != 0, t, p) for t, p in zip(two_words, pool)]

    hash_const = _INIT_B
    state = []
    for p in pool:
        s, hash_const = _hashmix(p, hash_const, _MULT_B)
        state.append(s)
    keys = np.array([state[0] | state[1] << 32, state[2] | state[3] << 32],
                    dtype=np.uint64)
    return keys.T.reshape(-1, 2)


def substreams(seed: int, stream: int, ids):
    """Yield the generator keyed by (seed, stream, i) for each i of ``ids``.

    It is one ``Generator`` whose Philox is re-keyed (counter 0, empty
    buffer) before each yield, so finish with it before asking for the
    next.
    """
    keys = philox_keys(seed, stream, ids).tolist()
    if not keys:
        return
    bitgen = Philox(key=keys[0])
    gen = Generator(bitgen)
    state = bitgen.state
    for key in keys:
        state["state"] = {"counter": (0, 0, 0, 0), "key": key}
        bitgen.state = state
        yield gen


def substream(seed: int, stream: int, replicate: int) -> Generator:
    """Return the independent generator keyed by (seed, stream, replicate)."""
    replicate = check_count(replicate, "replicate", 0, 2**64 - 1)
    key = philox_keys(seed, stream, [replicate])[0]
    return Generator(Philox(key=key))
