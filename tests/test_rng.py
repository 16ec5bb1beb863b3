"""Substream keys: numpy's SeedSequence keying, restated block-wise."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import seedsequence_generator, seedsequence_key
from uniconsist.errors import ValidationError
from uniconsist.rng import philox_keys, substream, substreams

# One-word and two-word seeds; ids on both sides of the one-word limit.
_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))
_IDS = st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1, 2**32, 2**64 - 1]),
                 st.integers(0, 2**64 - 1))


def _mixed_draws(gen):
    """Draws that use every part of the bit generator's state: a uint32
    (which leaves half a word buffered), doubles and normals."""
    return (gen.integers(0, 2**32, dtype=np.uint32, size=3).tolist(),
            gen.random(3).tolist(), gen.standard_normal(5).tolist())


@given(seed=_SEEDS, stream=st.integers(0, 3),
       ids=st.lists(_IDS, min_size=1, max_size=5))
@example(seed=0, stream=0, ids=[0, 2**31, 2**32 - 1, 2**32])
@example(seed=2**64 - 1, stream=3, ids=[2**32, 0, 2**64 - 1, 2**32 - 1])
def test_keys_and_draws_equal_numpys(seed, stream, ids):
    keys = philox_keys(seed, stream, ids)
    assert keys.dtype == np.uint64 and keys.shape == (len(ids), 2)
    for key, i in zip(keys, ids):
        assert np.array_equal(key, seedsequence_key(seed, stream, i)), i
    # One generator re-keyed per id draws what numpy's fresh one draws.
    for gen, i in zip(substreams(seed, stream, ids), ids):
        assert _mixed_draws(gen) == _mixed_draws(
            seedsequence_generator(seed, stream, i)), i


def test_substream_is_the_one_id_case():
    for seed, stream, i in [(0, 0, 0), (7, 1, 2**31), (2**40 + 3, 2, 2**32)]:
        want = seedsequence_generator(seed, stream, i).standard_normal(8)
        assert np.array_equal(substream(seed, stream, i).standard_normal(8), want)


def test_block_of_a_range_equals_per_id_keys():
    keys = philox_keys(11, 0, range(500, 1012))
    assert keys.shape == (512, 2)
    for i in (500, 777, 1011):
        assert np.array_equal(keys[i - 500], seedsequence_key(11, 0, i))
    assert list(substreams(11, 0, [])) == []
    assert philox_keys(11, 0, []).shape == (0, 2)


@pytest.mark.parametrize("seed, stream, ids", [
    (-1, 0, [0]), (2**64, 0, [0]), (1.5, 0, [0]),
    (0, -1, [0]), (0, 0.5, [0]),
    (0, 0, [-1]), (0, 0, [2**64]), (0, 0, [1.5]), (0, 0, ["1"]),
], ids=["seed-negative", "seed-2**64", "seed-float", "stream-negative",
        "stream-float", "id-negative", "id-2**64", "id-float", "id-str"])
def test_bad_keys_rejected(seed, stream, ids):
    with pytest.raises(ValidationError):
        philox_keys(seed, stream, ids)
