"""Counter-based random number streams.

Every stochastic routine in the package draws from a generator obtained via
:func:`substream`. The key is the triple ``(seed, stream, replicate)``:

* ``seed``: the experiment seed (64-bit int, possibly overridden by the
  ``UNICONSIST_SEED`` environment variable at the CLI layer),
* ``stream``: a small integer naming the purpose (see the ``STREAM_*``
  constants), so distinct purposes never share draws,
* ``replicate``: the Monte Carlo replicate id.

Substreams are Philox counter streams keyed through ``SeedSequence`` spawn
keys, so draws for a replicate depend only on its key, never on scheduling
or worker count. Parallel callers must use disjoint replicate ids.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Stream ids. Keep stable: changing them changes all simulated output.
STREAM_SEQUENCE_MODEL = 0   # Gaussian sequence-model noise
STREAM_IID = 1              # uniforms fed to inverse-CDF sampling
STREAM_NULL_TABLE = 2       # weighted chi-square null tables
STREAM_FACTORY = 3          # random mass placement in alternative factories


def substream(seed: int, stream: int, replicate: int) -> np.random.Generator:
    """Return the independent generator keyed by (seed, stream, replicate)."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(stream), int(replicate)))
    return np.random.Generator(np.random.Philox(ss))
