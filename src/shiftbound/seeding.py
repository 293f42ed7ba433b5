"""Named, collision-free random substreams derived from integer seeds.

Every stochastic component draws from its own substream so that, e.g.,
changing the number of training epochs (which consumes shuffle draws)
cannot perturb weight initialisation or posterior sampling.
"""

import numpy as np

_U64 = (1 << 64) - 1

_STREAMS = {
    "init": 0,
    "shuffle": 1,
    "split": 2,
    "posterior": 3,
    "mmd": 4,
    "task": 5,
    "derive": 6,
}

# the first key of each ``derive_seed`` child seed: the data split and the
# initialisation, prior training, posterior training, the MMD shuffles and
# the posterior draws
_SEED_KEYS = {
    "split": 0,
    "prior": 1,
    "posterior": 2,
    "mmd": 3,
    "draws": 4,
}


def _sequence(seed: int, *spawn_key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed) & _U64, spawn_key=tuple(map(int, spawn_key)))


def stream_rng(seed: int, stream: str, *key: int) -> np.random.Generator:
    """Generator for the named substream of ``seed``, optionally keyed
    by extra integers (e.g. a checkpoint index)."""
    if stream not in _STREAMS:
        raise ValueError(f"unknown stream {stream!r}")
    return np.random.default_rng(_sequence(seed, _STREAMS[stream], *key))


def derive_seed(seed: int, name: str, *key: int) -> int:
    """Stable child seed for the named component, which takes its own
    integer seed, optionally keyed by extra integers (e.g. an alpha index)."""
    if name not in _SEED_KEYS:
        raise ValueError(f"unknown seed key {name!r}")
    ss = _sequence(seed, _STREAMS["derive"], _SEED_KEYS[name], *key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])
