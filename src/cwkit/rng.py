"""Deterministic substream derivation for all Monte Carlo in the package.

Every sampling operation derives its generator as ``substream(seed, *path)``
where ``path`` is a fixed tuple of small integers identifying the operation
(and, where needed, the work item). Distinct paths give statistically
independent streams, and the map (seed, path) -> stream is a pure function,
so results never depend on evaluation order or parallel scheduling.
"""

import numpy as np

# Stream tags. Fixed forever; changing one changes every downstream result.
STREAM_SPHERE = 1       # sample_in_region (sample_uniform is its FullSphere case)
STREAM_MEASURE = 2      # region_measure_estimate
STREAM_GALLERY = 3      # gallery.sample
STREAM_REFERENCE = 4    # verdict reference draws for analytic targets


def substream(seed, *path):
    """Return a ``numpy.random.Generator`` for the given seed and path.

    ``seed`` is any integer (reduced mod 2**64); path components must be
    nonnegative integers.
    """
    if seed is None:
        raise ValueError("seed must be an integer, not None")
    entropy = int(seed) % 2**64
    key = tuple(int(p) for p in path)
    if any(p < 0 for p in key):
        raise ValueError(f"path components must be nonnegative, got {key}")
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=key))
