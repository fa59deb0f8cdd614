"""Seeded null-and-power checks of the whole verdict.

Null: data drawn from the target must never come back 'inconsistent',
whatever kind of target it is. Power: a target that is wrong by a modest
mean shift must come back 'inconsistent' on every seed, so a rule that
never says 'inconsistent' cannot pass the null check alone.

Every case runs d = 2, elements of 300 and 3 000 points, 20 directions and
a 5 000-point reference draw, over 10 seeds. One null case takes three
close element sizes, 1 000, 2 000 and 4 000 points, whose distances need
not fall from one element to the next: h1 reads the last one only.
"""

import numpy as np
import pytest

from cwkit import (FullSphere, Gaussian, ProductLognormal, VerdictConfig, run_verdict, sample,
                   switching_pair)

SIZES = (300, 3_000)
CLOSE_SIZES = (1_000, 2_000, 4_000)
SEEDS = range(10)


def verdict(law, target, seed, sizes=SIZES):
    sequence = [sample(law, n, seed=100 * seed + i) for i, n in enumerate(sizes)]
    config = VerdictConfig(region=FullSphere(2), n_directions=20, seed=seed,
                           reference_sample_size=5_000)
    return run_verdict(sequence, target, config)


def overall(law, target, seed, sizes=SIZES):
    return verdict(law, target, seed, sizes).overall


def null_case(kind, seed):
    if kind == "gaussian":
        law = Gaussian.standard(2)
        return law, law
    if kind == "lognormal":
        law = ProductLognormal.standard(2)
        return law, law
    if kind == "atomic":
        law = switching_pair([[1, 0], [0, 1]])[0]
        return law, law
    law = Gaussian.standard(2)
    return law, sample(law, 5_000, seed=100 * seed + 99)


@pytest.mark.parametrize("kind", ["gaussian", "lognormal", "atomic", "sample"])
def test_null_never_inconsistent(kind):
    reports = [verdict(*null_case(kind, seed), seed) for seed in SEEDS]
    outcomes = [r.overall for r in reports]
    assert "inconsistent" not in outcomes, outcomes
    # a lognormal fails Carleman's condition along every direction, on every seed
    failed = ["carleman_condition_failed" in r.flags for r in reports]
    assert failed == [kind == "lognormal"] * len(SEEDS)


def test_null_with_close_sizes_never_inconsistent():
    law = Gaussian.standard(2)
    outcomes = [overall(law, law, seed, CLOSE_SIZES) for seed in SEEDS]
    assert "inconsistent" not in outcomes, outcomes


def test_shifted_target_always_inconsistent():
    shifted = Gaussian(np.array([0.3, 0.0]), np.eye(2))
    outcomes = [overall(Gaussian.standard(2), shifted, seed) for seed in SEEDS]
    assert outcomes == ["inconsistent"] * len(SEEDS)
