"""Seeded differential sweep of the two pipelines against their slow
references: `ber_experiment` against `reference_ber_experiment` (trial by
trial, per-matrix calls) and `run_key_agreement` against
`reference_key_agreement` (full SVD, loop vote, dense hash), at points drawn
from random.Random(2013).  The references call the checked public functions
that the pipelines' hot loops bypass, so a change to an unchecked path that
alters one result fails here.

A point whose parameters or run raise a typed CsikeyError is skipped (the
reference must raise the same error); more than a quarter of the points
skipping fails the sweep, since it would then test little."""

import random

from ber_reference import reference_ber_experiment
from csikey.attacks import ber_experiment
from csikey.errors import CsikeyError
from csikey.numerics import make_rng
from csikey.params import min_alpha
from csikey.protocols import VALID_CODERS, run_key_agreement
from csikey.wiretap import SystemParams
from protocol_reference import reference_key_agreement

SWEEP_SEED = 2013
BER_POINTS = 60
KEY_POINTS = 30
BER_NS = (1, 2, 3, 4, 5, 6, 8, 16)
MS = (2, 4, 8, 10, 11, 16)
TRIALS = (1, 2, 15, 16, 17, 63, 64, 65)  # around the chunk of 64
N16_TRIALS = (1, 2)  # the reference's per-basis LLL is slow at n = 16


def _point(rng: random.Random, n: int) -> dict:
    """m_rx in [n, 2n], M from MS, k in 2^[-12, 4] and alpha from 1/4 to 256
    times the minimum-noise point sqrt(n) k^2."""
    k = 2.0 ** rng.uniform(-12, 4)
    return dict(n=n, m_rx=rng.randint(n, 2 * n), M=rng.choice(MS), k=k,
                alpha=min_alpha(n, k) * 2.0 ** rng.uniform(-2, 8))


def ber_points(seed: int = SWEEP_SEED, count: int = BER_POINTS) -> list:
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        n = rng.choice(BER_NS)
        points.append((_point(rng, n), rng.choice(N16_TRIALS if n == 16 else TRIALS),
                       rng.randrange(2**32)))
    return points


def key_points(seed: int = SWEEP_SEED + 1, count: int = KEY_POINTS) -> list:
    rng = random.Random(seed)
    return [(_point(rng, rng.randint(1, 32)), rng.choice((4, 16, 64)),
             rng.choice(VALID_CODERS), rng.randrange(2**32)) for _ in range(count)]


def _outcome(run, *args):
    """run(*args), or the type and message of the typed error it raised."""
    try:
        return run(*args)
    except CsikeyError as exc:
        return type(exc), str(exc)


def _compare(run, reference, params: dict, *args) -> bool:
    """Assert run and reference agree on SystemParams(**params) and args,
    from generators of one seed that end in the same state; True if the
    point raised a typed error (a skip)."""
    try:
        p = SystemParams(**params)
    except CsikeyError:
        return True
    seed = args[-1]
    rng, ref_rng = make_rng(seed), make_rng(seed)
    got = _outcome(run, p, *args[:-1], rng)
    assert got == _outcome(reference, p, *args[:-1], ref_rng), params
    assert rng.integers(2**62) == ref_rng.integers(2**62), params
    assert rng.spawn(1)[0].integers(2**62) == ref_rng.spawn(1)[0].integers(2**62)
    return isinstance(got, tuple)


def _assert_few_skips(skips: int, count: int):
    assert skips <= count / 4, f"{skips} of {count} points raised a typed error"


def test_ber_experiment_matches_reference_across_the_sweep():
    points = ber_points()
    skips = sum(_compare(ber_experiment, reference_ber_experiment, params, trials,
                         seed) for params, trials, seed in points)
    _assert_few_skips(skips, len(points))


def test_key_agreement_matches_reference_across_the_sweep():
    points = key_points()
    skips = sum(_compare(run_key_agreement, reference_key_agreement, params, eta,
                         coder, seed) for params, eta, coder, seed in points)
    _assert_few_skips(skips, len(points))

