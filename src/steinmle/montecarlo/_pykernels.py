"""Trial kernels: each trial's sufficient statistic, drawn from its law.

Every harness estimator reads a sample only through one statistic: the
sample mean for the exponential and Poisson models, and the mean
log-observation for the Beta model.  Where that statistic has a closed-form
law, each trial draws it directly:

* exp-canonical (rate theta0): the mean is Gamma(n, scale 1/theta0) / n;
* exp-noncanonical (mean theta0): the mean is Gamma(n, scale theta0) / n;
* poisson: the mean is Poisson(n theta0) / n;
* beta with integer known shape m <= n: Beta(theta0, m) has the law of
  prod_{k<m} Beta(theta0 + k, 1), and -log Beta(c, 1) ~ Exp(rate c), so the
  mean log is -sum_{k<m} Gamma(n, scale 1/(theta0 + k)) / n (m = 1 is the
  exponential case).

Beta with a non-integer known shape has no such law, and one above n costs
more through it than raw sampling does.  Those trials draw raw samples with
``Generator.beta`` in blocks of ``block_trials(n)`` whole trials, which hold
at most ``BLOCK_OBS`` observations when n allows; ``trial_stats`` refuses a
trial of more than 2^16 such pieces (n > 2^32).

Stream layout.  A call covering trials [trial_start, trial_stop) draws its
closed-form statistics in order from one stream: Philox4x64 keyed by the
seed and jumped trial_start times (2^128 steps per jump); the integer-shape
Beta law takes its m gamma arrays from it one after another, k = 0 first.
A raw-sample block whose first trial is t draws from the stream jumped t
times, and blocks start at trial_start plus multiples of
``block_trials(n)``.  The harness gives rows disjoint trial ranges, so rows
and blocks get disjoint streams, and a row's output does not depend on how
its blocks are spread over processes.

Raw draws (``draw``) use numpy's own samplers: ``exponential``, ``poisson``
(inversion below mean 10, Hoermann's PTRS above) and ``beta``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Generator, Philox

from ..errors import DomainError, UnknownModelError
from ..registry import MODEL_NAMES

BACKEND_NAME = "python"

RNG_ALGORITHM = "philox4x64:jumped-per-row-and-per-raw-block"

# Raw Beta draws of exactly 0.0 (Generator.beta returns them for a small
# first shape) would make the log-observation -inf; they are clamped here.
_TINY_X = 2.0**-64

# Largest Poisson mean drawn in one piece; numpy refuses means above ~9.2e18.
_POISSON_LAM_MAX = 2.0**62
# A Poisson draw, or a raw-sample trial, takes at most this many pieces, so
# its cost stays bounded.
_PIECES_MAX = 2**16

# Observations per raw-sample block, when n allows more than one trial.
BLOCK_OBS = 2**16


def make_generator(seed: int, trial: int) -> Generator:
    """The stream that starts at a given trial: Philox keyed by seed, jumped per trial.

    A jump advances the 256-bit counter by 2^128, so the stream jumped
    ``trial`` times (0 <= trial < 2^128) starts at counter ``trial << 128``;
    it is built there directly, which costs a third of ``.jumped(trial)``.
    """
    return Generator(Philox(key=seed, counter=trial << 128))


def block_trials(n: int) -> int:
    """Trials per raw-sample block at sample size n."""
    return max(1, BLOCK_OBS // n)


def raw_sampled(model: str, beta: float, n: int) -> bool:
    """Whether the model's statistic is computed from raw samples, in blocks.

    The integer-shape law draws beta gammas a trial, raw sampling n betas.
    """
    return model == "beta" and not (float(beta).is_integer() and 0 < beta <= n)


def _poisson(lam: float, size: int, rng: Generator) -> np.ndarray:
    """size Poisson(lam) draws, as floats.

    A mean beyond numpy's range is drawn as the sum of independent Poisson
    pieces of equal mean, which has the same law.
    """
    if not lam <= _POISSON_LAM_MAX * _PIECES_MAX:
        raise DomainError(
            f"poisson: mean {lam!r} exceeds the sampler's range "
            f"{_POISSON_LAM_MAX * _PIECES_MAX:.3g}"
        )
    pieces = max(1, math.ceil(lam / _POISSON_LAM_MAX))
    total = np.zeros(size)
    for _ in range(pieces):
        total += rng.poisson(lam / pieces, size)
    return total


def draw(model: str, theta0: float, beta: float, n: int, rng: Generator) -> np.ndarray:
    """n draws from the named model, consuming the given stream in order."""
    if model == "exp-canonical":
        return rng.exponential(1.0 / theta0, n)
    if model == "exp-noncanonical":
        return rng.exponential(theta0, n)
    if model == "poisson":
        return _poisson(theta0, n, rng)
    if model == "beta":
        return np.maximum(rng.beta(theta0, beta, n), _TINY_X)
    raise UnknownModelError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")


def _raw_mean_log(theta0: float, beta: float, n: int, count: int, rng: Generator) -> np.ndarray:
    # Blocks of whole trials hold at most BLOCK_OBS observations; a trial
    # larger than that is drawn in pieces of BLOCK_OBS.
    per_block = block_trials(n)
    out = np.empty(count)
    for lo in range(0, count, per_block):
        hi = min(lo + per_block, count)
        if n <= BLOCK_OBS:
            x = draw("beta", theta0, beta, (hi - lo) * n, rng)
            out[lo:hi] = np.log(x).reshape(hi - lo, n).mean(axis=1)
        else:
            sums = [
                float(np.log(draw("beta", theta0, beta, min(BLOCK_OBS, n - k), rng)).sum())
                for k in range(0, n, BLOCK_OBS)
            ]
            out[lo] = math.fsum(sums) / n
    return out


def sample_stats(
    model: str, theta0: float, beta: float, n: int, count: int, rng: Generator
) -> np.ndarray:
    """count independent draws of the per-trial statistic, from one stream."""
    if model == "exp-canonical":
        return rng.standard_gamma(n, count) / n / theta0
    if model == "exp-noncanonical":
        return theta0 * (rng.standard_gamma(n, count) / n)
    if model == "poisson":
        return _poisson(n * theta0, count, rng) / n
    if model == "beta":
        if raw_sampled(model, beta, n):
            return _raw_mean_log(theta0, beta, n, count, rng)
        total = 0.0
        for k in range(int(beta)):
            total = total + (rng.standard_gamma(n, count) / n) / (theta0 + k)
        return -total
    raise UnknownModelError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")


def trial_stats(
    model: str,
    theta0: float,
    beta: float,
    n: int,
    seed: int,
    trial_start: int,
    trial_stop: int,
) -> np.ndarray:
    """Per-trial statistic for trials [trial_start, trial_stop).

    Closed-form statistics come from the stream at trial_start; raw-sample
    blocks each from the stream at their first trial (see the module
    docstring).  Estimators are derived from the statistic by the caller.
    """
    count = trial_stop - trial_start
    if count < 0:
        raise DomainError("trial_stop must be >= trial_start")
    if not raw_sampled(model, beta, n):
        return sample_stats(model, theta0, beta, n, count, make_generator(seed, trial_start))
    if n > BLOCK_OBS * _PIECES_MAX:
        raise DomainError(
            f"beta: with known shape {beta!r} a trial draws n raw observations, and "
            f"n = {n} exceeds the sampler's range {BLOCK_OBS * _PIECES_MAX}"
        )
    step = block_trials(n)
    parts = [
        sample_stats(model, theta0, beta, n, min(step, trial_stop - t), make_generator(seed, t))
        for t in range(trial_start, trial_stop, step)
    ]
    return np.concatenate(parts) if parts else np.empty(0)
