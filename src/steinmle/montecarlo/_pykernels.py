"""Trial kernels: each trial's sufficient statistic, drawn from its law.

Every harness estimator reads a sample only through one statistic: the
sample mean for the exponential and Poisson models, and the mean
log-observation for the Beta model.  Where that statistic has a closed-form
law, each trial draws it directly:

* exp-canonical (rate theta0): the mean is Gamma(n, scale 1/theta0) / n;
* exp-noncanonical (mean theta0): the mean is Gamma(n, scale theta0) / n;
* poisson: the mean is Poisson(n theta0) / n;
* beta with integer known shape m: Beta(theta0, m) has the law of
  prod_{k<m} Beta(theta0 + k, 1), and -log Beta(c, 1) ~ Exp(rate c), so the
  mean log is -sum_{k<m} Gamma(n, scale 1/(theta0 + k)) / n (m = 1 is the
  exponential case).

Beta with a non-integer known shape has no such law.  Its trials draw raw
samples with ``Generator.beta`` in blocks of ``block_trials(n)`` whole
trials, which hold at most ``BLOCK_OBS`` observations when n allows;
``trial_stats`` refuses a trial of more than 2^16 such pieces (n > 2^32).

Stream layout.  A call covering trials [trial_start, trial_stop) draws its
closed-form statistics in order from one stream: Philox4x64 keyed by the
seed and jumped trial_start times (2^128 steps per jump); the integer-shape
Beta law takes its m gamma arrays from it one after another, k = 0 first.
A raw-sample block whose first trial is t draws from the stream jumped t
times, and blocks start at trial_start plus multiples of
``block_trials(n)``.  The harness gives rows disjoint trial ranges, so rows
and blocks get disjoint streams.  ``trial_stats``, the one entry point that
draws a row, lays out its blocks once and draws them in order or over
min(workers, blocks, CPUs) processes, which changes no stream.  Each thread
keeps one Philox and re-keys it to each stream in turn (``make_generator``),
which changes no stream.

Raw draws (``draw``) use numpy's own samplers: ``exponential``, ``poisson``
(inversion below mean 10, Hoermann's PTRS above) and ``beta``.
"""

from __future__ import annotations

import functools
import math
import os
import threading

import numpy as np
from numpy.random import Generator, Philox

from ..errors import DomainError, UnknownModelError
from ..registry import MODEL_NAMES

BACKEND_NAME = "python"

RNG_ALGORITHM = "philox4x64:jumped-per-row-and-per-raw-block"

# A raw Beta draw of exactly 0.0 (Generator.beta returns them for a small
# first shape, where an intermediate underflows) would make its log -inf:
# such a draw, and no other, is replaced by the least positive float.
_TINY_X = 5e-324

# Largest Poisson mean drawn in one piece; numpy refuses means above ~9.2e18.
_POISSON_LAM_MAX = 2.0**62
# A Poisson draw, or a raw-sample trial, takes at most this many pieces, so
# its cost stays bounded.
_PIECES_MAX = 2**16

# Observations per raw-sample block, when n allows more than one trial.
BLOCK_OBS = 2**16

# The most trials a row can hold: one float64 each, in one array.
_TRIALS_MAX = np.iinfo(np.intp).max // 8

_WORD = 2**64 - 1


class _Stream(threading.local):
    """A thread's one Philox, the Generator on it and the state dict that
    ``make_generator`` fills in place to re-key it, so threads share no
    stream.  The words are lists: the state setter reads them one by one,
    and Python ints cost it a third of what numpy scalars do."""

    def __init__(self):
        self.bit_generator = Philox(0)
        self.generator = Generator(self.bit_generator)
        self.counter = [0, 0, 0, 0]
        self.key = [0, 0]
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": self.counter, "key": self.key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


_STREAM = _Stream()


def make_generator(seed: int, trial: int) -> Generator:
    """The stream that starts at a given trial: Philox keyed by seed, jumped per trial.

    A jump advances the 256-bit counter by 2^128, so the stream jumped
    ``trial`` times (0 <= trial < 2^128) starts at counter ``trial << 128``.
    The key (0 <= seed < 2^128) and the counter are set, as 64-bit words
    with the low word first, on the calling thread's one Philox, and its
    buffer is emptied.  That costs a fraction of building a new Philox,
    whose seeding draws OS entropy that the key then overrides.  The
    returned generator is therefore valid only until the thread's next call.
    """
    stream = _STREAM
    stream.counter[2], stream.counter[3] = trial & _WORD, trial >> 64
    stream.key[0], stream.key[1] = seed & _WORD, seed >> 64
    stream.bit_generator.state = stream.state  # copied into the Philox, buffer included
    return stream.generator


def block_trials(n: int) -> int:
    """Trials per raw-sample block at sample size n."""
    return max(1, BLOCK_OBS // n)


def raw_sampled(model: str, beta: float) -> bool:
    """Whether the model's statistic is computed from raw samples, in blocks:
    the Beta model's, for a non-integer known shape.  (An integer shape draws
    beta gammas a trial, fewer than raw sampling's n betas wherever a row's
    bound holds: the Beta minimal n exceeds beta.)"""
    return model == "beta" and not float(beta).is_integer()


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
        x = rng.beta(theta0, beta, n)
        x[x == 0.0] = _TINY_X
        return x
    raise UnknownModelError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")


def _raw_block(theta0: float, beta: float, n: int, seed: int, trial_stop: int, first: int):
    """Mean log of each Beta trial of the raw-sample block that starts at trial
    ``first`` (``block_trials(n)`` trials, none from trial_stop on), drawn from
    the stream at ``first``; a trial above ``BLOCK_OBS`` observations is drawn
    in pieces of ``BLOCK_OBS``."""
    rng = make_generator(seed, first)
    if n > BLOCK_OBS:
        sums = [
            float(np.log(draw("beta", theta0, beta, min(BLOCK_OBS, n - k), rng)).sum())
            for k in range(0, n, BLOCK_OBS)
        ]
        return np.array([math.fsum(sums) / n])
    count = min(block_trials(n), trial_stop - first)
    return np.log(draw("beta", theta0, beta, count * n, rng)).reshape(count, n).mean(axis=1)


def sample_stats(
    model: str, theta0: float, beta: float, n: int, count: int, rng: Generator
) -> np.ndarray:
    """count independent draws of the per-trial statistic, from one stream, by
    its closed-form law; ``trial_stats`` draws what ``raw_sampled`` marks."""
    if model == "exp-canonical":
        return rng.standard_gamma(n, count) / n / theta0
    if model == "exp-noncanonical":
        return theta0 * (rng.standard_gamma(n, count) / n)
    if model == "poisson":
        return _poisson(n * theta0, count, rng) / n
    if model == "beta":
        if raw_sampled(model, beta):
            raise DomainError(
                f"beta: known shape {beta!r} has no closed-form law; "
                "trial_stats draws it from raw samples"
            )
        total = 0.0
        for k in range(int(beta)):
            total = total + (rng.standard_gamma(n, count) / n) / (theta0 + k)
        return -total
    raise UnknownModelError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")


def check_trials(trial_start: int, trial_stop: int) -> int:
    """The count of trials [trial_start, trial_stop): trial_stop > 2^128 is a
    DomainError and a count no float64 array can hold a MemoryError."""
    count = trial_stop - trial_start
    if count < 0:
        raise DomainError("trial_stop must be >= trial_start")
    if trial_stop > 2**128:  # past the last stream, trial 2^128 - 1
        raise DomainError(f"trial_stop must be <= 2**128, the number of trial streams, got {trial_stop}")
    if count > _TRIALS_MAX:
        raise MemoryError(f"{count} trials exceed the {_TRIALS_MAX} float64 values one array can hold")
    return count


def trial_stats(
    model: str,
    theta0: float,
    beta: float,
    n: int,
    seed: int,
    trial_start: int,
    trial_stop: int,
    workers: int = 1,
) -> np.ndarray:
    """Per-trial statistic for trials [trial_start, trial_stop).

    Closed-form statistics come from the stream at trial_start; raw-sample
    blocks each from the stream at their first trial (see the module
    docstring), in order or over min(workers, blocks, CPUs) processes alike,
    each into its slice of the row's one array.  Estimators are derived from
    the statistic by the caller.  ``check_trials`` checks the range first.
    """
    count = check_trials(trial_start, trial_stop)
    if not raw_sampled(model, beta):
        return sample_stats(model, theta0, beta, n, count, make_generator(seed, trial_start))
    if n > BLOCK_OBS * _PIECES_MAX:
        raise DomainError(
            f"beta: with known shape {beta!r} a trial draws n raw observations, and "
            f"n = {n} exceeds the sampler's range {BLOCK_OBS * _PIECES_MAX}"
        )
    stats = np.empty(count)  # before any block, so a count beyond memory draws nothing
    firsts = range(trial_start, trial_stop, block_trials(n))
    block = functools.partial(_raw_block, theta0, beta, n, seed, trial_stop)
    procs = min(workers, len(firsts), os.cpu_count() or 1)
    if procs > 1:
        # Imported here: it loads multiprocessing, which no other path needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = list(pool.map(block, firsts, chunksize=max(1, len(firsts) // (procs * 4))))
    else:
        parts = map(block, firsts)
    for first, part in zip(firsts, parts):
        stats[first - trial_start : first - trial_start + len(part)] = part
    return stats
