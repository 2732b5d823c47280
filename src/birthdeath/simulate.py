"""Monte Carlo trajectory simulation, the independent cross-check.

Each run is a continuous-time walk: in state n the holding time is
exponential with rate lambda_n + mu_n and the jump goes up with
probability lambda_n / (lambda_n + mu_n), until state 0 (extinct) or the
time cap (censored).

Reproducibility contract: run r draws from a Philox counter-based stream
keyed by (seed mod 2^64, r), with exactly two uniforms consumed per
transition (holding time by inversion, then direction).  Results are
therefore bit-identical for identical inputs, independent of run order,
chunked draw sizes, or any future parallel scheduling of runs.
Aggregation uses exact float summation (math.fsum), so it is
order-independent as well.

The streams are those of ``numpy.random.Philox(key=(seed mod 2^64, r))``
read through ``Generator.random``, but no generator object is built.
:func:`_philox_blocks` is Philox4x64-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) in NumPy ``uint64`` arithmetic,
vectorized over (run, block) pairs.  Block b >= 1 of run r is the cipher
of the counter (b, 0, 0, 0); NumPy's Philox increments its counter before
each block, so its first block is b = 1.  Transitions 2b-2 and 2b-1 use
words (0, 1) and (2, 3) of block b, as (hold, direction); a word w is the
uniform ``(w >> 11) * 2^-53``, the double ``Generator.random`` returns.

All live runs step together.  A pool holds at most ``_POOL`` runs, each
with its own state, clock and next block counter.  Each round draws
``max(1, _POOL // live)`` blocks for every live run in one call, so a call
does about ``_POOL`` blocks of work while the pool drains at the end, and
then steps every run through those blocks in lock-step.  Runs that end
leave the pool; at the end of the round, which is a block boundary for
every run, new runs refill it.  Holding times use the scalar
``math.log`` mapped over the uniforms: ``np.log`` can differ from it in
the last bit, which would move extinction times off the per-run
reference.  The censor check comes before the jump, as in a per-run loop.

Rates are converted to floats once per state, and only at states some
run occupies.  Those states always form a contiguous range around the
start state that one step widens by at most one state at each end, so a
state where the model is undefined but no run goes is never queried.

Simulation always runs at machine precision: Monte Carlo error dwarfs
rounding, so extended precision would be theater.  Censored runs are
excluded from the time estimate, which is therefore conditional on
extinction within the cap, and are reported separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rates import RateModel

__all__ = ["TrajectoryStats", "simulate"]

_MASK64 = (1 << 64) - 1

# live runs stepped together; also about the blocks drawn per Philox call
_POOL = 4096

# states are int64; a run cannot climb 2^62 states in feasible time
_MAX_START = 2 ** 62

# Philox4x64-10 multipliers and Weyl key increments (Random123)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_TO_53_BITS = np.uint64(11)


@dataclass(frozen=True)
class TrajectoryStats:
    """Estimates over a batch of simulated trajectories.

    ``mean_time_estimate`` averages extinction times over extinct runs
    only; it and ``std_error_time`` are NaN when there are no (or fewer
    than two) extinct runs.
    """

    start_state: int
    runs: int
    extinct_runs: int
    censored_runs: int
    time_cap: float
    extinction_probability_estimate: float
    mean_time_estimate: float
    std_error_time: float
    std_error_prob: float
    seed: int


def _mulhi(m: int, x: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products ``m * x``, from 32-bit halves."""
    m_lo = np.uint64(m & 0xFFFFFFFF)
    m_hi = np.uint64(m >> 32)
    x_lo = x & _LO32
    x_hi = x >> _SHIFT32
    mid = m_hi * x_lo
    mid += (m_lo * x_lo) >> _SHIFT32
    cross = mid & _LO32
    cross += m_lo * x_hi
    cross >>= _SHIFT32
    mid >>= _SHIFT32
    mid += cross
    x_hi *= m_hi
    mid += x_hi
    return mid


def _philox_blocks(key: int, runs: np.ndarray, first: np.ndarray, count: int):
    """Philox4x64-10 blocks ``first[i] .. first[i]+count-1`` of each run.

    Run ``runs[i]`` is keyed by ``(key, runs[i])``; block b is the cipher
    of the counter ``(b, 0, 0, 0)``.  Returns the four ``uint64`` words of
    the blocks as four arrays shaped ``(count, len(runs))``: row j holds
    block ``first + j`` of every run.
    """
    c0 = (first + np.arange(count, dtype=np.uint64)[:, None]).ravel()
    k1 = np.tile(runs, count)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k1 += np.uint64(_PHILOX_W[1])
        k0 = np.uint64((key + r * _PHILOX_W[0]) & _MASK64)
        # (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
        hi0 = _mulhi(_PHILOX_M[0], c0)
        hi1 = _mulhi(_PHILOX_M[1], c2)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        lo0 = c0 * np.uint64(_PHILOX_M[0])
        lo1 = c2 * np.uint64(_PHILOX_M[1])
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return tuple(word.reshape(count, runs.size) for word in (c0, c1, c2, c3))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from ``uint64`` words, as ``Generator.random`` makes them.

    Shifts ``words`` in place.
    """
    words >>= _TO_53_BITS
    u = words.astype(np.float64)
    u *= 2.0 ** -53
    return u


class _RateTable:
    """``1/(lambda+mu)`` and ``lambda/(lambda+mu)`` as float arrays.

    Filled over the contiguous range ``[lo, hi]`` of states runs have
    occupied; state s sits at index ``s - base``.  The arrays grow
    geometrically, and a slot is filled only when a run reaches its state.
    """

    def __init__(self, model: RateModel, state: int):
        self.model = model
        self.base = self.lo = self.hi = state
        self.inv_total = np.empty(1)
        self.p_up = np.empty(1)
        self._fill(state)

    def cover(self, lo: int, hi: int) -> None:
        """Extend the filled range to include ``[lo, hi]``."""
        if lo < self.base or hi >= self.base + self.inv_total.size:
            self._grow(min(lo, self.lo), max(hi, self.hi))
        while self.hi < hi:
            self.hi += 1
            self._fill(self.hi)
        while self.lo > lo:
            self.lo -= 1
            self._fill(self.lo)

    def _fill(self, state: int) -> None:
        lam = float(self.model.birth(state))
        mu = float(self.model.death(state))
        total = lam + mu
        self.inv_total[state - self.base] = 1.0 / total
        self.p_up[state - self.base] = lam / total

    def _grow(self, lo: int, hi: int) -> None:
        pad = hi - lo + 1
        base = max(1, lo - pad)
        old = slice(self.lo - base, self.hi - base + 1)
        for name in ("inv_total", "p_up"):
            grown = np.full(hi + pad - base + 1, math.nan)
            grown[old] = getattr(self, name)[self.lo - self.base:self.hi - self.base + 1]
            setattr(self, name, grown)
        self.base = base


def simulate(
    model: RateModel,
    start_state: int,
    runs: int,
    time_cap: float,
    seed: int,
) -> TrajectoryStats:
    """Simulate ``runs`` trajectories from ``start_state``.

    Deterministic given (model, start_state, runs, time_cap, seed).
    """
    if not 1 <= start_state <= _MAX_START:
        raise ValueError(f"start_state must be in [1, 2^62], got {start_state}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if not time_cap > 0:
        raise ValueError(f"time_cap must be > 0, got {time_cap}")

    key = seed & _MASK64
    rates = _RateTable(model, start_state)
    extinct_times = np.empty(runs)  # filled up to extinct_runs, in order of ending
    extinct_runs = 0
    # the pool: run index, next Philox block, state and clock of each live run
    run = np.empty(0, dtype=np.uint64)
    block = np.empty(0, dtype=np.uint64)
    state = np.empty(0, dtype=np.int64)
    t = np.empty(0)
    queued = 0
    while True:
        fresh = min(_POOL - run.size, runs - queued)
        if fresh > 0:
            run = np.concatenate((run, np.arange(queued, queued + fresh, dtype=np.uint64)))
            block = np.concatenate((block, np.ones(fresh, dtype=np.uint64)))
            state = np.concatenate((state, np.full(fresh, start_state, dtype=np.int64)))
            t = np.concatenate((t, np.zeros(fresh)))
            queued += fresh
        live = run.size
        if not live:
            break
        blocks = max(1, _POOL // live)
        w0, w1, w2, w3 = _philox_blocks(key, run, block, blocks)
        block += np.uint64(blocks)
        # row j is step j of the round; block b serves steps 2b and 2b+1
        steps = (2 * blocks, live)
        direction = _uniforms(np.stack((w1, w3), axis=1)).reshape(steps)
        survive = _uniforms(np.stack((w0, w2), axis=1)).reshape(steps)
        np.subtract(1.0, survive, out=survive)
        del w0, w1, w2, w3
        rows = np.arange(live)
        for step in range(2 * blocks):
            log_survive = np.fromiter(
                map(math.log, survive[step, rows].tolist()), np.float64, rows.size
            )
            at = state - rates.base
            t = t - log_survive * rates.inv_total[at]
            censored = t > time_cap
            up = direction[step, rows] < rates.p_up[at]
            state = np.where(up, state + 1, state - 1)
            ended = censored | (state == 0)
            if ended.any():
                now_extinct = t[ended & ~censored]
                extinct_times[extinct_runs:extinct_runs + now_extinct.size] = now_extinct
                extinct_runs += now_extinct.size
                kept = ~ended
                rows, state, t = rows[kept], state[kept], t[kept]
                if not rows.size:
                    break
            rates.cover(int(state.min()), int(state.max()))
        run, block = run[rows], block[rows]

    times = extinct_times[:extinct_runs].tolist()
    p_hat = extinct_runs / runs
    se_prob = math.sqrt(p_hat * (1.0 - p_hat) / runs)
    if extinct_runs == 0:
        mean_t = math.nan
        se_t = math.nan
    else:
        mean_t = math.fsum(times) / extinct_runs
        if extinct_runs < 2:
            se_t = math.nan
        else:
            var = math.fsum((x - mean_t) ** 2 for x in times) / (extinct_runs - 1)
            se_t = math.sqrt(var / extinct_runs)
    return TrajectoryStats(
        start_state=start_state,
        runs=runs,
        extinct_runs=extinct_runs,
        censored_runs=runs - extinct_runs,
        time_cap=float(time_cap),
        extinction_probability_estimate=p_hat,
        mean_time_estimate=mean_t,
        std_error_time=se_t,
        std_error_prob=se_prob,
        seed=seed,
    )
