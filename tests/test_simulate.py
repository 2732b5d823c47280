import math

import numpy as np
import pytest

from birthdeath import TrajectoryStats, expr_model, make_context, simulate
from birthdeath.simulate import _POOL, _philox_blocks, _uniforms

import oracles


@pytest.mark.parametrize("key", [0, 2**64 - 1])
@pytest.mark.parametrize("run", [0, 1, 2**40])
def test_philox_blocks_match_numpy_philox(key, run):
    blocks = 6
    seed_key = np.array([key, run], dtype=np.uint64)
    raw = np.random.Philox(key=seed_key).random_raw(4 * (blocks + 2))
    # two rows of one run: blocks 1..6 and blocks 3..8
    words = _philox_blocks(key, np.array([run, run], dtype=np.uint64),
                           np.array([1, 3], dtype=np.uint64), blocks)
    per_row = np.stack(words, axis=-1)  # (block, row, word)
    assert np.array_equal(per_row[:, 0].ravel(), raw[:4 * blocks])
    assert np.array_equal(per_row[:, 1].ravel(), raw[8:])
    uniforms = np.random.Generator(np.random.Philox(key=seed_key)).random(4 * blocks)
    assert np.array_equal(_uniforms(per_row[:, 0].ravel()), uniforms)


def test_holding_time_uses_scalar_math_log(mctx):
    # Total rate 1 and a first jump down: the run's time is -log(1 - u).
    # For this seed's u, an AVX-512 np.log differs from math.log in the last bit.
    seed = 321
    u_hold, u_dir = np.random.Generator(
        np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))).random(2)
    assert u_dir >= 0.25
    stats = simulate(expr_model("0.25", "0.75", mctx), 1, 1, 10.0, seed)
    assert stats.mean_time_estimate == -math.log(1.0 - u_hold)


# (lambda, mu, start, runs, time_cap, seed) -> (extinct, censored, p_hat,
# mean time, se time, se prob), as computed with one
# numpy.random.Generator(Philox(key=(seed mod 2^64, r))) per run r
PINNED = [
    (("1", "n", 3, 3000, 1000.0, 5),
     (3000, 0, 1.0, 2.863935517574441, 0.04233119678305165, 0.0)),
    (("2", "1", 1, 3000, 5.0, 99),
     (1429, 1571, 0.47633333333333333, 0.754580142310665, 0.024295054976395287,
      0.009118477374519807)),
    (("100", "0.0001", 50, 20, 0.5, 3),
     (0, 20, 0.0, math.nan, math.nan, 0.0)),
    (("1", "2", 2, 500, 50.0, 2**64 + 12345),
     (500, 0, 1.0, 1.9370343890220518, 0.11243008447737363, 0.0)),
    (("1.7", "1.9", 2, 2000, 10000.0, 7),
     (2000, 0, 1.0, 10.096121684276813, 0.6513840473522, 0.0)),
    # more than two pools and not a whole number of them: runs join as others end
    (("1", "2", 1, 9000, 50.0, 11),
     (9000, 0, 1.0, 1.0122940452339186, 0.019066040302801228, 0.0)),
]


@pytest.mark.parametrize("case, expected", PINNED)
def test_stats_match_per_run_generators(mctx, case, expected):
    lam, mu, start, runs, cap, seed = case
    assert runs < _POOL or (runs > 2 * _POOL and runs % _POOL)
    stats = simulate(expr_model(lam, mu, mctx), start, runs, cap, seed)
    extinct, censored, p_hat, mean_t, se_t, se_p = expected
    pinned = TrajectoryStats(start, runs, extinct, censored, cap, p_hat, mean_t, se_t, se_p, seed)
    assert repr(stats) == repr(pinned)  # repr: exact floats, and NaN equals NaN


def test_reproducible_bit_identical(mctx):
    model = expr_model("1", "2", mctx)
    a = simulate(model, 2, 500, 50.0, 31337)
    b = simulate(model, 2, 500, 50.0, 31337)
    assert a == b


def test_single_run_determinism(mctx):
    model = expr_model("1", "n", mctx)
    a = simulate(model, 1, 1, 100.0, 5)
    b = simulate(model, 1, 1, 100.0, 5)
    assert a == b
    assert a.extinct_runs + a.censored_runs == 1


def test_different_seeds_differ(mctx):
    model = expr_model("1", "2", mctx)
    a = simulate(model, 1, 2000, 50.0, 1)
    b = simulate(model, 1, 2000, 50.0, 2)
    assert a.mean_time_estimate != b.mean_time_estimate


def test_counts_add_up_and_probability_in_range(mctx):
    model = expr_model("2", "1", mctx)
    stats = simulate(model, 1, 3000, 5.0, 99)
    assert stats.extinct_runs + stats.censored_runs == stats.runs == 3000
    assert 0.0 <= stats.extinction_probability_estimate <= 1.0
    assert stats.censored_runs > 0


def test_raising_cap_never_loses_extinctions(mctx):
    model = expr_model("2", "1", mctx)
    extinct = [simulate(model, 1, 3000, cap, 7).extinct_runs
               for cap in (0.5, 1.0, 3.0, 10.0)]
    assert extinct == sorted(extinct)
    assert extinct[0] < extinct[-1]


def test_subcritical_mean_matches_closed_form(mctx):
    # omega_1 = 1/(mu - lam) = 1 for lam=1, mu=2
    model = expr_model("1", "2", mctx)
    stats = simulate(model, 1, 20000, 100.0, 42)
    assert stats.censored_runs == 0
    ref = oracles.geometric_omega(1.0, 2.0, 1)
    assert abs(stats.mean_time_estimate - ref) <= 3 * stats.std_error_time


def test_supercritical_extinction_probability(mctx):
    # a_1 = mu/lam = 1/2 for lam=2, mu=1
    model = expr_model("2", "1", mctx)
    stats = simulate(model, 1, 20000, 30.0, 42)
    ref = oracles.geometric_extinction(2.0, 1.0, 1)
    assert abs(stats.extinction_probability_estimate - ref) <= 3 * stats.std_error_prob


def test_agreement_across_20_seeds(mctx):
    # omega_2 = 2 for lam=1, mu=2; demand >= 95% of seeds within 4 se
    model = expr_model("1", "2", mctx)
    hits = 0
    for seed in range(20):
        stats = simulate(model, 2, 3000, 200.0, seed)
        z = abs(stats.mean_time_estimate - 2.0) / stats.std_error_time
        hits += z < 4.0
    assert hits >= 19


def test_all_censored_gives_nan_time_estimate(mctx):
    model = expr_model("100", "0.0001", mctx)  # extinction effectively never
    stats = simulate(model, 50, 20, 0.5, 3)
    assert stats.extinct_runs == 0
    assert math.isnan(stats.mean_time_estimate)
    assert math.isnan(stats.std_error_time)
    assert stats.extinction_probability_estimate == 0.0


def test_validation(mctx):
    model = expr_model("1", "2", mctx)
    with pytest.raises(ValueError):
        simulate(model, 0, 10, 1.0, 0)
    with pytest.raises(ValueError):
        simulate(model, 2**62 + 1, 10, 1.0, 0)
    with pytest.raises(ValueError):
        simulate(model, 1, 0, 1.0, 0)
    with pytest.raises(ValueError):
        simulate(model, 1, 10, 0.0, 0)


def test_extended_context_model_is_fine_machine_sim():
    # simulation always runs in machine floats, whatever the model context
    ctx = make_context("extended", 30)
    model = expr_model("1", "2", ctx)
    stats = simulate(model, 1, 200, 50.0, 11)
    assert stats.extinct_runs == 200
    assert isinstance(stats.mean_time_estimate, float)
