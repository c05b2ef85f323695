import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentumrank
from momentumrank import (
    InputError,
    StudyConfig,
    build_delta_system,
    frontier_bruteforce,
    moving_maxima,
    run_study,
    run_trial,
    trial_gains,
)
from momentumrank.frontier import leader_mask
from momentumrank.simulation import bound_estimate, nearest_rank_percentile

from util import alloc_trial_gains, record_count_pmf, records_from_pairs


class TestStudyConfig:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(n=1, trials=10), "n must"),
            (dict(n=100, trials=0), "trials"),
            (dict(n=100, trials=1, percentiles=(0.0,)), "percentiles"),
            (dict(n=100, trials=1, percentiles=(100.0,)), "percentiles"),
            (dict(n=100, trials=1, percentiles=()), "percentile"),
            (dict(n=100, trials=1, seed=-1), "seed"),
        ],
        # pinned, so that a case keeps its id when others are added or dropped
        ids=[
            "kwargs0-n must",
            "kwargs1-trials",
            "kwargs4-percentiles",
            "kwargs5-percentiles",
            "kwargs6-percentile",
            "kwargs9-seed",
        ],
    )
    def test_invalid_configs_rejected(self, kwargs, match):
        with pytest.raises(InputError, match=match):
            StudyConfig(**kwargs)


class TestRunTrial:
    def test_anticorrelated_pair_keeps_both(self):
        mask = leader_mask(np.array([5.0, 1.0]), np.array([0.1, 0.9]))
        assert mask.tolist() == [True, True]

    def test_size_within_bounds(self):
        config = StudyConfig(n=300, trials=1, seed=5)
        for t in range(25):
            size = run_trial(config, t)
            assert 1 <= size <= config.n

    def test_deterministic_per_trial_index(self):
        config = StudyConfig(n=1000, trials=1, seed=3)
        assert run_trial(config, 7) == run_trial(config, 7)
        g1, _ = trial_gains(config, 0)
        g2, _ = trial_gains(config, 1)
        assert not np.array_equal(g1, g2)

    def test_matches_bruteforce_on_small_systems(self):
        config = StudyConfig(n=60, trials=1, seed=13)
        for t in range(40):
            g, r = trial_gains(config, t)
            ds = build_delta_system(records_from_pairs(g, r))
            assert run_trial(config, t) == len(frontier_bruteforce(ds).leaders)

    def test_each_trial_respects_moving_maxima_bound(self):
        config = StudyConfig(n=400, trials=1, seed=17)
        for t in range(25):
            g, r = trial_gains(config, t)
            order = np.argsort(-g, kind="stable")
            count = moving_maxima(r[order].tolist()).count
            assert run_trial(config, t) <= count


class TestTrialGains:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1), trial_index=st.integers(0, 2**31))
    def test_matches_allocating_sampler_bit_for_bit(self, n, seed, trial_index):
        config = StudyConfig(n=n, trials=1, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial_index)))
        expected = (rng.random(n), rng.random(n))
        buf = np.full((2, n), np.nan)
        for got in (trial_gains(config, trial_index), trial_gains(config, trial_index, out=buf)):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.1, 8.0),
        x_min=st.floats(1e-3, 1e3),
        span=st.floats(1.5, 1e6),
        n=st.integers(2, 400),
        seed=st.integers(0, 2**32 - 1),
        trial_index=st.integers(0, 2**31),
    )
    def test_leaders_match_power_law_sampler(self, alpha, x_min, span, n, seed, trial_index):
        # a strictly increasing map of either coordinate keeps every leader
        config = StudyConfig(n=n, trials=1, seed=seed)
        pareto = alloc_trial_gains(config, trial_index, alpha, x_min, x_min * span)
        assert np.array_equal(leader_mask(*trial_gains(config, trial_index)), leader_mask(*pareto))

    def test_rows_are_views_of_out(self):
        config = StudyConfig(n=50, trials=1, seed=1)
        buf = np.empty((2, 50))
        g, r = trial_gains(config, 0, out=buf)
        assert np.shares_memory(g, buf[0]) and np.shares_memory(r, buf[1])
        trial_gains(config, 3, out=buf)
        assert np.array_equal(buf, np.stack(trial_gains(config, 3)))

    def test_calls_without_out_never_alias(self):
        config = StudyConfig(n=50, trials=1, seed=1)
        g1, r1 = trial_gains(config, 0)
        g2, r2 = trial_gains(config, 0)
        assert not any(np.shares_memory(a, b) for a in (g1, r1) for b in (g2, r2))

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((2, 49)),
            np.empty((50, 2)),
            np.empty(100),
            np.empty((2, 50), dtype=np.float32),
            np.empty((2, 50), order="F"),
            np.empty((2, 100))[:, ::2],
            [[0.0] * 50] * 2,
        ],
        ids=["short", "transposed", "flat", "float32", "fortran", "strided", "list"],
    )
    def test_wrong_out_rejected(self, out):
        with pytest.raises(InputError, match="out must be"):
            trial_gains(StudyConfig(n=50, trials=1), 0, out=out)

    def test_read_only_out_rejected(self):
        buf = np.empty((2, 50))
        buf.flags.writeable = False
        with pytest.raises(InputError, match="out must be"):
            trial_gains(StudyConfig(n=50, trials=1), 0, out=buf)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are Linux-specific")
    def test_study_loop_does_not_fault_in_fresh_pages(self):
        # Four fresh 160 KB arrays per trial cost about 125 minor faults a
        # trial, 12.5k for this study, because the allocator hands the freed
        # heap top back to the kernel after each trial. The reused buffer
        # costs about 50 in all. A fresh interpreter, as the CLI runs in,
        # keeps the allocator's thresholds of earlier tests out of the count.
        script = (
            "import resource\n"
            "from momentumrank import StudyConfig, run_study\n"
            "config = StudyConfig(n=20_000, trials=100, seed=1)\n"
            "run_study(config)\n"  # warm: imports, allocator arenas, numpy caches
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_study(config)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(momentumrank.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout) < 1_000


class TestRunStudy:
    def test_identical_configs_reproduce_identical_results(self):
        config = StudyConfig(n=2000, trials=30, seed=7)
        a, b = run_study(config), run_study(config)
        assert a.sizes == b.sizes
        assert a.percentile_values == b.percentile_values
        assert a.fitted_c == b.fitted_c

    def test_single_trial_pins_every_percentile(self):
        result = run_study(StudyConfig(n=500, trials=1, seed=2, percentiles=(5.0, 50.0, 95.0)))
        (size,) = result.sizes
        assert all(v == size for v in result.percentile_values.values())

    def test_percentiles_non_decreasing(self):
        result = run_study(StudyConfig(n=2000, trials=60, seed=11, percentiles=(50.0, 75.0, 95.0, 99.0)))
        values = [result.percentile_values[p] for p in (50.0, 75.0, 95.0, 99.0)]
        assert values == sorted(values)

    def test_sizes_orders_of_magnitude_below_n(self):
        result = run_study(StudyConfig(n=20_000, trials=10, seed=19))
        assert max(result.sizes) <= 30

    def test_fitted_c_consistent_with_percentiles(self):
        result = run_study(StudyConfig(n=5000, trials=40, seed=23))
        denom = (math.log10(5000) + 1) ** 2
        for p, value in result.percentile_values.items():
            assert result.fitted_c[p] == pytest.approx(value / denom)

    @pytest.mark.parametrize(
        "config, sizes",
        [
            (
                StudyConfig(n=20_000, trials=20, seed=7),
                (12, 10, 10, 10, 17, 11, 9, 10, 9, 7, 14, 5, 10, 11, 17, 9, 8, 11, 11, 13),
            ),
            (StudyConfig(n=50_000, trials=5, seed=3), (10, 21, 7, 13, 8)),
        ],
    )
    def test_seeded_sizes_pinned_at_benchmark_scale(self, config, sizes):
        # written by the lexsort kernel that preceded the sample screen
        assert run_study(config).sizes == sizes

    def test_matches_exact_record_count_law(self):
        # with continuous, independent marginals the leader count has the law
        # of the record count of a random permutation: a sum of Bernoulli(1/k)
        n = 20_000
        pmf = record_count_pmf(n)
        cdf = np.cumsum(pmf)
        exact = {p: int(np.searchsorted(cdf, p / 100)) for p in (95.0, 99.0)}
        assert exact == {95.0: 16, 99.0: 18}
        k = np.arange(len(pmf))
        mean = float(k @ pmf)
        assert mean == pytest.approx(math.fsum(1 / j for j in range(1, n + 1)), rel=1e-12)
        sd = math.sqrt(float((k - mean) ** 2 @ pmf))

        result = run_study(StudyConfig(n=n, trials=500, seed=7))
        assert result.percentile_values == exact
        sample_mean = sum(result.sizes) / len(result.sizes)
        assert abs(sample_mean - mean) <= 4 * sd / math.sqrt(len(result.sizes))

    def test_trial_order_does_not_matter(self):
        config = StudyConfig(n=800, trials=12, seed=29)
        forward = [run_trial(config, t) for t in range(config.trials)]
        backward = [run_trial(config, t) for t in reversed(range(config.trials))]
        assert forward == list(reversed(backward))
        assert run_study(config).sizes == tuple(forward)


class TestNearestRankPercentile:
    def test_decile_sample(self):
        values = list(range(1, 11))
        assert nearest_rank_percentile(values, 95) == 10
        assert nearest_rank_percentile(values, 50) == 5
        assert nearest_rank_percentile(values, 10) == 1
        # 7 / 100 * 100 is 7.000000000000001 in floats; the rank must be 7
        assert nearest_rank_percentile(list(range(1, 101)), 7) == 7

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            nearest_rank_percentile([], 95)


class TestBoundEstimate:
    def test_pins_log_base_ten(self):
        assert bound_estimate(20_000, 1 / 3) == pytest.approx(9.37, abs=0.01)
        assert bound_estimate(200_000, 1 / 2) == pytest.approx(19.85, abs=0.01)

    def test_small_n(self):
        assert bound_estimate(10, 1.0) == pytest.approx(4.0)

    def test_invalid_arguments(self):
        with pytest.raises(InputError):
            bound_estimate(0, 0.5)
        with pytest.raises(InputError):
            bound_estimate(100, 0.0)
