import json
import math
import os
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
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
    write_report,
)
from momentumrank import frontier, simulation
from momentumrank.frontier import _SAMPLE, leader_mask
from momentumrank.simulation import bound_estimate, nearest_rank_percentile

from util import (
    KERNEL_STYLES,
    alloc_trial_gains,
    brute_leader_mask,
    kernel_pairs,
    record_count_pmf,
    records_from_pairs,
)


def _integers(lo: int, hi: int):
    """Integers in [lo, hi] as Python ints and numpy integer scalars (uint8 ones from 0), and bools."""
    ints = st.integers(lo, hi)
    return ints | st.booleans() | ints.map(np.int64) | ints.map(np.int32) | st.integers(0, min(hi, 255)).map(np.uint8)


def _reals():
    """Percentiles of every type a real number comes in, bools and numpy scalars too; most in range, some not."""
    inside = st.floats(0, 100, exclude_min=True, exclude_max=True)
    return (
        st.integers(1, 99)
        | inside
        | st.fractions(0, 100)
        | st.decimals(0, 100)
        | st.booleans()
        | st.integers(1, 99).map(np.int64)
        | inside.map(np.float64)
        | st.floats(0, 100, width=32).map(np.float32)
        | st.integers(-5, 105)
        | st.floats()
        | st.decimals()
    )


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
            (dict(n=100, trials=1, percentiles=(95.0, 99.0, 95.0)), "percentiles must not repeat, got 95.0 twice"),
            (dict(n=2.5, trials=2), "^n must be an integer, got 2.5$"),
            (dict(n=math.nan, trials=2), "^n must be an integer, got nan$"),
            (dict(n=100, trials=2.5), "^trials must be an integer, got 2.5$"),
            (dict(n=100, trials=2, seed=1.5), "^seed must be an integer, got 1.5$"),
            (dict(n="100", trials=2), "^n must be an integer, got '100'$"),
            (dict(n=10, trials=2, percentiles=("95",)), "^percentiles must be real numbers, got '95'$"),
            (dict(n=10, trials=2, percentiles=(None,)), "^percentiles must be real numbers, got None$"),
            (dict(n=10, trials=2, percentiles=95.0), "^percentiles must be a sequence of real numbers, got 95.0$"),
            (dict(n=10, trials=2, percentiles="95"), "^percentiles must be a sequence of real numbers, got '95'$"),
            (dict(n=10, trials=2, percentiles=None), "^percentiles must be a sequence of real numbers, got None$"),
            (dict(n=10, trials=2, percentiles=b"95"), "^percentiles must be a sequence of real numbers, got b'95'$"),
            (dict(n=10, trials=2, percentiles=(Decimal("NaN"),)), r"^percentiles must lie in \(0, 100\), got NaN$"),
            (dict(n=10, trials=2, percentiles=(Fraction(1, 10**400),)), r"^percentiles must lie in \(0, 100\), got 1/"),
            (dict(n=10, trials=2, percentiles=(Fraction(1, 3), 1 / 3)), "^percentiles must not repeat, got 0.3333"),
        ],
        # pinned, so that a case keeps its id when others are added or dropped
        ids=[
            "kwargs0-n must",
            "kwargs1-trials",
            "kwargs4-percentiles",
            "kwargs5-percentiles",
            "kwargs6-percentile",
            "kwargs9-seed",
            "repeated-percentile",
            "fractional-n",
            "nan-n",
            "fractional-trials",
            "fractional-seed",
            "string-n",
            "string-percentile",
            "none-percentile",
            "scalar-percentiles",
            "string-percentiles",
            "none-percentiles",
            "bytes-percentiles",
            "decimal-nan-percentile",
            "percentile-whose-float-is-zero",
            "percentiles-with-one-float",
        ],
    )
    def test_invalid_configs_rejected(self, kwargs, match):
        with pytest.raises(InputError, match=match):
            StudyConfig(**kwargs)

    def test_percentiles_are_kept_as_a_tuple(self):
        # each as given, so the report echoes 95 as 95; a tuple, so configs compare and hash by value
        listed = StudyConfig(n=10, trials=2, percentiles=[95, 99.0])
        assert listed.percentiles == (95, 99.0) and type(listed.percentiles[0]) is int
        assert listed == StudyConfig(n=10, trials=2, percentiles=(95, 99.0))
        assert hash(listed) == hash(StudyConfig(n=10, trials=2, percentiles=(95, 99.0)))

    def test_numpy_integers_accepted(self):
        config = StudyConfig(n=np.int64(50), trials=np.int32(3), seed=np.uint8(4))
        assert run_study(config).sizes == run_study(StudyConfig(n=50, trials=3, seed=4)).sizes
        echo = json.loads(write_report(run_study(config), "json"))["config"]
        assert echo == {"n": 50, "trials": 3, "seed": 4, "percentiles": [95.0, 99.0]}

    @pytest.mark.parametrize("kind", [int, np.int64, np.int32, np.uint8], ids=lambda kind: kind.__name__)
    def test_each_integer_is_kept_as_the_int_read(self, kind):
        config = StudyConfig(n=kind(5), trials=kind(2), seed=kind(3))
        assert [type(value) for value in (config.n, config.trials, config.seed)] == [int, int, int]
        assert config == StudyConfig(n=5, trials=2, seed=3) and hash(config) == hash(StudyConfig(n=5, trials=2, seed=3))

    def test_a_bool_is_kept_as_its_int(self):
        config = StudyConfig(n=10, trials=True, seed=False)
        assert (config.trials, config.seed) == (1, 0) and type(config.trials) is type(config.seed) is int
        assert run_study(config).sizes == run_study(StudyConfig(n=10, trials=1, seed=0)).sizes  # one trial

    def test_the_json_echo_writes_each_percentile_as_a_number(self):
        # an int or a float as given, any other real number as its float, so a bool reads as its key does
        given = (95, 99.5, Fraction(50), Decimal("97.5"), np.int64(7), np.float32(0.5), True)
        echo = json.loads(write_report(run_study(StudyConfig(n=10, trials=2, percentiles=given)), "json"))["config"]
        assert echo["percentiles"] == [95, 99.5, 50.0, 97.5, 7.0, 0.5, 1.0]
        assert [type(p) for p in echo["percentiles"]] == [int] + [float] * 6

    @settings(max_examples=300)
    @given(
        n=_integers(2, 40),
        trials=_integers(1, 4),
        seed=_integers(0, 300),
        percentiles=st.lists(_reals(), min_size=1, max_size=3),
    )
    def test_every_config_that_constructs_renders(self, n, trials, seed, percentiles):
        try:
            config = StudyConfig(n=n, trials=trials, seed=seed, percentiles=percentiles)
        except InputError:
            return
        result = run_study(config)
        assert write_report(result, "csv") and write_report(result, "markdown")
        payload = json.loads(write_report(result, "json"))
        echo = payload["config"]
        assert [echo[name] for name in ("n", "trials", "seed")] == [n, trials, seed]
        assert [type(echo[name]) for name in ("n", "trials", "seed")] == [int, int, int]
        assert all(type(p) in (int, float) for p in echo["percentiles"])
        assert len(echo["percentiles"]) == len(payload["percentiles"]) == len(config.percentiles)  # a row each


class TestRunTrial:
    def test_anticorrelated_pair_keeps_both(self):
        mask = leader_mask(np.array([5.0, 1.0]), np.array([0.1, 0.9]))
        assert mask.tolist() == [True, True]

    @pytest.mark.parametrize(
        "index, message",
        [(-1, "trial index must be >= 0, got -1"), (1.5, "trial index must be an integer, got 1.5")],
        ids=["negative", "fractional"],
    )
    @pytest.mark.parametrize("draw", [run_trial, trial_gains], ids=["run_trial", "trial_gains"])
    def test_invalid_trial_index_rejected(self, draw, index, message):
        with pytest.raises(InputError) as excinfo:
            draw(StudyConfig(n=10, trials=1), index)
        assert str(excinfo.value) == message

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
    @settings(max_examples=100)
    @given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1), trial_index=st.integers(0, 2**31))
    def test_matches_allocating_sampler_bit_for_bit(self, n, seed, trial_index):
        config = StudyConfig(n=n, trials=1, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial_index)))
        expected = (rng.random(n), rng.random(n))
        assert [a.tobytes() for a in trial_gains(config, trial_index)] == [a.tobytes() for a in expected]

    @settings(max_examples=200)
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

    def test_calls_without_out_never_alias(self):
        config = StudyConfig(n=50, trials=1, seed=1)
        g1, r1 = trial_gains(config, 0)
        g2, r2 = trial_gains(config, 0)
        assert not any(np.shares_memory(a, b) for a in (g1, r1) for b in (g2, r2))

    @pytest.mark.parametrize("draw", [trial_gains, run_trial], ids=["trial_gains", "run_trial"])
    def test_a_buffer_numpy_refuses_is_an_input_error_naming_n(self, draw):
        with pytest.raises(InputError, match=f"^n={10**30} is too large: no memory for its \\(2, n\\) float64 buffer$"):
            draw(StudyConfig(n=10**30, trials=1), 0)

    @pytest.mark.parametrize("draw", [trial_gains, run_trial], ids=["trial_gains", "run_trial"])
    def test_a_buffer_that_cannot_be_allocated_is_an_input_error_naming_n(self, monkeypatch, draw):
        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate {shape}")

        monkeypatch.setattr(simulation.np, "empty", no_memory)
        with pytest.raises(InputError, match="^n=5000 is too large"):
            draw(StudyConfig(n=5000, trials=1), 0)

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


class TestLeaderCount:
    # the kernel's own cases are in test_frontier.py; these check how a trial's count reaches it
    @pytest.mark.parametrize("style", KERNEL_STYLES)
    def test_matches_brute_force_and_leader_mask(self, monkeypatch, style):
        rng = np.random.default_rng([83, KERNEL_STYLES.index(style)])
        for n in (2, 7, 4 * _SAMPLE + 1):  # the last reaches leader_mask's sample screen
            g, r = kernel_pairs(rng, n, style)
            for g, r in ((g, r), (-r, -g)):  # reflected: the minimal points lead
                monkeypatch.setattr(simulation, "trial_gains", lambda config, i: (g, r))
                count = run_trial(StudyConfig(n=n, trials=1), 0)
                assert count == int(brute_leader_mask(g, r).sum())
                assert count == int(leader_mask(g, r).sum())

    def test_corner_drops_the_bulk_of_a_uniform_trial(self, monkeypatch):
        # leader_mask screens what its corner cut keeps
        sizes, screen = [], frontier._screen

        def counted(g, r):
            sizes.append(len(g))
            return screen(g, r)

        monkeypatch.setattr(frontier, "_screen", counted)
        run_trial(StudyConfig(n=20_000, trials=1, seed=37), 0)
        assert len(sizes) == 1 and sizes[0] < 1_000


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
        assert type(size) is int  # the sizes array hands on Python ints, not numpy ones
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

    def test_sizes_match_leader_mask(self):
        config = StudyConfig(n=20_000, trials=40, seed=41)
        expected = tuple(int(leader_mask(*trial_gains(config, i)).sum()) for i in range(config.trials))
        assert run_study(config).sizes == expected

    def test_trial_order_does_not_matter(self):
        config = StudyConfig(n=800, trials=12, seed=29)
        forward = [run_trial(config, t) for t in range(config.trials)]
        backward = [run_trial(config, t) for t in reversed(range(config.trials))]
        assert forward == list(reversed(backward))
        assert run_study(config).sizes == tuple(forward)

    @pytest.mark.parametrize("failing_count", [1, 2, 3])
    def test_a_failing_trial_stops_every_worker(self, monkeypatch, failing_count):
        # the calling thread is the study's only worker: the failing count's
        # error comes out, no later trial is counted, and no thread is left behind
        calls = []

        def failing(g, r):
            calls.append(None)
            if len(calls) == failing_count:
                raise RuntimeError("count failed")
            return leader_mask(g, r)

        monkeypatch.setattr(simulation, "leader_mask", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="count failed"):
            run_study(StudyConfig(n=2000, trials=200, seed=3))
        assert len(calls) == failing_count
        assert threading.active_count() == threads

    @pytest.mark.parametrize("trials", [1, 2])
    def test_a_buffer_numpy_refuses_is_an_input_error_naming_n(self, trials):
        with pytest.raises(InputError, match=f"^n={10**30} is too large"):
            run_study(StudyConfig(n=10**30, trials=trials))

    def test_a_buffer_that_cannot_be_allocated_is_an_input_error_naming_n(self, monkeypatch):
        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate {shape}")

        monkeypatch.setattr(simulation.np, "empty", no_memory)
        with pytest.raises(InputError, match="^n=5000 is too large"):
            run_study(StudyConfig(n=5000, trials=3))

    def test_sizes_that_cannot_be_allocated_are_an_input_error_naming_trials(self, monkeypatch):
        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate {shape}")

        monkeypatch.setattr(simulation.np, "zeros", no_memory)
        with pytest.raises(InputError, match="^trials=7 is too large: no memory for its sizes$"):
            run_study(StudyConfig(n=100, trials=7))

    def test_every_trial_reuses_one_buffer(self, monkeypatch):
        # the reuse is why the loop does not simply call run_trial, which fills a fresh buffer
        shapes = []
        empty = np.empty

        def counted(shape, *args, **kwargs):
            shapes.append(shape)
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(simulation.np, "empty", counted)
        config = StudyConfig(n=3000, trials=40, seed=31)
        sizes = run_study(config).sizes
        monkeypatch.undo()
        assert shapes.count((2, 3000)) == 1
        assert sizes == tuple(run_trial(config, i) for i in range(config.trials))


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

    @pytest.mark.parametrize("p", ["95", None], ids=["string", "none"])
    def test_a_percentile_that_is_not_a_number_rejected_as_study_config_rejects_it(self, p):
        with pytest.raises(InputError) as from_config:
            StudyConfig(n=10, trials=2, percentiles=(p,))
        with pytest.raises(InputError) as from_rank:
            nearest_rank_percentile([1, 2], p)
        assert str(from_rank.value) == str(from_config.value) == f"percentiles must be real numbers, got {p!r}"

    @pytest.mark.parametrize("p", [0, 100])
    def test_percentile_outside_the_open_range_rejected(self, p):
        with pytest.raises(InputError, match=rf"^percentiles must lie in \(0, 100\), got {p}$"):
            nearest_rank_percentile([1.0, 2.0], p)


class TestBoundEstimate:
    def test_pins_log_base_ten(self):
        assert bound_estimate(20_000, 1 / 3) == pytest.approx(9.37, abs=0.01)
        assert bound_estimate(200_000, 1 / 2) == pytest.approx(19.85, abs=0.01)

    def test_small_n(self):
        assert bound_estimate(10, 1.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("c", [Decimal("0.5"), Fraction(1, 2), 0.5], ids=["Decimal", "Fraction", "float"])
    def test_every_number_type_gives_the_float_estimate(self, c):
        assert bound_estimate(10, c) == bound_estimate(10, 0.5) == 2.0

    def test_invalid_arguments(self):
        with pytest.raises(InputError):
            bound_estimate(0, 0.5)
        with pytest.raises(InputError):
            bound_estimate(100, 0.0)
        for n, c, message in [
            (math.nan, 0.5, "n must be >= 1, got nan"),
            (math.inf, 0.5, "n must be >= 1, got inf"),
            (10, math.nan, "c must be > 0, got nan"),
            (10, math.inf, "c must be > 0, got inf"),
            (10, 10**400, "c must be > 0, got inf"),  # an int past the float range reads as inf
        ]:
            with pytest.raises(InputError) as excinfo:
                bound_estimate(n, c)
            assert str(excinfo.value) == message
