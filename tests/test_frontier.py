import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentumrank import (
    InputError,
    build_delta_system,
    dominated_set,
    dominates,
    frontier_bruteforce,
    frontier_sortscan,
    interval,
    moving_maxima,
    parse_gains_table,
    runners_up,
    verify_bound,
)
from momentumrank.frontier import _SAMPLE, _screen, leader_mask, leader_rows

from util import (
    KERNEL_STYLES,
    STYLES,
    brute_leader_mask,
    full_sort_bound_count,
    kernel_pairs,
    leader_row,
    lexsort_leader_mask,
    naive_dominated_indices,
    naive_layers,
    naive_leader_indices,
    naive_max_window,
    naive_moving_maxima,
    random_pairs,
    records_from_pairs,
)

# inputs larger than this reach leader_mask's sample screen
SCREENED = 4 * _SAMPLE

@st.composite
def kernel_inputs(draw):
    n = draw(st.one_of(st.integers(1, 40), st.integers(SCREENED - 50, 6000)))
    style = draw(st.sampled_from(KERNEL_STYLES))
    g, r = kernel_pairs(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, style)
    if draw(st.booleans()):
        g, r = -r, -g  # reflect: the minimal points become the leaders
    return np.ascontiguousarray(g), np.ascontiguousarray(r)


def ranks_of(ds, ids):
    return sorted(ds.by_id(i).rank for i in ids)


class TestFrontier:
    def test_table1_erratum_leaders(self, fixtures_dir):
        # printed numbers put V5 above V3 in both coordinates, so the
        # narrative's three-leader claim does not hold: {V5, V8} is correct
        ds = parse_gains_table(fixtures_dir / "table1.csv")
        pairs = [(e.g, e.r) for e in ds.entities]
        oracle = {ds.entities[i].id for i in naive_leader_indices(pairs)}
        assert oracle == {"V5", "V8"}
        assert frontier_bruteforce(ds).leader_set == {"V5", "V8"}
        assert frontier_sortscan(ds).leader_set == {"V5", "V8"}

    def test_single_entity_is_sole_leader(self):
        ds = build_delta_system([("only", 1.0, 0.5)])
        assert frontier_bruteforce(ds).leaders == ("only",)
        assert frontier_sortscan(ds).leaders == ("only",)

    def test_table2_three_leaders(self, table2):
        result = frontier_bruteforce(table2)
        assert ranks_of(table2, result.leaders) == [4, 22, 28]
        assert frontier_sortscan(table2).leader_set == result.leader_set

    def test_table6_stock_gainers(self, fixtures_dir):
        ds = parse_gains_table(fixtures_dir / "table6.csv")
        assert frontier_sortscan(ds).leader_set == {"QS", "CADE", "BKKT"}

    def test_duplicate_points_are_all_leaders(self):
        ds = build_delta_system([("a", 7.0, 0.3), ("b", 7.0, 0.3)])
        assert frontier_sortscan(ds).leader_set == {"a", "b"}
        assert frontier_bruteforce(ds).leader_set == {"a", "b"}

    def test_empty_system_rejected(self):
        ds = build_delta_system([])
        with pytest.raises(InputError):
            frontier_bruteforce(ds)
        with pytest.raises(InputError):
            frontier_sortscan(ds)

    def test_leaders_reported_in_rank_order(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g, r = random_pairs(rng, int(rng.integers(1, 60)), "mixed")
            ds = build_delta_system(records_from_pairs(g, r))
            leaders = frontier_sortscan(ds).leaders
            assert list(leaders) == sorted(leaders, key=lambda i: ds.by_id(i).rank)

    @pytest.mark.parametrize("style", STYLES)
    def test_sortscan_matches_bruteforce_and_naive(self, style):
        rng = np.random.default_rng([79, STYLES.index(style)])
        for _ in range(75):
            n = int(rng.integers(1, 120))
            g, r = random_pairs(rng, n, style)
            ds = build_delta_system(records_from_pairs(g, r))
            fast = frontier_sortscan(ds).leader_set
            slow = frontier_bruteforce(ds).leader_set
            oracle = {ds.entities[i].id for i in naive_leader_indices(list(zip(g, r)))}
            assert fast == slow == oracle

    @pytest.mark.parametrize("style", STYLES)
    def test_every_entity_is_covered_by_some_leader(self, style):
        rng = np.random.default_rng(len(style))
        for _ in range(30):
            g, r = random_pairs(rng, int(rng.integers(1, 80)), style)
            ds = build_delta_system(records_from_pairs(g, r))
            result = frontier_sortscan(ds)
            covered = set(result.leaders)
            for m in result.leaders:
                covered |= dominated_set(ds, m)
            assert covered == {e.id for e in ds.entities}

    def test_results_compare_by_system_leaders_and_algorithm(self, table2):
        first, second = frontier_sortscan(table2), frontier_sortscan(table2)
        assert first is not second and first == second and hash(first) == hash(second)
        brute = frontier_bruteforce(table2)
        assert brute.leaders == first.leaders and brute != first
        assert first.__eq__(table2.ids) is NotImplemented

    def test_leaders_pairwise_incomparable(self):
        from momentumrank import dominates

        rng = np.random.default_rng(23)
        for _ in range(30):
            g, r = random_pairs(rng, int(rng.integers(2, 80)), "grid")
            ds = build_delta_system(records_from_pairs(g, r))
            leaders = [ds.by_id(i) for i in frontier_sortscan(ds).leaders]
            for e in leaders:
                for f in leaders:
                    assert not dominates(e, f)


# floats at the edges: nan, both infinities, both zeros, subnormals, the largest magnitudes
edge_float = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0]),
    st.floats(),
)


@settings(max_examples=300)
@given(st.lists(st.tuples(edge_float, edge_float, edge_float), min_size=1, max_size=12))
def test_float_edges_through_the_build(values):
    # the build rejects exactly the non-finite values and negative scores; all it accepts, the kernel ranks right
    records = [(f"e{i}", score, g, r) for i, (score, g, r) in enumerate(values)]
    faulty = any(not math.isfinite(v) for row in values for v in row) or any(score < 0 for score, _, _ in values)
    try:
        ds = build_delta_system(records)
    except InputError:
        assert faulty
        return
    assert not faulty
    result = frontier_sortscan(ds)
    assert result.leaders == frontier_bruteforce(ds).leaders
    for m in result.leaders:
        leader = ds.by_id(m)
        assert dominated_set(ds, m) == {e.id for e in ds.entities if dominates(e, leader)}
    assert batch_rows(ds) == oracle_rows(ds, result.leaders)


def batch_rows(ds) -> list[tuple]:
    """``leader_rows`` as (id, w bits, interval, |D(m)|) per leader."""
    result = frontier_sortscan(ds)
    table = leader_rows(result)
    w = [None] * len(result.positions) if table.w is None else [float(x).hex() for x in table.w]
    return [
        (ds.ids[p], bits, (lo, hi), count)
        for p, bits, lo, hi, count in zip(
            result.positions.tolist(), w, table.left.tolist(), table.right.tolist(), table.dominated.tolist()
        )
    ]


def oracle_rows(ds, leaders) -> list[tuple]:
    """The same rows from one O(n) mask per leader, ``w`` by ``math.fsum``."""
    rows = []
    for m in leaders:
        w, span, count = leader_row(ds, m)
        rows.append((m, None if w is None else w.hex(), span, count))
    return rows


SCORE_KINDS = ("none", "tied", "zero", "spread", "uniform")


@st.composite
def scored_systems(draw):
    """Systems in every ``random_pairs`` style, on both sides of the screen threshold, with all score regimes."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(SCREENED - 40, SCREENED + 400)))
    style = draw(st.sampled_from(STYLES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g, r = random_pairs(rng, n, style)
    kind = draw(st.sampled_from(SCORE_KINDS))
    if kind == "none":
        scores = None
    elif kind == "tied":
        scores = np.full(n, 3.0)
    elif kind == "zero":
        scores = np.zeros(n)
    elif kind == "spread":  # terms from 1 down through the subnormals to 0, some scores 0
        scores = 10.0 ** rng.uniform(-300, 300, n) * (rng.random(n) < 0.9)
    else:
        scores = rng.random(n) * 1e6
    return build_delta_system(records_from_pairs(g, r, scores))


@settings(max_examples=80)
@given(scored_systems())
def test_leader_rows_match_the_per_leader_oracle(ds):
    # bit-identical w, identical intervals and |D(m)|, for every leader
    assert batch_rows(ds) == oracle_rows(ds, frontier_sortscan(ds).leaders)


def test_leader_rows_round_like_fsum_past_the_kept_limbs():
    # 0.25 + 2**-55 is a tie that rounds down to even; 2**-202, far below, breaks it upwards
    records = [("m", 0.75, 4.0, 4.0), ("a", 0.25, 3.0, 3.0), ("b", 2.0**-55, 2.0, 2.0), ("c", 2.0**-202, 1.0, 1.0)]
    ds = build_delta_system(records)
    w = leader_rows(frontier_sortscan(ds)).w
    assert w.tolist() == [0.25 + 2.0**-54] == [math.fsum([0.25, 2.0**-55, 2.0**-202])]


@pytest.mark.parametrize("tiny", range(27))
def test_leader_rows_carry_past_the_top_limb(tiny):
    # a tiny term sets the lowest bit, and so where the limbs of twelve equal terms fall
    records = [("m", 1.0, 20.0, 20.0), ("z", 2.0**-tiny, 1.0, 1.0)]
    records += [(f"e{i:02d}", 1.0, float(i + 2), float(i + 2)) for i in range(12)]
    ds = build_delta_system(records)
    assert batch_rows(ds) == oracle_rows(ds, frontier_sortscan(ds).leaders)


def test_leader_rows_sum_across_the_widest_exponent_span():
    # the scores sum to exactly 1, so "t" normalises to the smallest subnormal; "s" leads only
    # "t", and for "m" that term breaks the tie of 0.5 + 2**-54 upwards
    tiny = 2.0**-1074
    records = [
        ("a", 0.5, 5.0, 5.0),
        ("m", 0.25, 10.0, 10.0),
        ("s", 0.25 - 2.0**-54, 2.0, 20.0),
        ("b", 2.0**-54, 4.0, 4.0),
        ("t", tiny, 1.0, 1.0),
    ]
    ds = build_delta_system(records)
    assert ds.score[ds.index("t")] / ds.total_score == tiny
    assert batch_rows(ds) == oracle_rows(ds, frontier_sortscan(ds).leaders)
    result = frontier_sortscan(ds)
    w = dict(zip(result.leaders, leader_rows(result).w.tolist()))
    assert w == {"m": 0.5 + 2.0**-53, "s": tiny}
    assert math.fsum([0.5, 2.0**-54, tiny]) == 0.5 + 2.0**-53 != 0.5 + 2.0**-54


def test_leader_rows_sum_long_overlapping_ranges():
    # 300 leaders on an anti-diagonal; the entity at (1000 + a, 1000 + b) is dominated by every
    # leader k with a < k < 299 - b, a run of up to 300 leaders
    rng = np.random.default_rng(83)
    k = np.arange(300.0)
    a, b = rng.uniform(-50, 148, (2, 3000))
    g = np.concatenate((1000 + k, 1000 + a))
    r = np.concatenate((1299 - k, 1000 + b))
    scores = 10.0 ** rng.uniform(-300, 300, len(g))
    ds = build_delta_system(records_from_pairs(g, r, scores))
    result = frontier_sortscan(ds)
    assert len(result.positions) == 300 and leader_rows(result).dominated.max() > 2000
    assert batch_rows(ds) == oracle_rows(ds, frontier_sortscan(ds).leaders)


# (g, r) in rank order, and the interval of each leader in rank order
EDGE_INTERVALS = {
    "leaders at rank 1 and rank n": (
        [(10, 1), (8, 0.5), (4, 4), (3, 3), (0.5, 9), (1, 10)],
        [(1, 2), (3, 4), (5, 6)],
    ),
    "entities before the first leader and after the last": (
        [(1, 8), (0.5, 0.5), (9, 2), (8, 1), (2, 9), (0.1, 0.1), (1.5, 8.5), (8.5, 1.5)],
        [(2, 4), (5, 7)],
    ),
    # (5, 1) ties the g of the leader (5, 5) and (3, 5) its r: both lie outside its interval
    "neighbours that tie a leader's g or r": (
        [(8, 2), (5, 1), (5, 5), (3, 5), (4, 6), (1, 0.5)],
        [(1, 2), (3, 3), (4, 6)],
    ),
    "one leader among four": ([(1, 1), (3, 3), (2, 2), (0, 0)], [(1, 4)]),
    "one entity": ([(1, 1)], [(1, 1)]),
}


@pytest.mark.parametrize("pairs, expected", EDGE_INTERVALS.values(), ids=EDGE_INTERVALS)
def test_leader_intervals_match_the_per_leader_oracle_at_the_edges(pairs, expected):
    ds = build_delta_system([(f"e{i}", float(g), float(r)) for i, (g, r) in enumerate(pairs)])
    result = frontier_sortscan(ds)
    table = leader_rows(result)
    intervals = list(zip(table.left.tolist(), table.right.tolist()))
    assert intervals == [leader_row(ds, m)[1] for m in result.leaders] == expected


class TestLeaderMask:
    @settings(max_examples=60)
    @given(kernel_inputs())
    def test_matches_lexsort_kernel_and_brute_force(self, pairs):
        g, r = pairs
        mask = leader_mask(g, r)
        assert np.array_equal(mask, lexsort_leader_mask(g, r))
        assert np.array_equal(mask, brute_leader_mask(g, r))

    @pytest.mark.parametrize("style", KERNEL_STYLES)
    def test_screened_inputs_match_brute_force(self, style):
        rng = np.random.default_rng([61, KERNEL_STYLES.index(style)])
        for n in (SCREENED + 1, 5000):
            g, r = kernel_pairs(rng, n, style)
            mask = leader_mask(g, r)
            assert np.array_equal(mask, brute_leader_mask(g, r))
            assert np.array_equal(mask, lexsort_leader_mask(g, r))

    def test_screen_drops_the_bulk_of_a_small_frontier_input(self):
        g, r = kernel_pairs(np.random.default_rng(71), 20_000, "power_law")
        kept = _screen(g, r)
        assert kept is not None and len(kept) < 1_000
        assert np.array_equal(np.flatnonzero(leader_mask(g, r)), np.flatnonzero(brute_leader_mask(g, r)))

    def test_empty_input(self):
        assert leader_mask(np.zeros(0), np.zeros(0)).tolist() == []


class TestDominatedSet:
    def test_table2_top_gainer(self, table2):
        anuel = table2.by_rank(4).id
        got = ranks_of(table2, dominated_set(table2, anuel))
        assert got == sorted(set(range(1, 22)) - {4} | {23, 24, 25, 26})

    def test_minimal_entity_dominates_nothing(self):
        ds = build_delta_system([("lo", 1.0, 0.1), ("hi", 2.0, 0.2)])
        assert dominated_set(ds, "lo") == frozenset()

    def test_table2_highest_relative_gainer(self, table2):
        # brute-force filter over the rows: g < 191,004 and r < 1.26
        fredo = table2.by_rank(28).id
        pairs = [(e.g, e.r) for e in table2.entities]
        oracle = {table2.entities[i].id for i in naive_dominated_indices(pairs, 27)}
        got = dominated_set(table2, fredo)
        assert got == oracle
        assert ranks_of(table2, got) == [12, 13, 14, 15, 16, 17, 19, 20, 21, 23, 24, 25, 26, 27]

    def test_unknown_id_rejected(self, table2):
        with pytest.raises(InputError, match="unknown"):
            dominated_set(table2, "nobody")

    def test_overlapping_dominated_sets(self):
        # both leaders dominate the same low entity
        ds = build_delta_system([("x", 9.0, 0.1), ("y", 5.0, 0.9), ("low", 1.0, 0.01)])
        assert dominated_set(ds, "x") & dominated_set(ds, "y") == {"low"}


class TestInterval:
    def test_sole_entity(self):
        ds = build_delta_system([("only", 1.0, 0.5)])
        assert interval(ds, "only") == (1, 1)

    def test_four_entity_example(self, abcd):
        assert interval(abcd, "B") == (2, 3)
        assert interval(abcd, "C") == (3, 4)

    def test_table2_leader_cohorts(self, table2):
        by_rank = {4: (1, 21), 22: (9, 27), 28: (23, 28)}
        for rank, expected in by_rank.items():
            assert interval(table2, table2.by_rank(rank).id) == expected

    @pytest.mark.parametrize("style", STYLES)
    def test_matches_bruteforce_window_search(self, style):
        rng = np.random.default_rng([31, STYLES.index(style)])
        for _ in range(60):
            n = int(rng.integers(1, 12))
            g, r = random_pairs(rng, n, style)
            ds = build_delta_system(records_from_pairs(g, r))
            pairs = list(zip(g, r))
            for pos, e in enumerate(ds.entities, start=1):
                dom_positions = {
                    j + 1 for j in naive_dominated_indices(pairs, pos - 1)
                }
                assert interval(ds, e.id) == naive_max_window(n, pos, dom_positions)

    def test_contents_and_maximality(self, table2):
        for m in frontier_sortscan(table2).leaders:
            lo, hi = interval(table2, m)
            dom = dominated_set(table2, m)
            rank = table2.by_id(m).rank
            for k in range(lo, hi + 1):
                if k != rank:
                    assert table2.by_rank(k).id in dom
            if lo > 1:
                assert table2.by_rank(lo - 1).id not in dom
            if hi < table2.n:
                assert table2.by_rank(hi + 1).id not in dom


class TestMovingMaxima:
    def test_basic_sequence(self):
        mm = moving_maxima([3, 1, 4, 1, 5])
        assert mm.indices == (1, 3, 5)
        assert mm.count == 3

    def test_strictly_decreasing(self):
        assert moving_maxima([9, 5, 2, 1]).count == 1

    def test_empty(self):
        assert moving_maxima([]).indices == ()

    def test_ties_do_not_count(self):
        assert moving_maxima([2, 2, 2]).indices == (1,)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan, math.inf, -math.inf]),
                st.integers(-5, 5),
            ),
            max_size=60,
        )
    )
    def test_matches_running_maximum_loop(self, values):
        assert moving_maxima(values).indices == naive_moving_maxima(values)
        assert moving_maxima(np.asarray(values, dtype=float)).indices == naive_moving_maxima(values)

    def test_table2_relative_gains_by_gain_order(self, table2):
        ordered = sorted(table2.entities, key=lambda e: (-e.g, e.rank))
        mm = moving_maxima([e.r for e in ordered])
        assert mm.indices == (1, 8, 14)
        assert [ordered[i - 1].r for i in mm.indices] == [0.332, 1.01, 1.26]
        assert mm.count == len(frontier_sortscan(table2).leaders)


class TestVerifyBound:
    def test_equality_with_distinct_coordinates(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            g = rng.permutation(n).astype(float)
            r = rng.random(n)
            ds = build_delta_system(records_from_pairs(g, r))
            size, count, holds = verify_bound(ds)
            assert holds and size == count

    def test_anticorrelated_chain_has_full_frontier(self):
        n, c = 100, 1000.0
        ds = build_delta_system(
            [(f"i{i}", c / i, math.log(i)) for i in range(1, n + 1)]
        )
        size, count, holds = verify_bound(ds)
        assert (size, count, holds) == (n, n, True)

    def test_decreasing_relative_gain_gives_singleton(self):
        ds = build_delta_system([(f"e{i}", 10.0 - i, 1.0 - 0.1 * i) for i in range(5)])
        check = verify_bound(ds)
        assert check.frontier_size == 1
        assert check.holds

    def test_tied_gains_checked_without_raising(self):
        ds = build_delta_system([("a", 3.0, 5.0), ("b", 2.0, 5.0)])
        # equal r never dominates, so with distinct g the frontier still
        # outgrows the count: b leads but is no new maximum
        assert verify_bound(ds) == (2, 1, False)

    def test_empty_system(self):
        assert verify_bound(build_delta_system([])) == (0, 0, True)

    @pytest.mark.parametrize("style", KERNEL_STYLES)
    def test_count_matches_full_sort_over_all_entities(self, style):
        rng = np.random.default_rng(KERNEL_STYLES.index(style))
        for n in [1, 2, 3, 7, 40, 300, SCREENED + 1, 5000]:
            g, r = kernel_pairs(rng, n, style)
            ds = build_delta_system(records_from_pairs(g, r, rng.integers(0, 4, n).astype(float)))
            size, count, holds = verify_bound(ds)
            assert count == full_sort_bound_count(ds.g, ds.r)
            assert size == int(brute_leader_mask(ds.g, ds.r).sum())
            assert count <= size and holds == (size == count)


class TestRunnersUp:
    def test_table4_layers(self, fixtures_dir):
        ds = parse_gains_table(fixtures_dir / "table4.csv")
        layers = runners_up(ds, 2)
        assert ranks_of(ds, layers[0]) == [6]
        assert ds.by_rank(6).id.startswith("El Chombo")
        assert ranks_of(ds, layers[1]) == [1, 2, 5, 20]

    def test_single_entity_short_circuits(self):
        ds = build_delta_system([("only", 1.0, 0.5)])
        assert runners_up(ds, 3) == [("only",)]

    def test_table5_marketcap_times_gain(self, fixtures_dir):
        import csv

        with open(fixtures_dir / "table5.csv", newline="", encoding="utf-8") as fh:
            records = []
            for row in csv.DictReader(fh):
                cap = float(row["marketcap"])
                r = float(row["r"].rstrip("%")) / 100
                records.append((row["symbol"], cap, cap * r, r))
        ds = build_delta_system(records)
        assert runners_up(ds, 1) == [("MSFT", "TSLA")]

    def test_layers_partition_until_exhausted(self):
        rng = np.random.default_rng(53)
        g, r = random_pairs(rng, 40, "continuous")
        ds = build_delta_system(records_from_pairs(g, r))
        layers = runners_up(ds, 1000)
        flat = [i for layer in layers for i in layer]
        assert sorted(flat) == sorted(e.id for e in ds.entities)
        assert all(layer for layer in layers)

    @pytest.mark.parametrize("style", STYLES)
    def test_matches_naive_peeling(self, style):
        rng = np.random.default_rng([53, STYLES.index(style)])
        for _ in range(40):
            g, r = random_pairs(rng, int(rng.integers(1, 60)), style)
            ds = build_delta_system(records_from_pairs(g, r))
            expected = [tuple(ds.entities[i].id for i in layer) for layer in naive_layers(list(zip(g, r)), 6)]
            assert runners_up(ds, 6) == expected

    @pytest.mark.parametrize("style", ["continuous", "negative", "mixed", "pool", "power_law", "ascending"])
    def test_matches_naive_peeling_above_screen_threshold(self, style):
        rng = np.random.default_rng([67, KERNEL_STYLES.index(style)])
        g, r = kernel_pairs(rng, SCREENED + 500, style)
        ds = build_delta_system(records_from_pairs(g, r))
        expected = [tuple(ds.entities[i].id for i in layer) for layer in naive_layers(list(zip(g, r)), 4)]
        assert runners_up(ds, 4) == expected

    def test_invalid_layer_count(self, abcd):
        with pytest.raises(InputError):
            runners_up(abcd, 0)
