import math

import numpy as np
import pytest

from momentumrank import (
    InputError,
    build_delta_system,
    compare_systems,
    frontier_sortscan,
    leader_weight,
    momentousness,
    normalized_weights,
    parse_leaders_table,
    rank_leaders,
)

from util import random_pairs, records_from_pairs

TABLE8_ROWS = (("k1", 0.2, 0.1), ("k2", 0.4, 0.6), ("k3", 0.8, 0.3))
TABLE9_ROWS = (("I1", 0.05, 0.1), ("I2", 0.1, 0.3), ("I3", 0.2, 0.2), ("I4", 0.5, 0.1), ("I5", 10.0, 0.2))


class TestNormalizedWeights:
    def test_share_of_total(self):
        ds = build_delta_system(
            [("A", 100.0, 1, 0.1), ("B", 50.0, 1, 0.1), ("C", 10.0, 1, 0.1), ("D", 40.0, 1, 0.1)]
        )
        assert normalized_weights(ds) == {"A": 0.5, "B": 0.25, "C": 0.05, "D": 0.2}

    def test_single_entity(self):
        ds = build_delta_system([("e", 7.0, 1.0, 0.1)])
        assert normalized_weights(ds) == {"e": 1.0}

    def test_uniform_scores(self):
        n = 8
        ds = build_delta_system([(f"e{i}", 3.0, float(i), 0.1 * i) for i in range(n)])
        assert all(w == pytest.approx(1 / n) for w in normalized_weights(ds).values())
        assert math.fsum(normalized_weights(ds).values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_system_rejected(self):
        with pytest.raises(InputError, match="^weights require a non-empty system$"):
            normalized_weights(build_delta_system([]))

    def test_missing_scores_rejected(self, table2):
        with pytest.raises(InputError, match="scores"):
            normalized_weights(table2)

    def test_zero_total_rejected(self):
        ds = build_delta_system([("a", 0.0, 1.0, 0.1)])
        with pytest.raises(InputError, match="total"):
            normalized_weights(ds)

    def test_total_past_the_float_range_rejected(self):
        ds = build_delta_system([("a", 1e308, 1.0, 0.5), ("b", 1e308, 0.5, 1.0), ("c", 1e308, 0.1, 0.1)])
        for weigh in (normalized_weights, rank_leaders, momentousness, lambda ds: leader_weight(ds, "a")):
            with pytest.raises(InputError, match="finite total score"):
                weigh(ds)


class TestLeaderWeight:
    def test_all_three_leaders_share_the_same_dominated_entity(self, abcd):
        assert frontier_sortscan(abcd).leader_set == {"A", "B", "C"}
        for m in "ABC":
            assert leader_weight(abcd, m) == pytest.approx(0.2, abs=1e-12)

    def test_non_leader_rejected(self, abcd):
        with pytest.raises(InputError, match="not a momentum leader"):
            leader_weight(abcd, "D")

    def test_leader_dominating_nothing(self):
        ds = build_delta_system([("up", 10.0, 1.0, 0.9), ("side", 10.0, 2.0, 0.1)])
        # both lead; neither dominates the other
        assert leader_weight(ds, "up") == 0.0

    def test_dominating_everyone_in_uniform_system(self):
        n = 10
        records = [(f"e{i}", 1.0, float(i), float(i)) for i in range(n)]
        ds = build_delta_system(records)
        top = f"e{n - 1}"
        assert leader_weight(ds, top) == pytest.approx((n - 1) / n, abs=1e-12)

    def test_never_exceeds_complement_of_own_weight(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            g, r = random_pairs(rng, n, "mixed")
            scores = rng.random(n) * 100 + 0.1
            ds = build_delta_system(records_from_pairs(g, r, scores))
            weights = normalized_weights(ds)
            for m in frontier_sortscan(ds).leaders:
                assert leader_weight(ds, m) <= 1 - weights[m] + 1e-12


class TestRankLeaders:
    def test_weight_ties_break_by_relative_gain(self, abcd):
        ranking = rank_leaders(abcd)
        assert ranking.leader_ids == ("C", "B", "A")
        assert [w for _, w, _ in ranking.entries] == pytest.approx([0.2, 0.2, 0.2])

    def test_single_leader(self):
        ds = build_delta_system([("solo", 4.0, 1.0, 0.5)])
        assert rank_leaders(ds).leader_ids == ("solo",)

    def test_full_tie_breaks_by_id(self):
        ds = build_delta_system([("b", 5.0, 1.0, 0.5), ("a", 5.0, 1.0, 0.5)])
        assert rank_leaders(ds).leader_ids == ("a", "b")

    def test_order_is_the_tuple_sort_of_the_rows(self):
        # heaviest w first, then largest r, then smallest id; 0.0 and -0.0 tie
        rng = np.random.default_rng(71)
        for _ in range(40):
            n = int(rng.integers(1, 80))
            g, r = random_pairs(rng, n, "grid")
            r[(r == 0) & (rng.random(n) < 0.5)] = -0.0
            scores = rng.integers(0, 3, n) + 1.0
            ids = [f"e{i}" for i in rng.permutation(n)]
            ds = build_delta_system([(eid, s, a, b) for eid, s, a, b in zip(ids, scores, g, r)])
            rows = [(m, leader_weight(ds, m), ds.by_id(m).r) for m in frontier_sortscan(ds).leaders]
            assert rank_leaders(ds).entries == tuple(sorted(rows, key=lambda row: (-row[1], -row[2], row[0])))

    def test_output_is_a_permutation_of_the_frontier(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            n = int(rng.integers(1, 50))
            g, r = random_pairs(rng, n, "grid")
            scores = rng.random(n) + 0.5
            ds = build_delta_system(records_from_pairs(g, r, scores))
            assert set(rank_leaders(ds).leader_ids) == frontier_sortscan(ds).leader_set


class TestMomentousness:
    def test_worked_example_a(self):
        score = momentousness(TABLE8_ROWS)
        assert score.value == pytest.approx(0.50, abs=1e-9)

    def test_worked_example_b_with_outlier(self):
        score = momentousness(TABLE9_ROWS)
        assert score.value == pytest.approx(2.125, abs=1e-9)

    def test_fixture_files_round_through_parser(self, fixtures_dir):
        assert momentousness(parse_leaders_table(fixtures_dir / "table8.csv")).value == pytest.approx(0.50, abs=1e-9)
        assert momentousness(parse_leaders_table(fixtures_dir / "table9.csv")).value == pytest.approx(2.125, abs=1e-9)

    def test_direct_rows_equal_dot_product_exactly(self):
        rows = [("x", 0.3, 0.25), ("y", -1.5, 0.5), ("z", 4.0, 0.125)]
        score = momentousness(rows)
        assert score.value == math.fsum(r * w for _, r, w in rows)
        assert score.terms[1] == ("y", -1.5, 0.5, -0.75)

    def test_system_with_weightless_leaders_scores_zero(self):
        # strictly anti-correlated: every entity leads, nothing is dominated
        ds = build_delta_system([(f"e{i}", 1.0, 10.0 - i, float(i)) for i in range(5)])
        score = momentousness(ds)
        assert score.value == 0.0
        assert all(term[2] == 0.0 for term in score.terms)

    def test_invariant_under_uniform_score_scaling(self):
        rng = np.random.default_rng(71)
        g, r = random_pairs(rng, 40, "mixed")
        scores = rng.random(40) * 10 + 0.1
        base = momentousness(build_delta_system(records_from_pairs(g, r, scores)))
        scaled = momentousness(build_delta_system(records_from_pairs(g, r, scores * 37.0)))
        assert scaled.value == pytest.approx(base.value, rel=1e-9)

    def test_value_equals_sum_of_terms(self):
        rng = np.random.default_rng(73)
        g, r = random_pairs(rng, 30, "negative")
        scores = rng.random(30) + 0.1
        score = momentousness(build_delta_system(records_from_pairs(g, r, scores)))
        assert score.value == pytest.approx(math.fsum(t[3] for t in score.terms), abs=1e-9)

    def test_bare_pairs_get_positional_ids(self):
        score = momentousness([(0.2, 0.1), (0.4, 0.6)])
        assert score.terms[0][0] == "1"
        assert score.value == pytest.approx(0.2 * 0.1 + 0.4 * 0.6)

    def test_malformed_row_rejected(self):
        with pytest.raises(InputError, match="leader row"):
            momentousness([("a", 1.0, 2.0, 3.0, 4.0)])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([("a", 0.1, 0.5), ("a", 0.2, 0.7), ("b", 0.1, -0.5)], "duplicate entity id 'a'"),
            ([("a", math.nan, 0.5)], "non-finite r for 'a': nan"),
            ([("a", 0.1, 0.5), ("b", 0.2, -0.5)], "negative w for 'b': -0.5"),
            ([("a", 0.1, math.inf)], "non-finite w for 'a': inf"),
            ([(" ", 0.1, 0.5)], "empty entity id"),
            ([(0.1, 0.5), ("1", 0.2, 0.7)], "duplicate entity id '1'"),  # repeats a row number
            ([("a", 0.1, -0.5), ("b", 1.0, 2.0, 3.0)], "negative w for 'a': -0.5"),  # before the later shape fault
            ([("a", 1e308, 1e308)], "non-finite r*w for 'a': inf"),
            ([("a", 1e308, 1e308), ("b", -1e308, 1e308)], "non-finite r*w for 'a': inf"),
            ([("a", 1e308, 0.5), ("b", math.nan, 1e308)], "non-finite r for 'b': nan"),  # r before r*w
        ],
        ids=[
            "duplicate", "nan r", "negative w", "inf w", "blank id", "row number", "earlier row first",
            "r*w past the float range", "r*w of both signs", "nan r times a huge w",
        ],
    )
    def test_rows_obey_the_leader_table_rules(self, rows, message):
        # the same rules as --leaders-csv, without a line number
        with pytest.raises(InputError) as excinfo:
            momentousness(rows)
        assert str(excinfo.value) == message
        with pytest.raises(InputError):
            compare_systems(TABLE8_ROWS, rows)

    def test_terms_whose_partial_sums_overflow_sum_exactly(self):
        rows = [("a", 1e308, 1.0), ("b", 1e308, 1.0), ("c", -1e308, 1.0)]
        assert momentousness(rows).value == 1e308
        assert compare_systems(rows, TABLE8_ROWS).a.value == 1e308

    def test_a_sum_past_the_float_range_is_an_input_error(self):
        rows = [("a", 1e308, 1.0), ("b", 1e308, 1.0)]
        for score in (lambda: momentousness(rows), lambda: compare_systems(TABLE8_ROWS, rows)):
            with pytest.raises(InputError) as excinfo:
                score()
            assert str(excinfo.value) == "momentousness is past the float range: |sum of r*w| > 1.8e308"


class TestCompareSystems:
    def test_outlier_system_wins(self):
        comparison = compare_systems(TABLE8_ROWS, TABLE9_ROWS)
        assert comparison.verdict == "b"
        assert comparison.a.value == pytest.approx(0.50, abs=1e-9)
        assert comparison.b.value == pytest.approx(2.125, abs=1e-9)

    def test_self_comparison_is_equal(self, abcd):
        assert compare_systems(abcd, abcd).verdict == "equal"

    def test_any_positive_leader_beats_flat_system(self):
        flat = [("a", 0.0, 0.4), ("b", 0.0, 0.2)]
        lively = [("c", 0.5, 0.3)]
        assert compare_systems(flat, lively).verdict == "b"
        assert compare_systems(lively, flat).verdict == "a"
