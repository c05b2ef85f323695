import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentumrank import (
    EntityGain,
    InputError,
    Snapshot,
    build_delta_system,
    derive_from_snapshots,
    dominates,
    frontier_sortscan,
)

from util import STYLES, naive_derive_from_snapshots, naive_system, random_pairs, records_from_pairs, system_bits

coord = st.one_of(
    st.integers(-3, 3).map(float),  # small grid forces ties
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
entity = st.tuples(coord, coord).map(lambda t: EntityGain(id="e", g=t[0], r=t[1]))


def eg(g, r, id="e"):
    return EntityGain(id=id, g=g, r=r)


class TestDominates:
    def test_strict_double_exceedance(self):
        # V1 vs V3 from the eight-video example
        assert dominates(eg(50e6, 0.005), eg(80e6, 0.191)) is True

    def test_tie_in_g_is_incomparable(self):
        assert dominates(eg(5, 0.1), eg(5, 0.9)) is False
        assert dominates(eg(5, 0.9), eg(5, 0.1)) is False

    def test_v5_v8_incomparable_both_ways(self):
        v5, v8 = eg(100e6, 0.50), eg(72e6, 10.0)
        assert dominates(v5, v8) is False
        assert dominates(v8, v5) is False

    @given(entity)
    def test_irreflexive(self, e):
        assert not dominates(e, e)

    @given(entity, entity)
    def test_antisymmetric(self, e, f):
        assert not (dominates(e, f) and dominates(f, e))

    @given(entity, entity, entity)
    def test_transitive(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestBuildDeltaSystem:
    def test_scoreless_records_keep_input_order(self, table2):
        assert table2.n == 28
        assert [e.rank for e in table2.entities] == list(range(1, 29))
        assert table2.entities[0].id.startswith("Adele")
        assert table2.entities[3].g == 6301433
        assert not table2.has_scores

    def test_empty_is_valid(self):
        ds = build_delta_system([])
        assert ds.n == 0
        with pytest.raises(InputError):
            frontier_sortscan(ds)

    def test_duplicate_id_rejected_by_name(self):
        with pytest.raises(InputError, match="'V1'"):
            build_delta_system([("V1", 1.0, 0.1), ("V1", 2.0, 0.2)])

    def test_negative_score_rejected(self):
        with pytest.raises(InputError, match="negative score"):
            build_delta_system([("A", -5.0, 1.0, 0.1)])

    def test_ranked_by_descending_score_with_id_tiebreak(self):
        ds = build_delta_system(
            [("b", 5.0, 1.0, 0.1), ("a", 5.0, 2.0, 0.2), ("c", 9.0, 3.0, 0.3)]
        )
        assert [e.id for e in ds.entities] == ["c", "a", "b"]
        assert [e.rank for e in ds.entities] == [1, 2, 3]

    def test_any_missing_score_preserves_order_and_flags(self):
        ds = build_delta_system([("a", 5.0, 1.0, 0.1), ("b", None, 2.0, 0.2)])
        assert [e.id for e in ds.entities] == ["a", "b"]
        assert not ds.has_scores

    def test_non_finite_gain_rejected(self):
        # a nan once hid e, the highest relative gainer, from the sort-scan
        records = [("a", 10, 1.0), ("b", math.nan, 0.5), ("c", 5, 2.0), ("d", 3, math.nan), ("e", 1, 3.0)]
        with pytest.raises(InputError, match="non-finite g for 'b'"):
            build_delta_system(records)

    @pytest.mark.parametrize("field", [1, 2, 3])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        record = ["x", 1.0, 2.0, 0.5]
        record[field] = value
        expected = "negative score" if (field, value) == (1, -math.inf) else "non-finite"
        with pytest.raises(InputError, match=expected):
            build_delta_system([tuple(record)])

    def test_columns_are_read_only_in_rank_order(self):
        ds = build_delta_system([("b", 5.0, 1.0, 0.1), ("a", 9.0, 2.0, -0.2)])
        assert ds.g.dtype == np.float64 and ds.g.tolist() == [2.0, 1.0]
        assert ds.r.tolist() == [-0.2, 0.1]
        assert ds.g is ds.g  # built once
        with pytest.raises(ValueError):
            ds.r[0] = 0.0
        assert ds.by_id("b").rank == 2
        with pytest.raises(InputError, match="unknown entity id 'z'"):
            ds.by_id("z")

    @pytest.mark.parametrize("rank", [0, 3])
    def test_rank_out_of_range_rejected(self, rank):
        ds = build_delta_system([("b", 5.0, 1.0, 0.1), ("a", 9.0, 2.0, -0.2)])
        with pytest.raises(InputError, match=rf"^rank {rank} out of range 1\.\.2$"):
            ds.by_rank(rank)

    def test_total_score_matches_sum(self):
        rng = np.random.default_rng(3)
        scores = rng.random(50) * 1e6
        ds = build_delta_system(
            [(f"e{i}", s, 1.0, 0.1) for i, s in enumerate(scores)]
        )
        assert ds.total_score == pytest.approx(scores.sum(), rel=1e-9)


class TestColumnarBuild:
    @given(
        style=st.sampled_from(STYLES),
        scores=st.sampled_from(["none", "partial", "tied", "distinct"]),
        n=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_record_oracle(self, style, scores, n, seed):
        rng = np.random.default_rng(seed)
        g, r = random_pairs(rng, n, style)
        values = None
        if scores == "tied":
            values = rng.integers(0, 3, n).astype(float)  # ties exercise the id tie-break
        elif scores != "none":
            values = rng.random(n) * 1e6
        records = records_from_pairs(g, r, values)
        if scores == "partial" and n:
            records[-1] = (records[-1][0], None, *records[-1][2:])
        records = [records[i] for i in rng.permutation(n)]  # input order is not id order
        ds = build_delta_system(records)
        oracle = naive_system(records)

        assert [(e.id, e.score, e.g, e.r, e.rank) for e in ds.entities] == oracle
        assert [ds.by_rank(row[4]) for row in oracle] == list(ds.entities)
        assert [ds.by_id(row[0]) for row in oracle] == list(ds.entities)
        assert ds.ids == tuple(row[0] for row in oracle)
        assert ds.g.tolist() == [row[2] for row in oracle]
        assert ds.r.tolist() == [row[3] for row in oracle]
        assert [None if math.isnan(s) else s for s in ds.score.tolist()] == [row[1] for row in oracle]
        present = [row[1] for row in oracle if row[1] is not None]
        assert ds.total_score == sum(present)  # the builtin sum in rank order, bit for bit
        assert ds.has_scores == (n > 0 and len(present) == n)
        for column in (ds.g, ds.r, ds.score):
            assert column.dtype == np.float64 and not column.flags.writeable

    def test_all_tied_scores_rank_by_id(self):
        rng = np.random.default_rng(3)
        records = [(f"id{i}", 7.0, float(g), float(r)) for i, (g, r) in enumerate(rng.random((3000, 2)))]
        records = [records[i] for i in rng.permutation(len(records))]
        ds = build_delta_system(records)
        assert [(e.id, e.score, e.g, e.r, e.rank) for e in ds.entities] == naive_system(records)

    def test_earlier_record_fault_wins(self):
        records = [("a", 1.0, 0.1), ("b", math.nan, 0.2), ("a", 2.0, 0.3)]
        with pytest.raises(InputError, match="non-finite g for 'b'"):
            build_delta_system(records)
        with pytest.raises(InputError, match="non-finite g for 'b'"):
            build_delta_system(records[:2] + [("c",)])
        with pytest.raises(InputError, match="record must be"):
            build_delta_system([("c",)] + records[:2])

    @pytest.mark.parametrize("eid", ["", " "], ids=["empty", "blank"])
    def test_empty_id_rejected(self, eid):
        with pytest.raises(InputError, match="^empty entity id$"):
            build_delta_system([("a", 1.0, 2.0), (eid, 1.0, 2.0)])

    def test_duplicate_reported_before_negative_score_in_one_record(self):
        with pytest.raises(InputError, match="duplicate entity id 'a'"):
            build_delta_system([("a", 1.0, 1.0, 0.1), ("a", -1.0, 2.0, 0.2)])

    def test_systems_from_the_same_records_are_equal(self):
        records = [("b", 5.0, 1.0, 0.1), ("a", 5.0, 2.0, -0.2), ("c", None, 0.0, 0.0)]
        first, second = build_delta_system(records), build_delta_system(records)
        assert first == second and hash(first) == hash(second)
        assert first != build_delta_system(records, window="t0..t1")
        assert first != build_delta_system(records[:2])
        assert first != records  # no error comparing with a non-system


class TestDeriveFromSnapshots:
    def test_ratio_single_entity(self):
        ds, warnings = derive_from_snapshots(
            Snapshot("t0", {"A": 100.0}), Snapshot("t1", {"A": 110.0}), "ratio"
        )
        assert warnings == ()
        (a,) = ds.entities
        assert (a.g, a.r, a.score) == (10.0, 0.1, 100.0)

    def test_share_delta_symmetric_pair(self):
        ds, _ = derive_from_snapshots(
            Snapshot("", {"A": 100.0, "B": 100.0}),
            Snapshot("", {"A": 150.0, "B": 50.0}),
            "share_delta",
        )
        by_id = {e.id: e for e in ds.entities}
        assert (by_id["A"].g, by_id["A"].r) == (50.0, 0.25)
        assert (by_id["B"].g, by_id["B"].r) == (-50.0, -0.25)

    def test_ratio_zero_before_excluded_with_warning(self):
        ds, warnings = derive_from_snapshots(
            Snapshot("", {"A": 100.0, "B": 0.0}),
            Snapshot("", {"A": 110.0, "B": 10.0}),
            "ratio",
        )
        assert [e.id for e in ds.entities] == ["A"]
        assert any("'B'" in w and "undefined" in w for w in warnings)
        # the one-entity remainder has a one-entity frontier
        assert frontier_sortscan(ds).leaders == ("A",)

    def test_one_sided_ids_excluded_with_warning(self):
        ds, warnings = derive_from_snapshots(
            Snapshot("", {"A": 10.0, "B": 5.0}),
            Snapshot("", {"A": 12.0, "C": 5.0}),
            "ratio",
        )
        assert [e.id for e in ds.entities] == ["A"]
        assert len(warnings) == 2

    def test_ranked_by_before_score(self):
        ds, _ = derive_from_snapshots(
            Snapshot("", {"low": 10.0, "high": 90.0}),
            Snapshot("", {"low": 11.0, "high": 99.0}),
            "ratio",
        )
        assert [e.id for e in ds.entities] == ["high", "low"]

    def test_invalid_mode(self):
        snap = Snapshot("", {"A": 1.0})
        with pytest.raises(InputError, match="mode"):
            derive_from_snapshots(snap, snap, "percentile")

    def test_empty_snapshot_rejected(self):
        with pytest.raises(InputError, match="non-empty"):
            derive_from_snapshots(Snapshot("", {}), Snapshot("", {"A": 1.0}))

    def test_ratio_overflow_rejected(self):
        with pytest.raises(InputError, match="non-finite r for 'A'"):
            derive_from_snapshots(Snapshot("", {"A": 1e-300}), Snapshot("", {"A": 1e300}), "ratio")

    def test_share_delta_zero_total_rejected(self):
        zero = Snapshot("", {"A": 0.0})
        with pytest.raises(InputError, match="positive total"):
            derive_from_snapshots(zero, zero, "share_delta")

    @given(
        st.dictionaries(
            st.text(st.characters(categories=["L", "Nd"]), min_size=1, max_size=4),
            st.tuples(
                st.floats(min_value=0.01, max_value=1e9),
                st.floats(min_value=0.0, max_value=1e9),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_ratio_mode_consistency(self, table):
        before = Snapshot("", {k: v[0] for k, v in table.items()})
        after = Snapshot("", {k: v[1] for k, v in table.items()})
        ds, _ = derive_from_snapshots(before, after, "ratio")
        for e in ds.entities:
            assert abs(e.r * e.score - e.g) <= 1e-9 * max(1.0, abs(e.g))

    @given(
        st.dictionaries(
            st.text(st.characters(categories=["L", "Nd"]), min_size=1, max_size=4),
            st.tuples(
                st.floats(min_value=0.01, max_value=1e6),
                st.floats(min_value=0.01, max_value=1e6),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_share_delta_sums_to_zero_on_common_id_set(self, table):
        before = Snapshot("", {k: v[0] for k, v in table.items()})
        after = Snapshot("", {k: v[1] for k, v in table.items()})
        ds, warnings = derive_from_snapshots(before, after, "share_delta")
        assert warnings == ()
        assert math.fsum(e.r for e in ds.entities) == pytest.approx(0.0, abs=1e-12)


def _derived(derive, before, after, mode):
    try:
        ds, warnings = derive(before, after, mode)
    except InputError as exc:
        return str(exc)
    return system_bits(ds), warnings


@st.composite
def snapshot_pairs(draw):
    """Two float snapshots in independent file orders, with one-sided ids and zero scores."""
    ids = draw(st.lists(st.text("abAB1é_", min_size=1, max_size=3), min_size=1, max_size=30, unique=True))
    value = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1e300),
        st.floats(min_value=1e-320, max_value=1e-300),  # small enough to overflow r
    )
    sides = [draw(st.sampled_from(["both", "both", "before", "after"])) for _ in ids]
    before = {eid: draw(value) for eid, side in zip(ids, sides) if side != "after"}
    after = {eid: draw(value) for eid, side in zip(ids, sides) if side != "before"}
    order = draw(st.permutations(ids))
    timestamps = draw(st.sampled_from([("", ""), ("t0", "t1")]))
    return (
        Snapshot(timestamps[0], {eid: before[eid] for eid in order if eid in before}),
        Snapshot(timestamps[1], {eid: after[eid] for eid in reversed(order) if eid in after}),
    )


class TestDeriveMatchesUnionWalk:
    """``derive_from_snapshots`` against the sorted-union loop it replaced (``util.naive_derive_from_snapshots``)."""

    @settings(max_examples=300)
    @given(pair=snapshot_pairs(), mode=st.sampled_from(["ratio", "share_delta"]))
    def test_float_snapshots_bit_identical(self, pair, mode):
        before, after = pair
        assume(before.scores and after.scores)
        assume(mode == "ratio" or (sum(before.scores.values()) > 0 and sum(after.scores.values()) > 0))
        assert _derived(derive_from_snapshots, before, after, mode) == _derived(
            naive_derive_from_snapshots, before, after, mode
        )

    @pytest.mark.parametrize("mode", ["ratio", "share_delta"])
    @pytest.mark.parametrize(
        "number",
        [Fraction, lambda p, q: Decimal(p) / q, lambda p, q: (2**64 + 1) * p + (q if p else 0)],
        ids=["Fraction", "Decimal", "2**64"],
    )
    def test_exact_number_snapshots(self, number, mode):
        # none of these values is a float, so float arithmetic would round where exact arithmetic does not
        before = {"d": (3, 7), "b": (7, 3), "z": (0, 1), "a": (2, 9), "x": (1, 1)}
        after = {"y": (4, 1), "a": (5, 11), "z": (1, 3), "b": (6, 13), "d": (9, 17)}
        before, after = (Snapshot("", {eid: number(*pq) for eid, pq in snap.items()}) for snap in (before, after))
        got, expected = derive_from_snapshots(before, after, mode), naive_derive_from_snapshots(before, after, mode)
        assert got[1] == expected[1]
        assert len(got[1]) == (3 if mode == "ratio" else 2)  # x, y, and z with a zero score
        assert system_bits(got[0]) == system_bits(expected[0])

    @pytest.mark.parametrize("mode", ["ratio", "share_delta"])
    @pytest.mark.parametrize("beside", [float, Fraction], ids=["float", "Fraction"])
    def test_a_decimal_beside_other_numbers_counts_as_the_equal_fraction(self, beside, mode):
        # Decimal arithmetic takes neither a float nor a Fraction
        def diff(a):
            before = Snapshot("t0", {"A": a, "B": beside(1), "Z": beside(0), "X": beside(4)})
            after = Snapshot("t1", {"A": beside(3), "B": beside(2), "Z": beside(5), "Y": beside(1)})
            return derive_from_snapshots(before, after, mode)

        got, expected = diff(Decimal("2.5")), diff(Fraction(5, 2))
        assert got[1] == expected[1]
        assert system_bits(got[0]) == system_bits(expected[0])

    @pytest.mark.parametrize("mode", ["ratio", "share_delta"])
    def test_twenty_thousand_ids_with_every_exclusion(self, mode):
        # the drawn cases stay under 30 ids; this one has hundreds of each exclusion
        n = 20_000
        rng = np.random.default_rng(20_000)
        ids = [f"e{i:05d}" for i in range(n)]
        old, new = rng.lognormal(0.0, 2.0, (2, n)).tolist()
        after_only, before_only, zero = np.split(rng.permutation(n)[:600], 3)
        for i in zero.tolist():
            old[i] = 0.0
        in_before, in_after = np.ones((2, n), bool)
        in_before[after_only], in_after[before_only] = False, False
        before = Snapshot("t0", {ids[i]: old[i] for i in rng.permutation(np.flatnonzero(in_before)).tolist()})
        after = Snapshot("t1", {ids[i]: new[i] for i in np.flatnonzero(in_after).tolist()})
        got, expected = derive_from_snapshots(before, after, mode), naive_derive_from_snapshots(before, after, mode)
        assert got[1] == expected[1]
        assert len(got[1]) == (600 if mode == "ratio" else 400)
        assert system_bits(got[0]) == system_bits(expected[0])

    @pytest.mark.parametrize("number", [float, Decimal], ids=["float", "Decimal"])
    def test_overflow_names_the_oracles_entity(self, number):
        # every r overflows; the ids sit in the files in reverse order
        ids = ["z", "m", "b", "c"]
        before = Snapshot("", {eid: number("1e-300") for eid in ids})
        after = Snapshot("", {eid: number("1e300") for eid in ids})
        got = _derived(derive_from_snapshots, before, after, "ratio")
        assert got == _derived(naive_derive_from_snapshots, before, after, "ratio")
        assert got == "non-finite r for 'b': inf"


def test_snapshot_rejects_negative_scores():
    with pytest.raises(InputError, match="negative"):
        Snapshot("", {"A": -1.0})


@pytest.mark.parametrize(
    "scores, message",
    [
        ({"A": 1.0, "B": math.inf, "C": -1.0}, "non-finite score for 'B': inf"),
        ({"A": -2.0, "B": math.nan}, "negative score for 'A': -2.0"),
        ({"A": 0.0, "B": -math.inf, "C": math.nan}, "negative score for 'B': -inf"),
        ({"A": 1.0, "B": Fraction(-1, 2)}, "negative score for 'B': -1/2"),
        ({"A": 1.0, "B": -(2**70)}, "negative score for 'B': -1180591620717411303424"),
    ],
)
def test_snapshot_names_first_faulty_entity(scores, message):
    with pytest.raises(InputError) as excinfo:
        Snapshot("", scores)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("value", [Fraction(1, 3), Decimal("2.5"), 2**64, 10**30])
def test_snapshot_accepts_exact_number_scores(value):
    assert Snapshot("", {"A": 1.0, "B": value}).scores["B"] == value


def test_snapshot_rejects_a_negative_score_that_rounds_to_zero():
    with pytest.raises(InputError, match="negative score for 'A'"):
        Snapshot("", {"A": Fraction(-1, 10**400)})


@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "10**400"])
def test_snapshot_rejects_non_finite_scores(value):
    with pytest.raises(InputError, match="non-finite score for 'A'"):
        Snapshot("", {"A": value})


@pytest.mark.parametrize(
    "value, message",
    [
        (Decimal("NaN"), "non-finite score for 'B': NaN"),
        (Decimal("sNaN"), "non-finite score for 'B': nan"),
        (10**400, "non-finite score for 'B': inf"),
        (-(10**400), "negative score for 'B': -inf"),
        (Fraction(10**400, 3), "non-finite score for 'B': inf"),
    ],
    ids=["Decimal NaN", "Decimal sNaN", "10**400", "-10**400", "Fraction past the float range"],
)
def test_snapshot_reads_what_no_float_holds_as_non_finite(value, message):
    with pytest.raises(InputError) as excinfo:
        Snapshot("", {"A": 1.0, "B": value})
    assert str(excinfo.value) == message


@pytest.mark.parametrize("eid", ["", " \t"], ids=["empty", "blank"])
def test_snapshot_rejects_a_blank_id(eid):
    with pytest.raises(InputError, match="^empty entity id$"):
        Snapshot("", {"A": 1.0, eid: 2.0})
