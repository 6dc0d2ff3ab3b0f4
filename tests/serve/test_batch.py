"""Batched evaluation must equal the scalar path, decision for decision.

The serving layer's core claim (see ``repro.serve.batch``): stacking
feature rows and deciding them with one matrix product yields the same
verdicts as running each session through ``EagerSession`` — with any
row the evaluator cannot *prove* safe flagged ``risky`` and re-decided
sequentially.  These tests drive random strokes through both paths and
insist on equality, including for GDP's feature-masked full classifier.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import IncrementalFeatures
from repro.geometry import Point
from repro.serve import BatchEvaluator, FeatureBank

coord = st.floats(
    min_value=-500.0, max_value=500.0, allow_nan=False, allow_infinity=False
)


@st.composite
def strokes(draw, min_points=1, max_points=25):
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    points = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.0, max_value=0.05))
        points.append(Point(draw(coord), draw(coord), t))
    return points


def scalar_vector(points):
    inc = IncrementalFeatures()
    for p in points:
        inc.add_point(p)
    return inc.vector


# (x, y, dt) steps on a unit grid: repeated points give zero-length
# segments, unit steps segments too short to turn, and dt 0 / 5e-7 steps
# untimed segments (below the speed feature's 1e-6 s floor).
grid_strokes = st.lists(
    st.tuples(
        st.integers(min_value=-12, max_value=12),
        st.integers(min_value=-12, max_value=12),
        st.sampled_from([0.0, 5e-7, 0.004, 0.01]),
    ),
    min_size=1,
    max_size=30,
)

# (start tick, steps) per stroke.  At tick 3 the rows are, in order: a
# press point; anchor points 1 and 2; an untimed segment (dt 5e-7, on a
# stroke with no timed one yet); a zero-length segment; a short segment
# after a long one (it cannot turn, but its angle is not zero); and a
# 90-degree turn.
# Tick 4 moves every stroke on, which reads the anchor, the previous
# segment kept across the zero-length one, and the peak speed.
_HEAD = [(0, 0, 0.0), (10, 0, 0.01), (20, 0, 0.01)]
_EVERY_MASK = [
    (3, [(0, 0, 0.0), (0, 10, 0.01)]),
    (2, [(0, 0, 0.0), (10, 0, 0.01), (10, 10, 0.01)]),
    (1, [(0, 0, 0.0), (10, 0, 0.01), (20, 5, 0.01), (20, 15, 0.01)]),
    (0, [(0, 0, 0.0), (10, 0, 0.0), (20, 0, 0.0), (30, 0, 5e-7), (30, 9, 0.01)]),
    (0, _HEAD + [(20, 0, 0.01), (20, 10, 0.01)]),
    (0, _HEAD + [(21, 1, 0.01), (21, 11, 0.01)]),
    (0, _HEAD + [(20, 10, 0.01), (10, 10, 0.01)]),
]


def _assert_staggered_ticks_match(staggered):
    """Feed ``(start, steps)`` strokes tick by tick, every live stroke in
    one ``add_points`` call, and compare each fed row with its scalar
    accumulation after every tick: the exact vector bit for bit, the
    vectorized feature row within the ulp-level tolerance.

    Floating-point errors raise, so a row computed outside its mask
    (say, a speed divided by a zero time step) fails too.
    """
    strokes_ = []
    for start, steps in staggered:
        t = 0.0
        points = []
        for x, y, dt in steps:
            t += dt
            points.append(Point(float(x), float(y), t))
        strokes_.append((start, points))
    bank = FeatureBank(len(strokes_))
    slots = [bank.open_slot() for _ in strokes_]
    refs = [IncrementalFeatures() for _ in strokes_]
    last = max(start + len(points) for start, points in strokes_)
    with np.errstate(divide="raise", invalid="raise"):
        for tick in range(last):
            live = [
                i
                for i, (start, points) in enumerate(strokes_)
                if start <= tick < start + len(points)
            ]
            if not live:
                continue
            fed = [strokes_[i][1][tick - strokes_[i][0]] for i in live]
            block, counts = bank.add_points(
                np.array([slots[i] for i in live]),
                np.array([[p.x, p.y, p.t] for p in fed]).T,
            )
            f, _, _ = bank.features(block)
            for row, i, p in zip(range(len(live)), live, fed):
                refs[i].add_point(p)
                expected = refs[i].vector
                assert counts[row] == tick - strokes_[i][0] + 1
                assert (
                    bank.quality_vector(slots[i]).tobytes() == expected.tobytes()
                )
                np.testing.assert_allclose(
                    f[row], expected, rtol=1e-12, atol=1e-12
                )


class TestFeatureBank:
    @given(st.lists(strokes(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_bank_matches_incremental_features(self, stroke_list):
        """Interleaved vectorized ticks == per-stroke scalar accumulation."""
        bank = FeatureBank(len(stroke_list))
        slots = [bank.open_slot() for _ in stroke_list]
        longest = max(len(s) for s in stroke_list)
        for i in range(longest):
            live = [
                (slot, s[i])
                for slot, s in zip(slots, stroke_list)
                if i < len(s)
            ]
            arr = np.array([slot for slot, _ in live])
            xs = np.array([p.x for _, p in live])
            ys = np.array([p.y for _, p in live])
            ts = np.array([p.t for _, p in live])
            _, counts = bank.add_points(arr, np.array([xs, ys, ts]))
            assert counts.tolist() == [i + 1] * len(live)
        f, counts, guard_risk = bank.features(bank.take(np.array(slots)))
        assert guard_risk.shape == (len(slots),)
        for row, stroke in zip(f, stroke_list):
            expected = scalar_vector(stroke)
            # Everything but atan2/hypot is IEEE-identical; those may
            # differ by an ulp per operation (bounded, and accounted for
            # by the evaluator's risk flags).
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-12)

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), grid_strokes),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_staggered_ticks_mix_every_row_kind(self, staggered):
        """Strokes starting at different ticks put press points, anchor
        points and later points into one ``add_points`` call; on a small
        integer grid with near-zero and zero time steps the same call
        also mixes untimed, zero-length, short and turning segments.
        Every row still equals its own scalar accumulation."""
        _assert_staggered_ticks_match(staggered)

    def test_one_tick_hits_every_mask(self):
        """A pinned tick in which each row takes a different per-row
        condition of the bank, plus one more tick that reads the state
        those conditions left behind."""
        _assert_staggered_ticks_match(_EVERY_MASK)

    def test_slot_reuse_resets_state(self):
        bank = FeatureBank(1)
        slot = bank.open_slot()
        bank.add_points(np.array([slot]), np.array([[5.0], [6.0], [0.1]]))
        bank.close_slot(slot)
        again = bank.open_slot()
        assert again == slot
        assert bank.count_of(again) == 0
        bank.add_points(np.array([again]), np.array([[1.0], [2.0], [0.2]]))
        f, counts, _ = bank.features(bank.take(np.array([again])))
        assert counts.tolist() == [1.0]
        assert f[0, 4] == 0.0  # chord length restarts from the new first point

    def test_capacity_exhaustion(self):
        bank = FeatureBank(2)
        bank.open_slot(), bank.open_slot()
        assert bank.free_slots == 0
        with pytest.raises(IndexError):
            bank.open_slot()


def _drive_both_paths(recognizer, stroke_list):
    """Feed strokes through EagerSession and through bank+evaluator."""
    evaluator = BatchEvaluator(recognizer)
    bank = FeatureBank(len(stroke_list))
    slots = np.array([bank.open_slot() for _ in stroke_list])
    sequential = []
    for stroke in stroke_list:
        session = recognizer.session()
        decided = None
        for p in stroke:
            decided = session.add_point(p)
            if decided is not None:
                break
        sequential.append((decided, session.finish()))

    shortest = min(len(s) for s in stroke_list)
    for i in range(shortest):
        bank.add_points(
            slots, np.array([[s[i].x, s[i].y, s[i].t] for s in stroke_list]).T
        )
    return evaluator, bank, slots, sequential


class TestBatchEvaluator:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_unrisky_rows_match_scalar_decisions(
        self, directions_recognizer, masked_recognizer, data
    ):
        """Per-row batched verdicts equal scalar ones wherever not risky.

        Runs against both recognizers — the masked one's full classifier
        carries a feature-index mask, exercising the zero-embedding
        layout.
        """
        for recognizer in (directions_recognizer, masked_recognizer):
            n = recognizer.min_points
            stroke_list = data.draw(
                st.lists(
                    strokes(min_points=n, max_points=n + 10),
                    min_size=1,
                    max_size=5,
                )
            )
            evaluator, bank, slots, _ = _drive_both_paths(
                recognizer, stroke_list
            )
            prefix = min(len(s) for s in stroke_list)
            features, counts, guard_risk = bank.features(bank.take(slots))
            unamb, auc_risky, winners, full_risky = (
                evaluator.combined_decisions(features, counts, guard_risk)
            )
            names = evaluator.full_names
            for i, stroke in enumerate(stroke_list):
                vector = scalar_vector(stroke[:prefix])
                if not auc_risky[i]:
                    assert unamb[i] == recognizer.auc.is_unambiguous(vector)
                if not full_risky[i]:
                    expected = recognizer.full_classifier.classify_features(
                        vector
                    )
                    assert names[winners[i]] == expected

    def test_tied_top_scores_are_risky_in_both_blocks(
        self, directions_recognizer
    ):
        """Two classes with the same weights and constant score exactly
        alike; where they share the top score the margin is 0, so the
        row is risky in both blocks, and the winner is the lower index
        (argmax's first maximum)."""
        stroke = [
            Point(float(i * 10), float(i * i), i * 0.01) for i in range(8)
        ]
        features = scalar_vector(stroke)[None, :]
        evaluator = BatchEvaluator(directions_recognizer)
        _, auc_risky, _, full_risky = evaluator.combined_decisions(
            features, np.array([8.0]), np.array([False])
        )
        assert not auc_risky[0] and not full_risky[0]

        tied = copy.deepcopy(directions_recognizer)
        expected = []
        for linear in (tied.auc.linear, tied.full_classifier.linear):
            top = int(np.argmax(linear.weights @ features[0] + linear.constants))
            twin = 1 if top == 0 else 0
            linear.weights[twin] = linear.weights[top]
            linear.constants[twin] = linear.constants[top]
            expected.append(min(top, twin))
        evaluator = BatchEvaluator(tied)
        unambiguous, auc_risky, winners, full_risky = (
            evaluator.combined_decisions(
                features, np.array([8.0]), np.array([False])
            )
        )
        assert auc_risky[0] and full_risky[0]
        assert winners[0] == expected[1]
        assert unambiguous[0] == tied.auc._complete_row_mask[expected[0]]

    def test_masked_weights_zero_embedding(self, masked_recognizer):
        """The masked classifier's scores equal its embedded block exactly."""
        full = masked_recognizer.full_classifier
        assert full.feature_indices is not None
        evaluator = BatchEvaluator(masked_recognizer)
        rng = np.random.default_rng(17)
        features = rng.normal(size=(32, 13)) * 50.0
        n_auc = masked_recognizer.auc.linear.num_classes
        fused = features @ evaluator._comb_wt + evaluator._comb_const
        masked = (
            features[:, list(full.feature_indices)] @ full.linear.weights.T
            + full.linear.constants
        )
        np.testing.assert_array_equal(fused[:, n_auc:], masked)
