"""Batched evaluation must equal the scalar path, decision for decision.

The serving layer's core claim (see ``repro.serve.batch``): stacking
feature rows and deciding them with one matrix product yields the same
verdicts as running each session through ``EagerSession`` — with any
row the evaluator cannot *prove* safe flagged ``risky`` and re-decided
sequentially.  These tests drive random strokes through both paths and
insist on equality, including for GDP's feature-masked full classifier.
"""

from __future__ import annotations

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
            counts = bank.add_points(arr, xs, ys, ts)
            assert counts.tolist() == [i + 1] * len(live)
        f, counts, guard_risk = bank.features(np.array(slots))
        assert guard_risk.shape == (len(slots),)
        for row, stroke in zip(f, stroke_list):
            expected = scalar_vector(stroke)
            # Everything but atan2/hypot is IEEE-identical; those may
            # differ by an ulp per operation (bounded, and accounted for
            # by the evaluator's risk flags).
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-12)

    def test_slot_reuse_resets_state(self):
        bank = FeatureBank(1)
        slot = bank.open_slot()
        bank.add_points(
            np.array([slot]), np.array([5.0]), np.array([6.0]), np.array([0.1])
        )
        bank.close_slot(slot)
        again = bank.open_slot()
        assert again == slot
        assert bank.count_of(again) == 0
        bank.add_points(
            np.array([again]), np.array([1.0]), np.array([2.0]), np.array([0.2])
        )
        f, counts, _ = bank.features(np.array([again]))
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
            slots,
            np.array([s[i].x for s in stroke_list]),
            np.array([s[i].y for s in stroke_list]),
            np.array([s[i].t for s in stroke_list]),
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
            features, counts, guard_risk = bank.features(slots)
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
