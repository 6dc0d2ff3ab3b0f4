"""Batched linear discrimination with an exact sequential fallback.

The hot path of the serving layer: stack the feature rows of every
in-flight stroke into an ``(n, 13)`` matrix and evaluate *all* per-class
linear evaluation functions — the full classifier's and the AUC's — with
one matrix product per tick, instead of one gemv plus Python overhead
per session per point.

Equivalence guarantee
---------------------

The batched path must emit *exactly* the decisions the per-session
sequential path (:class:`~repro.eager.EagerSession`) would.  Two things
could break bit-identity:

1. BLAS may accumulate a matrix-matrix product in a different order
   than a matrix-vector product, shifting scores by a few ulps.
2. The :class:`~repro.serve.bank.FeatureBank` computes ``arctan2`` and
   ``hypot`` through numpy's libm entry points, which may differ from
   ``math.atan2`` / ``math.hypot`` by an ulp, so its feature rows can
   drift from the scalar ones — by at most a few ulps per feature for
   the direction/bbox features, and linearly in the point count for the
   accumulated turn-angle features (f9–f11).

Both error sources are *bounded*, and the bounds are cheap to evaluate
in batch: per row, ``||f||_1 max|w| + max|b|`` bounds every partial sum
of the product (source 1), and a per-classifier drift coefficient times
the row's point count bounds source 2.  Any row whose winning margin
falls inside the combined bound is flagged ``risky`` and re-decided by
the caller from the scalar path's exact feature vector (the pool reads
it from the bank's turn-product log,
:meth:`~repro.serve.bank.FeatureBank.quality_vector`); every other
row's argmax is provably unaffected, hence identical.  In practice trained-class
margins sit ten-plus orders of magnitude above the bound, so the
fallback triggers essentially never — it exists to turn "almost surely
identical" into "identical".
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from ..eager import EagerRecognizer
from ..features.rubine import NUM_FEATURES

__all__ = ["BatchEvaluator"]

_EPS = float(np.finfo(float).eps)

# Score-margin slack per unit of accumulated magnitude (error source 1).
_MARGIN_SLACK = 2048.0 * _EPS

# One vectorized-vs-scalar atan2 disagreement moves a turn angle by at
# most a few ulps of pi; 4 eps pi is a generous per-point bound.
_THETA_ULP = 4.0 * _EPS * math.pi

# Feature indices, in the full 13-feature space, of the unit-magnitude
# direction cosines (hypot-then-divide: absolute error O(eps)) and of
# the accumulated turn-angle features (error linear in point count).
_DIRECTION_FEATURES = (0, 1, 5, 6)
_ANGLE_SUM_FEATURES = (8, 9)
_ANGLE_SQ_FEATURE = 10


def _drift_bounds(linear, feature_indices) -> tuple[float, float]:
    """One classifier's drift bound (error source 2) as ``(static,
    per_point)``: the direction cosines' O(eps) absolute error, and the
    accumulated angle features' error per point seen."""
    # Map full-space feature indices into this classifier's columns (a
    # masked classifier may not see all of them).
    cols = (
        list(range(NUM_FEATURES))
        if feature_indices is None
        else list(feature_indices)
    )
    position = {orig: i for i, orig in enumerate(cols)}
    absw = np.abs(linear.weights)

    def weight_of(orig_feature: int) -> np.ndarray:
        i = position.get(orig_feature)
        return absw[:, i] if i is not None else 0.0

    if not linear.num_classes:
        return 0.0, 0.0
    # |theta| <= pi bounds the derivative of theta^2.
    static = sum(weight_of(i) for i in _DIRECTION_FEATURES) * 4.0 * _EPS
    per_point = (
        sum(weight_of(i) for i in _ANGLE_SUM_FEATURES)
        + weight_of(_ANGLE_SQ_FEATURE) * 2.0 * math.pi
    ) * _THETA_ULP
    return float(np.max(static)), float(np.max(per_point))


class BatchEvaluator:
    """Batched AUC + full-classifier decisions for one recognizer."""

    def __init__(self, recognizer: EagerRecognizer):
        self.recognizer = recognizer
        # Optional repro.obs.PerfProfiler, attached by the pool when its
        # observer carries one; None keeps the hot path clock-free.
        self.profiler = None
        full = recognizer.full_classifier
        self._complete = recognizer.auc._complete_row_mask
        self.full_names = full.class_names

        # For the per-round hot path, both classifiers share one matrix
        # product: the full classifier's (possibly column-masked) weights
        # are zero-embedded into the 13-feature space and stacked next to
        # the AUC's.  Multiplying a feature by an exactly-zero weight and
        # adding it to a partial sum is an exact no-op, so the embedded
        # scores equal the masked ones bit for bit, and the same margin
        # bound applies (with the conservative 13-column slack factor).
        full_w = full.linear.weights
        if full.feature_indices is None:
            embedded = full_w
        else:
            embedded = np.zeros((full_w.shape[0], NUM_FEATURES))
            embedded[:, list(full.feature_indices)] = full_w
        n_auc = recognizer.auc.linear.num_classes
        self._comb_wt = np.ascontiguousarray(
            np.concatenate([recognizer.auc.linear.weights, embedded]).T
        )
        self._comb_const = np.concatenate(
            [recognizer.auc.linear.constants, full.linear.constants]
        )
        # Per block (AUC, full): its class count, and as (2, 1) columns
        # its largest |weight| and |constant| (the row bound) and its
        # drift bound.
        abs_wt = np.abs(self._comb_wt)
        abs_const = np.abs(self._comb_const)
        self._sizes = (n_auc, len(self._comb_const) - n_auc)
        columns = (slice(0, n_auc), slice(n_auc, None))
        self._max_w = np.array(
            [[abs_wt[:, c].max(initial=0.0)] for c in columns]
        )
        self._max_c = np.array(
            [[abs_const[c].max(initial=0.0)] for c in columns]
        )
        self._static, self._per_point = np.array(
            [
                _drift_bounds(recognizer.auc.linear, None),
                _drift_bounds(full.linear, full.feature_indices),
            ]
        ).T[:, :, None]

    def combined_decisions(
        self,
        features: np.ndarray,
        counts: np.ndarray,
        guard_risk: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """AUC and full-classifier verdicts from one matrix product.

        Returns ``(unambiguous, auc_risky, full_winners, full_risky)``,
        all per row.  Where ``auc_risky`` is False, ``unambiguous``
        equals what ``AmbiguityClassifier.is_unambiguous`` returns for
        the scalar path's feature vector (the paper's D); where
        ``full_risky`` is False, ``full_names[full_winners]`` equals
        ``GestureClassifier.classify_features`` on it.  Risky rows must
        be re-decided exactly by the caller.
        """
        prof = self.profiler
        t_start = perf_counter() if prof is not None else 0.0
        scores = features @ self._comb_wt + self._comb_const
        # Transposed once, class-major, into one (2, k, n) array: block
        # 0 the AUC's classes, block 1 the full classifier's, each
        # padded to k with -inf (which never wins or runs up).  Winners
        # and top-2 margins are then axis-1 reductions over contiguous
        # class rows, for both blocks at once.
        n = len(features)
        n_auc, n_full = self._sizes
        k = max(self._sizes)
        blocks = np.full((2, k, n), -np.inf)
        blocks[0, :n_auc] = scores[:, :n_auc].T
        blocks[1, :n_full] = scores[:, n_auc:].T
        winners = blocks.argmax(axis=1)
        # The runner-up is the block's maximum once each row's winner is
        # masked out: a tied score survives (margin 0), and a one-class
        # block's runner-up is -inf (margin inf, so only the guard
        # flags it).
        at = winners * n
        at += np.arange(n)
        at[1] += k * n
        flat = blocks.reshape(-1)
        margin = flat[at]
        flat[at] = -np.inf
        margin -= blocks.max(axis=1)
        # Cheap row bound on any partial sum: ||f||_1 max|w| + max|b|
        # — looser than a per-class |f|.|w|^T bound, but one matrix
        # product cheaper; real margins sit ten-plus orders of
        # magnitude above it.
        magnitude = np.abs(features).sum(axis=1) * self._max_w + self._max_c
        tolerance = (
            _MARGIN_SLACK * NUM_FEATURES * magnitude
            + self._static
            + self._per_point * counts
        )
        risky = margin <= tolerance
        risky |= guard_risk
        if prof is not None:
            prof.add("fused_eval", perf_counter() - t_start, n)
        return self._complete[winners[0]], risky[0], winners[1], risky[1]
