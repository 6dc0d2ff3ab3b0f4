"""Rubine's incremental features for a whole pool of strokes at once.

:class:`~repro.features.IncrementalFeatures` folds one stroke's points
into 13 features in O(1) per point — but it is a Python object, and a
service advancing thousands of strokes pays the interpreter once per
session per point.  :class:`FeatureBank` keeps the same state for up to
``capacity`` strokes in one column-major numpy matrix (one row per
accumulator, one column per stroke), so one *tick* (one new point for
each of n sessions) updates every session with a fixed number of
vectorized operations, independent of n.  A tick takes the slots'
columns once (``np.take(state, slots, axis=1)``, a C-ordered
``(21, n)`` block whose rows are contiguous), updates the block's rows
in place — each per-row condition (first point, anchor, timed,
turning, moved) is a ``where=`` mask, not a subset gather and scatter
— and puts the block back once.  :meth:`features` reads the same
block, so a round's candidates need no second gather.

The arithmetic deliberately mirrors ``IncrementalFeatures.add_point`` /
``.vector`` operation for operation.  Additions, multiplications,
divisions, comparisons and ``sqrt`` are IEEE-identical between ``math``
and numpy, so the accumulator state (arc length, turn angles, speeds,
bounding box) matches the scalar path bit for bit except through
``arctan2`` and ``hypot``, whose libm implementations may differ from
``math.atan2`` / ``math.hypot`` by an ulp.  Those discrepancies are
bounded and surfaced to the caller:

* :meth:`features` returns a ``guard_risk`` flag per row, set when a
  normalization guard (``d > 1e-3``) is within floating-point slack of
  its threshold — the only place an ulp can change a feature by O(1);
* the point counts it returns feed the per-point *drift* bound of
  :class:`repro.serve.batch.BatchEvaluator`, which covers the ulp-sized
  differences everywhere else.

Rows that trip neither check are guaranteed to classify identically to
the scalar path; rows that do are re-decided exactly by the pool, from
the turn-product log below.

**The turn-product log.**  Two consumers need *value-level*
bit-identity: the pool's exact fallback for risky rows, and
:class:`repro.obs.QualityMonitor`, whose margins and Mahalanobis
distances are pinned byte-for-byte by golden traces.  Neither can read
:meth:`features` rows directly, because ``np.arctan2`` / ``np.hypot``
demonstrably diverge from ``math.atan2`` / ``math.hypot`` on real
coordinates (SIMD libm kernels round differently in the last ulp).  So
the bank keeps a per-slot *log* of the turning segments' cross and dot
products — numbers the vectorized tick already computed, each
bit-identical to what the scalar path derives from the same
accumulators — appended with one scatter per tick.
:meth:`quality_state` snapshots a slot's raw deltas plus a copy of its
log; :func:`~repro.features.fold_turn_angles` and
:func:`~repro.features.vector_from_snapshot` then replay the scalar
``math.atan2`` fold (same operands, same order) and assemble the full
vector with ``math`` operations only, so :meth:`quality_vector` is
bit-identical to a scalar replay of the slot's points, which the bank
never stores.  The log is a fixed-width shared matrix (``_Q_LOG_WIDTH``
turns per slot); a stroke that outgrows it moves to a growable buffer
of its own, so memory follows the products each slot logged, not the
longest stroke times the capacity.  The decision path (:meth:`features`,
the evaluator, the guard flags) never reads the log.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..features.incremental import vector_from_snapshot
from ..features.rubine import _MIN_DISTANCE, _MIN_DT, _MIN_SEGMENT_SQ, NUM_FEATURES

__all__ = ["FeatureBank"]

# A guard comparison `d > _MIN_DISTANCE` can only disagree between the
# scalar and vectorized hypot when d lands within a few ulps of the
# threshold; flag anything within a generous multiple.
_GUARD_SLACK = 16.0 * np.finfo(float).eps * _MIN_DISTANCE

# State-matrix rows, one accumulator per row.  Fields written together
# are adjacent, so one masked copy or ufunc updates them all; the first
# and last points' (x, y, t) rows form a regular (2, 3) pattern, and the
# last point's and the anchor's (x, y) rows a regular (2, 2) one.
(
    _FIRST_X,
    _FIRST_Y,
    _FIRST_T,
    _LAST_X,
    _LAST_Y,
    _LAST_T,
    _THIRD_X,
    _THIRD_Y,
    _COUNT,
    _MIN_X,
    _MIN_Y,
    _MAX_X,
    _MAX_Y,
    _TOTAL_LEN,
    _TOTAL_ANGLE,
    _TOTAL_ABS,
    _SHARPNESS,
    _MAX_SPEED_SQ,
    _PREV_DX,
    _PREV_DY,
    _PREV_SQ,
) = range(21)
_NUM_ROWS = 21

_EMPTY = np.zeros(_NUM_ROWS)
_EMPTY[_MIN_X] = _EMPTY[_MIN_Y] = np.inf
_EMPTY[_MAX_X] = _EMPTY[_MAX_Y] = -np.inf


class FeatureBank:
    """Vectorized incremental feature state for ``capacity`` strokes."""

    # Turning points per slot in the shared log.  A stroke with more
    # turns spills to its own buffer (see _spill), so this only bounds
    # the shared matrix; undecided strokes rarely turn this often.
    _Q_LOG_WIDTH = 64

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._state = np.zeros((_NUM_ROWS, capacity))
        self._free = list(range(capacity - 1, -1, -1))
        # The turn-product log: one row of (cross, dot) pairs per slot
        # (pair j = the slot's j-th turning point), a per-slot entry
        # count, and the spilled slots' own buffers of interleaved
        # pairs.  Entries beyond a slot's count are stale garbage from
        # earlier occupants — never read.
        self._q_log = np.zeros((capacity, self._Q_LOG_WIDTH, 2))
        self._q_len = np.zeros(capacity, dtype=np.intp)
        self._q_spill: dict[int, array] = {}

    # -- slot management -----------------------------------------------------

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def open_slot(self) -> int:
        """Claim a slot for a new stroke; its state starts empty."""
        if not self._free:
            raise IndexError("feature bank is full")
        slot = self._free.pop()
        self._state[:, slot] = _EMPTY
        self._q_len[slot] = 0
        return slot

    def close_slot(self, slot: int) -> None:
        """Release a slot back to the free list."""
        self._free.append(slot)
        self._q_spill.pop(slot, None)

    def count_of(self, slot: int) -> int:
        """Points seen by one slot."""
        return int(self._state[_COUNT, slot])

    def take(self, slots: np.ndarray) -> np.ndarray:
        """A copy of the slots' state columns, for :meth:`features`."""
        return np.take(self._state, slots, axis=1)

    # -- the vectorized tick -------------------------------------------------

    def add_points(
        self, slots: np.ndarray, xyt: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold one new point into each of the given slots.

        ``xyt`` holds the points' x, y and t as a ``(3, n)`` array.
        ``slots`` must not contain duplicates — a tick delivers at most
        one point per stroke, exactly like the per-session loop (the
        take below reads each slot's state once, so a duplicate would
        fold against a stale column).

        Returns ``(block, counts)``: the slots' updated ``(21, n)``
        state block, which :meth:`features` reads without touching the
        bank again, and their point counts (a view of it).
        """
        # The one take (C-ordered, unlike `state[:, slots]`, so every row
        # is contiguous); updated in place.
        blk = np.take(self._state, slots, axis=1)
        n = len(slots)
        cnt = blk[_COUNT]
        xy = xyt[:2]
        # A press point is both the first and the last point, so its
        # segment below is (0, 0, 0): it adds nothing to the length and
        # no mask passes it (the scalar path has no segment there).
        np.copyto(
            blk[_FIRST_X : _LAST_T + 1].reshape(2, 3, n), xyt, where=cnt == 0.0
        )
        # Points 0 to 2 all update the initial-angle anchor, matching
        # IncrementalFeatures (a 2-point prefix anchors on its last
        # point; a 1-point prefix anchors on its first).
        np.copyto(blk[_THIRD_X : _THIRD_Y + 1], xy, where=cnt <= 2.0)
        box = blk[_MIN_X : _MIN_Y + 1]
        np.minimum(box, xy, out=box)
        box = blk[_MAX_X : _MAX_Y + 1]
        np.maximum(box, xy, out=box)

        d = xyt - blk[_LAST_X : _LAST_T + 1]  # (dx, dy, dt)
        sq = d[:2] * d[:2]
        seg_sq = sq[0] + sq[1]
        acc = blk[_TOTAL_LEN]
        np.add(acc, np.sqrt(seg_sq), out=acc)
        dt = d[2]
        timed = dt >= _MIN_DT
        np.divide(seg_sq, dt * dt, out=dt, where=timed)  # dt: speed^2 now
        acc = blk[_MAX_SPEED_SQ]
        np.maximum(acc, dt, out=acc, where=timed)
        # The last moving segment (0.0 before the first one, where the
        # scalar path's previous delta is None) must be long enough too.
        turning = np.minimum(seg_sq, blk[_PREV_SQ]) >= _MIN_SEGMENT_SQ
        prev = blk[_PREV_DX : _PREV_DY + 1]
        cross = prev * d[1::-1]  # (pdx dy, pdy dx)
        dot = prev * d[:2]  # (pdx dx, pdy dy)
        products = np.empty((2, n))  # cross and dot
        np.subtract(cross[0], cross[1], out=products[0])
        np.add(dot[0], dot[1], out=products[1])
        turn = np.empty((3, n))
        theta = np.arctan2(products[0], products[1], out=turn[0])
        np.abs(theta, out=turn[1])
        np.multiply(theta, theta, out=turn[2])
        acc = blk[_TOTAL_ANGLE : _SHARPNESS + 1]
        np.add(acc, turn, out=acc, where=turning)
        self._fold_quality(slots[turning], products[:, turning])
        d[2] = seg_sq  # (dx, dy, seg_sq): the moved rows' new _PREV_* rows
        np.copyto(blk[_PREV_DX : _PREV_SQ + 1], d, where=seg_sq > 0.0)

        blk[_LAST_X : _LAST_T + 1] = xyt
        cnt += 1.0
        self._state[:, slots] = blk  # the one put
        return blk, cnt

    # -- feature assembly ----------------------------------------------------

    @staticmethod
    def features(blk: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current feature rows of a state block from :meth:`add_points`
        or :meth:`take`.

        Every slot must have seen at least one point.

        Returns:
            ``(F, counts, guard_risk)`` — an ``(n, 13)`` feature matrix,
            the slots' point counts (a view of the block), and a boolean
            row flag set where a normalization guard sits within
            floating-point slack of its threshold (see module
            docstring).
        """
        n = blk.shape[1]
        # The (x, y) deltas of the chord and of the initial anchor (both
        # from the first point), and the bounding box's width and height.
        deltas = np.empty((3, 2, n))
        np.subtract(
            blk[_LAST_X : _LAST_X + 6].reshape(2, 3, n)[:, :2],
            blk[_FIRST_X : _FIRST_Y + 1],
            out=deltas[:2],
        )
        np.subtract(
            blk[_MAX_X : _MAX_Y + 1], blk[_MIN_X : _MIN_Y + 1], out=deltas[2]
        )
        lengths = np.hypot(deltas[:, 0], deltas[:, 1])  # chord, d0, diagonal

        # Assembled feature-major, then transposed once into rows.
        f = np.zeros((NUM_FEATURES, n))
        guarded = lengths[:2] > _MIN_DISTANCE
        np.divide(deltas[1], lengths[1], out=f[0:2], where=guarded[1])
        f[2] = lengths[2]
        np.arctan2(deltas[2, 1], deltas[2, 0], out=f[3])  # atan2(0, 0) == 0
        f[4] = lengths[0]
        np.divide(deltas[0], lengths[0], out=f[5:7], where=guarded[0])
        # Arc length, the three turn sums and the peak speed are stored
        # in feature order.
        f[7:12] = blk[_TOTAL_LEN : _MAX_SPEED_SQ + 1]
        np.subtract(blk[_LAST_T], blk[_FIRST_T], out=f[12])

        guard_risk = (
            np.abs(lengths[:2] - _MIN_DISTANCE).min(axis=0) <= _GUARD_SLACK
        )
        return np.ascontiguousarray(f.T), blk[_COUNT], guard_risk

    # -- the turn-product log -----------------------------------------------

    def _fold_quality(self, tgt: np.ndarray, products: np.ndarray) -> None:
        """Append this tick's turning products to the log.

        ``products`` holds the turning rows' cross and dot products as
        a ``(2, m)`` array — already computed by the vectorized tick,
        each bit-identical to what the scalar path computes from the
        same accumulators.  Logging them (instead of folding thetas
        here) keeps the tick free of scalar ``atan2`` calls; one point
        per slot per tick means pair order per slot is exactly the
        scalar fold order.

        While no live slot has spilled, the scatter raises
        ``IndexError`` when a stroke first outgrows the shared width;
        :meth:`_spill` then redoes the tick's appends, which is safe
        because any element written before the raise already sits at its
        final position.  Once a slot has spilled, every tick splits its
        rows in :meth:`_spill` instead, and nothing raises.
        """
        idx = self._q_len[tgt]
        if self._q_spill:
            self._spill(tgt, idx, products)
        else:
            try:
                self._q_log[tgt, idx] = products.T
            except IndexError:
                self._spill(tgt, idx, products)
        self._q_len[tgt] = idx + 1

    def _spill(self, tgt, idx, products) -> None:
        """The append path for ticks while some slot's log is full.

        Rows still inside the shared width are scattered there; a
        slot's first entry past it copies its row into an
        ``array('d')`` buffer that grows with the slot alone, and its
        later entries append there until the slot closes.
        """
        inside = idx < self._Q_LOG_WIDTH
        self._q_log[tgt[inside], idx[inside]] = products[:, inside].T
        outside = ~inside
        spill = self._q_spill
        for slot, pair in zip(
            tgt[outside].tolist(), products[:, outside].T.tolist()
        ):
            buf = spill.get(slot)
            if buf is None:
                buf = spill[slot] = array("d", self._q_log[slot].tobytes())
            buf.extend(pair)

    def quality_state(self, slot: int) -> tuple:
        """The slot's raw feature snapshot: nine scalars plus the log.

        Requires a slot that has seen at least one point.  The tuple is
        the argument list of :func:`~repro.features.vector_from_snapshot`:
        ``(dx0, dy0, width, height, dxe, dye, total_len, turn_products,
        max_speed_sq, duration)``.  The scalar entries are produced with
        subtractions only (IEEE-exact); ``turn_products`` is an owned
        ``(m, 2)`` copy of the slot's (cross, dot) log, from which
        :func:`~repro.features.fold_turn_angles` reproduces the three
        turn-angle accumulators bit-exactly.  Capturing this instead of
        the assembled vector keeps the per-decision hot-path cost to a
        column read plus one small memcpy; every ``hypot``/``atan2``/
        divide runs wherever the snapshot is consumed (the quality
        monitor defers them to scrape time).
        """
        n = self._q_len[slot]
        if n > self._Q_LOG_WIDTH:
            turns = np.frombuffer(self._q_spill[slot]).reshape(-1, 2).copy()
        else:
            turns = self._q_log[slot, :n].copy()
        row = self._state[:, slot].tolist()
        fx = row[_FIRST_X]
        fy = row[_FIRST_Y]
        return (
            row[_THIRD_X] - fx,
            row[_THIRD_Y] - fy,
            row[_MAX_X] - row[_MIN_X],
            row[_MAX_Y] - row[_MIN_Y],
            row[_LAST_X] - fx,
            row[_LAST_Y] - fy,
            row[_TOTAL_LEN],
            turns,
            row[_MAX_SPEED_SQ],
            row[_LAST_T] - row[_FIRST_T],
        )

    def quality_vector(self, slot: int) -> np.ndarray:
        """The slot's feature vector, bit-identical to a scalar replay.

        :meth:`quality_state` assembled eagerly through
        :func:`~repro.features.vector_from_snapshot`: every operation on
        the path is literally the operation ``IncrementalFeatures``
        performs, so the result equals replaying the slot's points
        through the scalar path without touching them.
        """
        return vector_from_snapshot(*self.quality_state(slot))
