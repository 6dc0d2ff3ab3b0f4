"""Rubine's incremental features for a whole pool of strokes at once.

:class:`~repro.features.IncrementalFeatures` folds one stroke's points
into 13 features in O(1) per point — but it is a Python object, and a
service advancing thousands of strokes pays the interpreter once per
session per point.  :class:`FeatureBank` keeps the same state for up to
``capacity`` strokes in one flat numpy matrix (one row per stroke, one
column per accumulator), so one *tick* (one new point for each of n
sessions) updates every session with a fixed number of vectorized
operations, independent of n.  Each bulk operation starts with a single
row gather ``state[slots]`` and works on column views of that copy —
one fancy index instead of one per accumulator.

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
* :meth:`counts` feeds the per-point *drift* bound of
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

from ..features.incremental import fold_turn_angles, vector_from_snapshot
from ..features.rubine import _MIN_DISTANCE, _MIN_DT, _MIN_SEGMENT_SQ, NUM_FEATURES

__all__ = ["FeatureBank"]

# A guard comparison `d > _MIN_DISTANCE` can only disagree between the
# scalar and vectorized hypot when d lands within a few ulps of the
# threshold; flag anything within a generous multiple.
_GUARD_SLACK = 16.0 * np.finfo(float).eps * _MIN_DISTANCE

# State-matrix columns, one accumulator per column.  Fields written
# together are adjacent so updates land as one block scatter
# (``state[slots, a:b] = block``) instead of one scatter per field.
(
    _FIRST_X,
    _FIRST_Y,
    _FIRST_T,
    _THIRD_X,
    _THIRD_Y,
    _LAST_X,
    _LAST_Y,
    _LAST_T,
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
    _HAS_PREV,
) = range(21)
_NUM_COLUMNS = 21

_EMPTY_ROW = np.zeros(_NUM_COLUMNS)
_EMPTY_ROW[_MIN_X] = _EMPTY_ROW[_MIN_Y] = np.inf
_EMPTY_ROW[_MAX_X] = _EMPTY_ROW[_MAX_Y] = -np.inf


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
        self._state = np.zeros((capacity, _NUM_COLUMNS))
        self._free = list(range(capacity - 1, -1, -1))
        # The turn-product log: one row of cross/dot products per slot
        # (column j = the slot's j-th turning point), a per-slot entry
        # count, and the spilled slots' own buffers.  Entries beyond a
        # slot's count are stale garbage from earlier occupants — never
        # read.
        self._q_cross = np.zeros((capacity, self._Q_LOG_WIDTH))
        self._q_dot = np.zeros((capacity, self._Q_LOG_WIDTH))
        self._q_len = np.zeros(capacity, dtype=np.intp)
        self._q_spill: dict[int, tuple[array, array]] = {}

    # -- slot management -----------------------------------------------------

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def open_slot(self) -> int:
        """Claim a slot for a new stroke; its state starts empty."""
        if not self._free:
            raise IndexError("feature bank is full")
        slot = self._free.pop()
        self._state[slot] = _EMPTY_ROW
        self._q_len[slot] = 0
        return slot

    def close_slot(self, slot: int) -> None:
        """Release a slot back to the free list."""
        self._free.append(slot)
        self._q_spill.pop(slot, None)

    def counts(self, slots: np.ndarray) -> np.ndarray:
        """Points seen per slot (as floats, straight from the state row)."""
        return self._state[slots, _COUNT]

    def count_of(self, slot: int) -> int:
        """Points seen by one slot."""
        return int(self._state[slot, _COUNT])

    # -- the vectorized tick -------------------------------------------------

    def add_points(
        self, slots: np.ndarray, x: np.ndarray, y: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """Fold one new point into each of the given slots.

        ``slots`` must not contain duplicates — a tick delivers at most
        one point per stroke, exactly like the per-session loop (the row
        gather below reads each slot's state once, so a duplicate would
        fold against a stale row).

        Returns the slots' updated point counts (a view; read-only use).
        """
        st = self._state
        rows = st[slots]  # one gather; every read below is from this copy
        n = len(rows)
        cnt = rows[:, _COUNT]

        # In steady state a tick carries moves only (every count >= 1):
        # the starting/anchoring masks are empty, the segment mask is
        # full, and the fast paths below skip the subset gathers.
        starting = cnt == 0.0
        if starting.any():
            blk = np.empty((int(starting.sum()), 3))
            blk[:, 0] = x[starting]
            blk[:, 1] = y[starting]
            blk[:, 2] = t[starting]
            st[slots[starting], _FIRST_X : _FIRST_T + 1] = blk
        # Points 1 and 2 both update the initial-angle anchor, matching
        # IncrementalFeatures (a 2-point prefix anchors on its last point).
        anchoring = (cnt >= 1.0) & (cnt <= 2.0)
        if anchoring.any():
            blk = np.empty((int(anchoring.sum()), 2))
            blk[:, 0] = x[anchoring]
            blk[:, 1] = y[anchoring]
            st[slots[anchoring], _THIRD_X : _THIRD_Y + 1] = blk

        blk = np.empty((n, 4))
        np.minimum(rows[:, _MIN_X], x, out=blk[:, 0])
        np.minimum(rows[:, _MIN_Y], y, out=blk[:, 1])
        np.maximum(rows[:, _MAX_X], x, out=blk[:, 2])
        np.maximum(rows[:, _MAX_Y], y, out=blk[:, 3])
        st[slots, _MIN_X : _MAX_Y + 1] = blk

        seg = cnt >= 1.0
        if seg.all():
            s, r, px, py, pt = slots, rows, x, y, t
        elif seg.any():
            s = slots[seg]
            r = rows[seg]
            px, py, pt = x[seg], y[seg], t[seg]
        else:
            s = None
        if s is not None:
            dx = px - r[:, _LAST_X]
            dy = py - r[:, _LAST_Y]
            seg_sq = dx * dx + dy * dy
            st[s, _TOTAL_LEN] = r[:, _TOTAL_LEN] + np.sqrt(seg_sq)
            dt = pt - r[:, _LAST_T]
            timed = dt >= _MIN_DT
            if timed.all():
                st[s, _MAX_SPEED_SQ] = np.maximum(
                    r[:, _MAX_SPEED_SQ], seg_sq / (dt * dt)
                )
            elif timed.any():
                speed_sq = seg_sq[timed] / (dt[timed] * dt[timed])
                st[s[timed], _MAX_SPEED_SQ] = np.maximum(
                    r[timed, _MAX_SPEED_SQ], speed_sq
                )
            pdx = r[:, _PREV_DX]
            pdy = r[:, _PREV_DY]
            turning = (
                (r[:, _HAS_PREV] != 0.0)
                & (seg_sq >= _MIN_SEGMENT_SQ)
                & (pdx * pdx + pdy * pdy >= _MIN_SEGMENT_SQ)
            )
            if turning.all():
                cross = pdx * dy - pdy * dx
                dot = pdx * dx + pdy * dy
                theta = np.arctan2(cross, dot)
                blk = np.empty((len(theta), 3))
                np.add(r[:, _TOTAL_ANGLE], theta, out=blk[:, 0])
                np.add(r[:, _TOTAL_ABS], np.abs(theta), out=blk[:, 1])
                np.add(r[:, _SHARPNESS], theta * theta, out=blk[:, 2])
                st[s, _TOTAL_ANGLE : _SHARPNESS + 1] = blk
                self._fold_quality(s, cross, dot)
            elif turning.any():
                cross = pdx[turning] * dy[turning] - pdy[turning] * dx[turning]
                dot = pdx[turning] * dx[turning] + pdy[turning] * dy[turning]
                theta = np.arctan2(cross, dot)
                tgt = s[turning]
                st[tgt, _TOTAL_ANGLE] = r[turning, _TOTAL_ANGLE] + theta
                st[tgt, _TOTAL_ABS] = r[turning, _TOTAL_ABS] + np.abs(theta)
                st[tgt, _SHARPNESS] = r[turning, _SHARPNESS] + theta * theta
                self._fold_quality(tgt, cross, dot)
            moved = seg_sq > 0.0
            if moved.all():
                blk = np.empty((len(dx), 3))
                blk[:, 0] = dx
                blk[:, 1] = dy
                blk[:, 2] = 1.0
                st[s, _PREV_DX : _HAS_PREV + 1] = blk
            elif moved.any():
                tgt = s[moved]
                st[tgt, _PREV_DX] = dx[moved]
                st[tgt, _PREV_DY] = dy[moved]
                st[tgt, _HAS_PREV] = 1.0

        blk = np.empty((n, 4))
        blk[:, 0] = x
        blk[:, 1] = y
        blk[:, 2] = t
        np.add(cnt, 1.0, out=blk[:, 3])
        st[slots, _LAST_X : _COUNT + 1] = blk
        return blk[:, 3]

    # -- feature assembly ----------------------------------------------------

    def features(
        self, slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current feature rows for the given slots.

        Every slot must have seen at least one point.

        Returns:
            ``(F, counts, guard_risk)`` — an ``(n, 13)`` feature matrix,
            the slots' point counts (free: a view of the same row
            gather), and a boolean row flag set where a normalization
            guard sits within floating-point slack of its threshold (see
            module docstring).
        """
        r = self._state[slots]
        fx = r[:, _FIRST_X]
        fy = r[:, _FIRST_Y]

        anchored = r[:, _COUNT] >= 2.0
        dx0 = np.where(anchored, r[:, _THIRD_X], fx) - fx
        dy0 = np.where(anchored, r[:, _THIRD_Y], fy) - fy
        d0 = np.hypot(dx0, dy0)

        f = np.zeros((len(slots), NUM_FEATURES))
        initial = d0 > _MIN_DISTANCE
        np.divide(dx0, d0, out=f[:, 0], where=initial)
        np.divide(dy0, d0, out=f[:, 1], where=initial)

        width = r[:, _MAX_X] - r[:, _MIN_X]
        height = r[:, _MAX_Y] - r[:, _MIN_Y]
        f[:, 2] = np.hypot(width, height)
        f[:, 3] = np.arctan2(height, width)  # atan2(0, 0) == 0, as guarded

        dxe = r[:, _LAST_X] - fx
        dye = r[:, _LAST_Y] - fy
        de = np.hypot(dxe, dye)
        f[:, 4] = de
        chord = de > _MIN_DISTANCE
        np.divide(dxe, de, out=f[:, 5], where=chord)
        np.divide(dye, de, out=f[:, 6], where=chord)

        f[:, 7] = r[:, _TOTAL_LEN]
        f[:, 8] = r[:, _TOTAL_ANGLE]
        f[:, 9] = r[:, _TOTAL_ABS]
        f[:, 10] = r[:, _SHARPNESS]
        f[:, 11] = r[:, _MAX_SPEED_SQ]
        f[:, 12] = r[:, _LAST_T] - r[:, _FIRST_T]

        guard_risk = (np.abs(d0 - _MIN_DISTANCE) <= _GUARD_SLACK) | (
            np.abs(de - _MIN_DISTANCE) <= _GUARD_SLACK
        )
        return f, r[:, _COUNT], guard_risk

    # -- the turn-product log -----------------------------------------------

    def _fold_quality(self, tgt: np.ndarray, cross, dot):
        """Append this tick's turning products to the log.

        ``cross``/``dot`` are the turning rows' cross and dot products —
        already computed by the vectorized tick, each bit-identical to
        what the scalar path computes from the same accumulators.
        Logging them (instead of folding thetas here) keeps the tick
        free of scalar ``atan2`` calls; one point per slot per tick
        means column order per slot is exactly the scalar fold order.

        The scatter raises ``IndexError`` when a stroke outgrows the
        shared width; :meth:`_spill` then redoes the tick's appends,
        which is safe because any element written before the raise
        already sits at its final position.
        """
        idx = self._q_len[tgt]
        try:
            self._q_cross[tgt, idx] = cross
            self._q_dot[tgt, idx] = dot
        except IndexError:
            self._spill(tgt, idx, cross, dot)
        self._q_len[tgt] = idx + 1

    def _spill(self, tgt, idx, cross, dot) -> None:
        """The append path for ticks where some slot's log is full.

        A slot's first entry past the shared width copies its row into
        a pair of ``array('d')`` buffers that grow with the slot alone;
        its later entries append there until the slot closes.
        """
        inside = idx < self._Q_LOG_WIDTH
        self._q_cross[tgt[inside], idx[inside]] = cross[inside]
        self._q_dot[tgt[inside], idx[inside]] = dot[inside]
        outside = ~inside
        spill = self._q_spill
        for slot, c, d in zip(
            tgt[outside].tolist(),
            cross[outside].tolist(),
            dot[outside].tolist(),
        ):
            bufs = spill.get(slot)
            if bufs is None:
                bufs = spill[slot] = (
                    array("d", self._q_cross[slot].tobytes()),
                    array("d", self._q_dot[slot].tobytes()),
                )
            bufs[0].append(c)
            bufs[1].append(d)

    def _log(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Owned copies of the slot's logged cross and dot products."""
        n = self._q_len[slot]
        if n > self._Q_LOG_WIDTH:
            crosses, dots = self._q_spill[slot]
            return np.array(crosses), np.array(dots)
        return self._q_cross[slot, :n].copy(), self._q_dot[slot, :n].copy()

    def quality_state(self, slot: int) -> tuple:
        """The slot's raw feature snapshot: nine scalars plus the log.

        Requires a slot that has seen at least one point.  The tuple is
        ``(dx0, dy0, width, height, dxe, dye, total_len, crosses, dots,
        max_speed_sq, duration)`` — the scalar entries are the deltas
        :func:`~repro.features.vector_from_snapshot` takes, produced
        with subtractions only (IEEE-exact); ``crosses``/``dots`` are
        owned copies of the slot's turning-product log, from which
        :func:`~repro.features.fold_turn_angles` reproduces the three
        turn-angle accumulators bit-exactly.  Capturing this instead of
        the assembled vector keeps the per-decision hot-path cost to a
        row read plus two small memcpys; every ``hypot``/``atan2``/
        divide runs wherever the snapshot is consumed (the quality
        monitor defers them to scrape time).
        """
        row = self._state[slot].tolist()
        fx = row[_FIRST_X]
        fy = row[_FIRST_Y]
        if row[_COUNT] >= 2.0:
            dx0 = row[_THIRD_X] - fx
            dy0 = row[_THIRD_Y] - fy
        else:
            # A 1-point prefix anchors on its first point (x - x).
            dx0 = fx - fx
            dy0 = fy - fy
        crosses, dots = self._log(slot)
        return (
            dx0,
            dy0,
            row[_MAX_X] - row[_MIN_X],
            row[_MAX_Y] - row[_MIN_Y],
            row[_LAST_X] - fx,
            row[_LAST_Y] - fy,
            row[_TOTAL_LEN],
            crosses,
            dots,
            row[_MAX_SPEED_SQ],
            row[_LAST_T] - row[_FIRST_T],
        )

    def quality_vector(self, slot: int) -> np.ndarray:
        """The slot's feature vector, bit-identical to a scalar replay.

        :meth:`quality_state` assembled eagerly through
        :func:`~repro.features.fold_turn_angles` and
        :func:`~repro.features.vector_from_snapshot`: every operation on
        the path is literally the operation ``IncrementalFeatures``
        performs, so the result equals replaying the slot's points
        through the scalar path without touching them.
        """
        state = self.quality_state(slot)
        angle, abs_angle, sharp = fold_turn_angles(state[7], state[8])
        return vector_from_snapshot(
            *state[:7], angle, abs_angle, sharp, *state[9:]
        )
