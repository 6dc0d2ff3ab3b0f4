"""SessionPool lifecycle, error isolation, and mode equivalence."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.eager import EagerRecognizer
from repro.serve import (
    Decision,
    SessionPool,
    compare_modes,
    family_templates,
    generate_workload,
)


def _square_points(n=8, step=6.0):
    """A brisk diagonal stroke: n points, 10 ms apart."""
    return [(i * step, i * step, i * 0.01) for i in range(n)]


def _drive_stroke(pool, key, points, up=True):
    decisions = []
    for i, (x, y, t) in enumerate(points):
        if i == 0:
            pool.down(key, x, y, t)
        else:
            pool.move(key, x, y, t)
        decisions.extend(pool.advance_to(t))
    if up:
        x, y, t = points[-1]
        pool.up(key, x, y, t)
        decisions.extend(pool.advance_to(t))
    return decisions


@pytest.fixture(params=[True, False], ids=["batched", "sequential"])
def pool(request, directions_recognizer):
    return SessionPool(
        directions_recognizer, batched=request.param, max_sessions=8
    )


def test_decision_is_a_value():
    """Decisions compare, hash and print by their fields, and equal only
    other decisions."""
    fields = ("k1", "recog", 0.25, "dot", True, 4, 4, "eager")
    d = Decision(*fields)
    same = Decision(
        key="k1",
        kind="recog",
        t=0.25,
        class_name="dot",
        eager=True,
        points_seen=4,
        total_points=4,
        reason="eager",
    )
    assert d == same and hash(d) == hash(same)
    assert d != Decision("k1", "recog", 0.25, class_name="dot")
    assert d != fields
    assert repr(d) == (
        "Decision(key='k1', kind='recog', t=0.25, class_name='dot', "
        "eager=True, points_seen=4, total_points=4, reason='eager')"
    )


class TestLifecycle:
    def test_full_stroke_decides_and_commits(self, pool):
        decisions = _drive_stroke(pool, "s1", _square_points())
        kinds = [d.kind for d in decisions]
        assert kinds.count("recog") == 1
        assert kinds[-1] == "commit"
        recog = decisions[kinds.index("recog")]
        assert recog.class_name is not None
        assert recog.points_seen >= pool.recognizer.min_points
        assert "s1" not in pool
        assert len(pool) == 0

    def test_motionless_timeout_fires_at_last_t_plus_timeout(self, pool):
        # Two points stay below min_points, so eager recognition cannot
        # preempt the timeout — the decision must come from the pause.
        points = _square_points(2)
        for i, (x, y, t) in enumerate(points):
            (pool.down if i == 0 else pool.move)("s1", x, y, t)
        last_t = points[-1][2]
        # Just short of the deadline: nothing fires.
        assert pool.advance_to(last_t + pool.timeout * 0.99) == []
        fired = pool.advance_to(last_t + pool.timeout)
        assert len(fired) == 1
        assert fired[0].kind == "recog"
        assert fired[0].reason == "timeout"
        assert fired[0].t == pytest.approx(last_t + pool.timeout)
        # The session survives the decision, in its manipulation phase.
        assert "s1" in pool

    def test_manipulation_phase_is_silent_then_commits(self, pool):
        points = _square_points(4)
        for i, (x, y, t) in enumerate(points):
            (pool.down if i == 0 else pool.move)("s1", x, y, t)
        pool.advance_to(points[-1][2] + pool.timeout)
        # Post-decision moves emit nothing; the client already has the class.
        pool.move("s1", 99.0, 99.0, 1.0)
        assert pool.advance_to(1.0) == []
        pool.up("s1", 99.0, 99.0, 1.1)
        (commit,) = pool.advance_to(1.1)
        assert commit.kind == "commit"
        assert len(pool) == 0

    def test_evict_idle_reclaims_abandoned_sessions(self, pool):
        pool.down("gone", 0.0, 0.0, 0.0)
        pool.down("fresh", 0.0, 0.0, 29.0)
        pool.advance_to(29.0)
        evicted = pool.evict_idle(max_idle=10.0)
        assert [d.key for d in evicted if d.kind == "evict"] == ["gone"]
        assert "gone" not in pool and "fresh" in pool
        # The evicted slot is reusable immediately.
        pool.down("next", 0.0, 0.0, 29.0)
        assert not any(
            d.kind == "error" for d in pool.advance_to(29.0)
        )


class TestErrors:
    def test_duplicate_down_errors_without_killing_session(self, pool):
        pool.down("s1", 0.0, 0.0, 0.0)
        pool.down("s1", 1.0, 1.0, 0.01)
        errors = [d for d in pool.advance_to(0.01) if d.kind == "error"]
        assert [e.reason for e in errors] == ["duplicate down"]
        assert "s1" in pool  # the original session is untouched

    def test_move_and_up_on_unknown_stroke(self, pool):
        pool.move("ghost", 1.0, 1.0, 0.0)
        pool.up("ghost2", 1.0, 1.0, 0.0)
        errors = pool.advance_to(0.0)
        assert [e.reason for e in errors] == ["unknown stroke"] * 2

    def test_pool_full_rejects_only_the_overflowing_down(self, pool):
        for i in range(pool.max_sessions):
            pool.down(f"s{i}", 0.0, 0.0, 0.0)
        pool.down("overflow", 0.0, 0.0, 0.0)
        decisions = pool.advance_to(0.0)
        errors = [d for d in decisions if d.kind == "error"]
        assert [e.key for e in errors] == ["overflow"]
        assert [e.reason for e in errors] == ["pool full"]
        assert len(pool) == pool.max_sessions

    def test_errors_never_disturb_other_sessions(self, pool):
        points = _square_points()
        decisions = []
        for i, (x, y, t) in enumerate(points):
            if i == 0:
                pool.down("good", x, y, t)
            else:
                pool.move("good", x, y, t)
            pool.move("ghost", x, y, t)  # unknown stroke, every tick
            decisions.extend(pool.advance_to(t))
        pool.up("good", *points[-1][:2], points[-1][2])
        decisions.extend(pool.advance_to(points[-1][2]))
        good = [d for d in decisions if d.key == "good"]
        assert [d.kind for d in good][-1] == "commit"
        assert all(d.kind != "error" for d in good)


class TestModeEquivalence:
    @pytest.mark.parametrize("family", ["directions", "gdp", "notes", "ud"])
    def test_decision_streams_identical(self, family):
        from repro.eager import train_eager_recognizer
        from repro.synth import GestureGenerator

        templates = family_templates(family)
        generator = GestureGenerator(templates, seed=3)
        recognizer = train_eager_recognizer(
            generator.generate_strokes(10)
        ).recognizer
        workload = generate_workload(
            templates, clients=6, gestures_per_client=3, seed=13
        )
        batched, sequential = compare_modes(recognizer, workload)
        assert batched.decision_log == sequential.decision_log
        assert batched.errors == sequential.errors == 0
        assert batched.commits == sequential.commits > 0

    def test_masked_full_classifier_modes_match(self, masked_recognizer):
        """Both modes agree when the full classifier is feature-masked."""
        workload = generate_workload(
            family_templates("directions"), clients=6, gestures_per_client=3,
            seed=19,
        )
        batched, sequential = compare_modes(masked_recognizer, workload)
        assert batched.decision_log == sequential.decision_log
        assert batched.commits > 0

    def test_same_tick_interleaving_matches(self, directions_recognizer):
        """Many strokes advancing in the same submit() batches."""
        for batched in (True, False):
            pool = SessionPool(directions_recognizer, batched=batched)
            keys = [f"k{i}" for i in range(5)]
            log = []
            for tick in range(12):
                t = tick * 0.01
                ops = []
                for j, key in enumerate(keys):
                    if tick == j:  # staggered starts
                        ops.append(("down", key, 5.0 * tick + j, 3.0 * tick))
                    elif j < tick:
                        ops.append(("move", key, 5.0 * tick + j, 3.0 * tick))
                if ops:
                    pool.submit(ops, t)
                log.extend(pool.advance_to(t))
            for key in keys:
                pool.up(key, 99.0, 99.0, 0.2)
            log.extend(pool.advance_to(0.2))
            if batched:
                batched_log = log
            else:
                assert log == batched_log


class TestClockDiscipline:
    """The pool takes exactly one clock reading per tick.

    ``advance_to`` must judge every timeout against the time its own
    advance returned — re-reading ``clock.now`` afterwards could observe
    a later time (a shared clock advanced between the reads) and fire
    the motionless timeout for a stroke created within this very tick.
    """

    def test_advance_never_rereads_the_clock(self, directions_recognizer):
        from repro.events import InstrumentedClock

        clock = InstrumentedClock()
        pool = SessionPool(directions_recognizer, batched=True, clock=clock)
        for tick in range(30):
            t = tick * 0.01
            if tick == 0:
                pool.down("k", 0.0, 0.0, t)
            elif tick < 8:
                pool.move("k", 6.0 * tick, 6.0 * tick, t)
            pool.advance_to(t)
        assert clock.advances == 30
        assert clock.reads == 0, (
            "advance_to read clock.now instead of using its own advance"
        )

    def test_jumpy_clock_cannot_fire_timeouts_early(self, directions_recognizer):
        """A clock whose ``now`` property races ahead between reads.

        Before the single-read fix, the timeout scan re-read ``now`` and
        a fresh same-tick stroke would appear 10 s old — classified by
        timeout with one point.  With the fix, only the advance's return
        value counts, so the stroke lives out its dwell normally.
        """
        from repro.events import VirtualClock

        class JumpyClock(VirtualClock):
            @property
            def now(self) -> float:
                return self._now + 10.0

        pool = SessionPool(
            directions_recognizer, batched=True, clock=JumpyClock()
        )
        decisions = []
        pool.down("k", 0.0, 0.0, 0.0)
        decisions.extend(pool.advance_to(0.0))
        for tick in range(1, 6):
            t = tick * 0.01
            pool.move("k", 6.0 * tick, 6.0 * tick, t)
            decisions.extend(pool.advance_to(t))
        premature = [d for d in decisions if d.kind == "recog"]
        assert not premature, f"timeout fired early: {premature}"
        # The real dwell still fires once virtual time genuinely passes.
        decisions = pool.advance_to(1.0)
        assert [d.kind for d in decisions] == ["recog"]
        assert decisions[0].reason == "timeout"


class TestLongStroke:
    def test_long_undecided_stroke_memory_is_bounded(
        self, directions_recognizer
    ):
        """A 3000-turn undecided stroke grows only its own log.

        A pool-wide log that widened every slot to the longest stroke
        would cost 4096 slots x 3000 turns x 16 bytes (~190 MiB) here;
        the stroke's own products are ~47 KiB.  Its timeout decision,
        which reads the bank's log, still equals the sequential pool's.
        """
        # min_points past the stroke's length: D never fires, so the
        # whole zigzag is logged while the session stays undecided.
        undecided = EagerRecognizer(
            directions_recognizer.full_classifier,
            directions_recognizer.auc,
            min_points=10**6,
        )
        zigzag = [(i * 4.0, (i % 2) * 6.0, i * 0.01) for i in range(3002)]

        def run(pool):
            out = _drive_stroke(pool, "s1", zigzag, up=False)
            out += pool.advance_to(zigzag[-1][2] + 0.3)
            x, y, t = zigzag[-1]
            pool.up("s1", x, y, t + 0.3)
            return out + pool.flush()

        pool = SessionPool(undecided, max_sessions=4096)
        gc.collect()
        tracemalloc.start()
        try:
            batched = run(pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batched == run(SessionPool(undecided, batched=False))
        assert [d.reason for d in batched] == ["timeout", ""]
        assert batched[0].points_seen == len(zigzag)
        assert peak < 1 << 20, peak
