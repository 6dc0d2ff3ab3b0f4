"""A pool of concurrent eager-recognition sessions.

The reproduction's interactive layer runs *one* two-phase interaction at
a time — one mouse, one :class:`~repro.interaction.GestureHandler`.  The
:class:`SessionPool` runs thousands, keyed by an arbitrary stroke id,
with the same semantics per session:

* ``down`` starts a session and contributes the first gesture point
  (exactly as ``GestureHandler.begin`` does);
* ``move`` while undecided contributes a point and may trigger eager
  recognition (the paper's D, then C);
* holding still for ``timeout`` seconds of virtual time classifies the
  prefix collected so far (the paper's 200 ms motionless timeout);
* ``up`` while undecided classifies the full gesture (no point is
  appended for the release, matching ``GestureHandler.end``), and always
  commits — the session ends and its resources are reclaimed;
* input after the decision is the manipulation phase: it refreshes the
  session's activity but emits nothing — the client received the class
  in the ``recog`` decision and applies its gesture semantics locally,
  so echoing every manipulation point back would be pure chatter.

Recognition outcomes are reported as :class:`Decision` values (kinds
``recog``, ``commit``, ``evict``, ``error``); malformed operations
(duplicate ``down``, unknown key, pool exhaustion) produce per-session
``error`` decisions and never disturb other sessions.  :meth:`kill`
force-terminates one session (fault injection's hammer) with an
``evict`` decision, again without touching its neighbours.

The pool is observable but never observes itself: pass an
:class:`~repro.obs.PoolObserver` (or anything with the same hook
methods) as ``observer`` and the pool reports ticks, decisions, session
opens, and batched-evaluation rounds to it.  With ``observer=None`` —
the default — every hook site is a single ``is not None`` test on the
cold side of the branch, so the hot path allocates nothing and runs at
full speed.

Time is virtual throughout (:class:`~repro.events.VirtualClock`):
operations carry timestamps, and :meth:`SessionPool.advance_to` both
applies buffered input and fires motionless timeouts, so identical input
produces identical decision streams on every run.  Timeouts are
evaluated when time advances: buffered operations are applied first,
then any undecided session whose last point is at least ``timeout`` old
fires, its decision stamped at ``last_t + timeout``.

Two execution modes, one contract.  ``batched=False`` advances each
session through its own :class:`~repro.eager.EagerSession` — the
reference path, kept apart from the optimized engine as the oracle the
equivalence suites compare against.  ``batched=True`` keeps all feature
state in a :class:`~repro.serve.bank.FeatureBank` and decides every
session with one matrix product per model per round via
:class:`~repro.serve.batch.BatchEvaluator`; rows the evaluator cannot
*prove* unaffected by vectorization are re-decided here from the bank's
exact feature vector (:meth:`~repro.serve.bank.FeatureBank.quality_vector`,
bit-identical to the scalar path's), so no session stores its points.
The decision streams of the two modes are identical, element for
element.

Hot model swaps (:meth:`SessionPool.swap_model`) bind a key *prefix* —
in serving terms, a user — to a different recognizer.  A session pins
its model when it opens and keeps it until commit, so a swap takes
effect for the user's next stroke, never mid-gesture; every other
session's decision stream is byte-identical to a run without the swap,
because every evaluation groups rows by their pinned model (a
single-model pool is one group) and the evaluator's decisions are
provably independent of batch composition (risky rows fall back to the
exact path).
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

from ..eager import EagerRecognizer, EagerSession
from ..events import VirtualClock
from ..geometry import Point
from ..interaction import DEFAULT_TIMEOUT
from .bank import FeatureBank
from .batch import BatchEvaluator

__all__ = ["DEFAULT_IDLE_TIMEOUT", "Decision", "SessionPool"]

# Sessions that have gone this long without any input are presumed
# abandoned by their client and may be evicted.
DEFAULT_IDLE_TIMEOUT = 30.0

# Motionless-timeout batches smaller than this are decided exactly, row
# by row (SessionPool._exact: the bank's exact vector, then the full
# classifier), instead of by one fused evaluation.  Measured on the
# GDP recognizer (18 AUC and 11 full-classifier classes) on a 2-vCPU
# x86 VM: a fused timeout evaluation cost 70-80 us plus ~1 us per row,
# an exact decision 18-24 us per row, so exact wins up to three rows.
_EXACT_TIMEOUT_ROWS = 4

# Entry tags used inside a processing round (see _run_round).
_ERROR, _DECIDED, _FINISH, _COMMIT, _KILL, _RELEASE = 0, 1, 2, 3, 4, 5


class _Slotted:
    """Base of the serving layer's plain records (:class:`Decision`, and
    the protocol's ``Request``): equality, hashing and a dataclass-style
    repr over ``__slots__``.  The hot path builds one record per op or
    decision, and a frozen dataclass costs about three times as much to
    build."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join(
                f"{name}={getattr(self, name)!r}" for name in self.__slots__
            ),
        )


class Decision(_Slotted):
    """One event on a session's output stream."""

    __slots__ = (
        "key",
        "kind",
        "t",
        "class_name",
        "eager",
        "points_seen",
        "total_points",
        "reason",
    )

    def __init__(
        self,
        key: str,
        kind: str,  # "recog" | "commit" | "evict" | "error"
        t: float,
        class_name: str | None = None,
        eager: bool = False,
        points_seen: int = 0,
        total_points: int = 0,
        reason: str = "",
    ):
        self.key = key
        self.kind = kind
        self.t = t
        self.class_name = class_name
        self.eager = eager
        self.points_seen = points_seen
        self.total_points = total_points
        self.reason = reason


class _PoolModel:
    """One recognizer resident in the pool, with its batched evaluator.

    Sessions reference a ``_PoolModel`` (pinned at open), and swaps to
    the same recognizer object share one instance — many users swapping
    to one registry-cached candidate cost one evaluator, not N.
    ``index`` is unique per instance; the batched pool records it per
    slot to group evaluation rows by model.
    """

    __slots__ = ("recognizer", "evaluator", "label", "index")

    def __init__(
        self, recognizer: EagerRecognizer, evaluator, label: str, index: int
    ):
        self.recognizer = recognizer
        self.evaluator = evaluator
        self.label = label
        self.index = index


class _Session:
    """Mutable per-stroke state; gesture points stop at the decision."""

    __slots__ = (
        "key",
        "slot",
        "first_t",
        "eseq",
        "decided",
        "class_name",
        "eager",
        "decided_points",
        "count",
        "manip",
        "last_t",
        "stamp",
        "model",
    )

    def __init__(self, key: str, t: float):
        self.key = key
        self.stamp = 0
        self.model: _PoolModel | None = None
        self.slot: int | None = None
        self.first_t = t  # the press point's time: dwell is measured from it
        self.eseq: EagerSession | None = None
        self.decided = False
        self.class_name: str | None = None
        self.eager = False
        self.decided_points = 0
        self.count = 0
        # Manipulation-phase samples after the decision: together with
        # decided_points this is the whole stroke — the denominator of
        # the paper's eagerness measure (quality telemetry only; the
        # Decision stream still reports gesture points).
        self.manip = 0
        self.last_t = t


class SessionPool:
    """Thousands of concurrent eager recognitions over one recognizer."""

    def __init__(
        self,
        recognizer: EagerRecognizer,
        *,
        clock: VirtualClock | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_sessions: int = 4096,
        batched: bool = True,
        observer=None,
        max_models: int | None = None,
        model_loader=None,
    ):
        self.recognizer = recognizer
        self.clock = clock if clock is not None else VirtualClock()
        self.timeout = timeout
        self.max_sessions = max_sessions
        self.batched = batched
        self.observer = observer
        # Optional extensions carried by the observer (duck-typed, both
        # default-off): a QualityMonitor fed each decision's features,
        # and a PerfProfiler timing the hot sections.  Cached here so the
        # hook sites stay one `is not None` test each.
        self._quality = getattr(observer, "quality", None)
        self._profiler = getattr(observer, "profiler", None)
        # Hot-swap hook, optional like the extensions above.
        self._on_swap = getattr(observer, "model_swapped", None)
        self._sessions: dict[str, _Session] = {}
        # Insertion-ordered view of sessions still collecting a gesture:
        # the motionless-timeout scan never visits decided sessions.
        self._undecided: dict[str, _Session] = {}
        self._bank = FeatureBank(max_sessions) if batched else None
        # Model table for hot swaps.  `_assign` maps a key prefix to the
        # model its new sessions pin; `_model_cache` (keyed by recognizer
        # object identity) shares one evaluator across prefixes swapped
        # to the same recognizer.
        self._models_made = 0
        self._default_model = self._new_model(recognizer, "")
        self._model_cache: dict[int, _PoolModel] = {
            id(recognizer): self._default_model
        }
        self._assign: dict[str, _PoolModel | str] = {}
        # Bound on *swapped-in* models resident at once (the default
        # model is never counted or evicted).  Past the bound the
        # least-recently-used model is dropped and its prefix
        # assignments degrade to label strings; `_model_for` reloads a
        # marker through `model_loader` (label -> recognizer) on the
        # next session open, so eviction never changes a decision —
        # registry models are content-addressed and reload bit-equal.
        if max_models is not None and model_loader is None:
            raise ValueError("max_models needs a model_loader to reload from")
        self._max_models = max_models
        self._model_loader = model_loader
        self.model_evictions = 0
        # One-shot model pins consumed at the key's next session open —
        # how a migrated-in session keeps the model it originally
        # opened under, regardless of swaps applied here since.
        self._pins: dict[str, _PoolModel] = {}
        # Per-slot tables, so the candidate scan after a batched tick
        # works without any per-operation bookkeeping: the session, its
        # model's min_points (the eager prefilter is exact per slot), and
        # its model's index (rows group by model without a Python loop).
        self._slot_session: list = [None] * max_sessions if batched else []
        self._slot_min = np.zeros(max_sessions if batched else 0)
        self._slot_model = np.zeros(max_sessions if batched else 0, np.intp)
        self._ops: list[tuple] = []  # (t, ops-chunk) pairs
        self._round_id = 0
        # Lower bound on any undecided session's last activity: the
        # motionless-timeout scan can be skipped entirely while
        # ``now - timeout`` has not reached it (it may be stale-low,
        # which only costs a scan, never misses one).
        self._scan_floor = float("inf")

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, key: str) -> bool:
        return key in self._sessions

    # -- buffered input ------------------------------------------------------

    def down(self, key: str, x: float, y: float, t: float) -> None:
        """Button press: start the session keyed ``key``."""
        self._ops.append((t, (("down", key, x, y),)))

    def move(self, key: str, x: float, y: float, t: float) -> None:
        """Mouse sample for an existing session."""
        self._ops.append((t, (("move", key, x, y),)))

    def up(self, key: str, x: float, y: float, t: float) -> None:
        """Button release: decide if needed, then commit and end."""
        self._ops.append((t, (("up", key, x, y),)))

    def kill(self, key: str, t: float) -> None:
        """Force-terminate session ``key`` at ``t`` (fault injection).

        The session is dropped with an ``evict`` decision (reason
        ``"killed"``); killing a key with no session is a silent no-op,
        so fault schedules need not know which strokes are still alive.
        Ordered with the other buffered operations: input for the key
        already buffered ahead of the kill is still applied first.
        """
        self._ops.append((t, (("kill", key, 0.0, 0.0),)))

    def release(self, key: str, t: float) -> None:
        """Silently forget session ``key`` (live migration handoff).

        Unlike :meth:`kill` no decision is emitted — the session now
        lives elsewhere and its byte stream must come from there alone.
        Ordered with the other buffered operations; releasing a key
        with no session is a silent no-op.
        """
        self._ops.append((t, (("release", key, 0.0, 0.0),)))

    def pin(self, key: str, recognizer, t: float, label: str = "") -> None:
        """One-shot model pin for ``key``'s *next* session open.

        The pin binds exactly one future session of exactly this key to
        ``recognizer`` (``None`` pins the default model), overriding the
        prefix assignments a :meth:`swap_model` would consult, then
        expires.  Buffered and ordered like every other operation.
        """
        self._ops.append((t, (("pin", key, recognizer, label),)))

    def swap_model(
        self,
        prefix: str,
        recognizer: EagerRecognizer,
        t: float,
        label: str = "",
    ) -> None:
        """Bind every session key starting with ``prefix`` to ``recognizer``.

        Buffered and ordered with the other operations: the swap takes
        effect at its position in the input sequence, for sessions that
        *open* from then on.  Sessions already in flight — with or
        without buffered input ahead of the swap — finish on the model
        they pinned at open, so no gesture is ever judged by two
        different classifiers.  The longest matching prefix wins when
        several bind one key; swapping the empty prefix rebinds every
        future session.  ``label`` is carried to the observer's
        ``model_swapped`` hook (e.g. the registry ``name@version``).
        """
        self._ops.append((t, (("swap", prefix, recognizer, label),)))

    def submit(self, ops, t: float) -> None:
        """Bulk-submit one tick of ``(kind, key, x, y)`` operations at ``t``.

        Equivalent to calling :meth:`down`/:meth:`move`/:meth:`up` once
        per element, without the per-operation overhead — the shape load
        generators and replay drivers want.
        """
        self._ops.append((t, ops))

    # -- processing ----------------------------------------------------------

    def flush(self) -> list[Decision]:
        """Apply all buffered operations; return the decisions they caused.

        Input is consumed in *rounds* of at most one operation per
        session, in arrival order — the batched tick feeds each feature
        slot at most one point, exactly like the per-session loop; a
        session's second operation waits for the next round — and
        decisions are emitted in that same order in both modes.
        """
        out = self._drain()
        obs = self.observer
        if obs is not None and out:
            obs.decisions(out)
        return out

    def _drain(self) -> list[Decision]:
        """Run buffered operations to completion (no observer callout)."""
        out: list[Decision] = []
        chunks = self._ops
        self._ops = []
        obs = self.observer
        if obs is not None:
            obs.tick(
                sum(len(chunk) for _, chunk in chunks),
                len(chunks),
                len(self._sessions),
            )
        while chunks:
            chunks = self._run_round(chunks, out)
        return out

    def advance_to(self, t: float) -> list[Decision]:
        """Apply buffered input, move virtual time to ``t``, fire timeouts."""
        out = self._drain()
        # One clock read per tick: the advance's return value is the
        # `now` every timeout below is judged against.  Re-reading the
        # clock here could observe a later time (a shared clock advanced
        # between the two reads) and fire timeouts for sessions created
        # within this very tick before their dwell has elapsed.
        now = self.clock.advance_to(t)
        horizon = now - self.timeout
        if horizon < self._scan_floor:
            obs = self.observer
            if obs is not None and out:
                obs.decisions(out)
            return out
        expired = []
        floor = float("inf")
        for s in self._undecided.values():
            if s.last_t <= horizon:
                expired.append(s)
            elif s.last_t < floor:
                floor = s.last_t
        self._scan_floor = floor
        if expired:
            self._time_out(expired, out)
        obs = self.observer
        if obs is not None and out:
            obs.decisions(out)
        return out

    def expire(self, key: str, t: float) -> list[Decision]:
        """Apply buffered input, then fire ``key``'s motionless timeout
        if it is due at ``t``, without moving the clock.

        Live migration replays a session's journal into a pool whose
        clock already stands past the journal's clock markers; judging
        the session against each marker's own ``t`` walks the decision
        path it walked where it came from.  No other session is judged.
        """
        out = self._drain()
        session = self._undecided.get(key)
        if session is not None and session.last_t <= t - self.timeout:
            self._time_out([session], out)
        obs = self.observer
        if obs is not None and out:
            obs.decisions(out)
        return out

    def _time_out(self, expired: list, out: list[Decision]) -> None:
        """Decide ``expired`` undecided sessions by motionless timeout."""
        quality = self._quality
        if self.batched:
            if len(expired) < _EXACT_TIMEOUT_ROWS:
                # Decided, not fallen back: counted in batch.rows only.
                n_fallbacks = 0
                names = [
                    self._exact(
                        s.slot,
                        s.model.recognizer.full_classifier.classify_features,
                    )
                    for s in expired
                ]
            else:
                slots = np.array([s.slot for s in expired], np.int64)
                _, names, n_fallbacks = self._evaluate(
                    self._bank.take(slots), slots, 0
                )
            obs = self.observer
            if obs is not None:
                obs.timeout_round(len(expired), n_fallbacks)
        else:
            names = [s.eseq.finish() for s in expired]
        for session, name in zip(expired, names):
            self._decide(session, name, eager=False)
            decision = self._record(
                session, "recog", session.last_t + self.timeout, "timeout"
            )
            out.append(decision)
            if quality is not None:
                quality.decided(
                    session.first_t, decision, self._quality_vector(session)
                )

    def evict_idle(self, max_idle: float = DEFAULT_IDLE_TIMEOUT) -> list[Decision]:
        """Drop sessions with no input for ``max_idle`` seconds of virtual time."""
        out = self._drain()
        now = self.clock.now
        stale = [
            s for s in self._sessions.values() if now - s.last_t >= max_idle
        ]
        for session in stale:
            out.append(self._evict(session, now, "idle"))
        obs = self.observer
        if obs is not None and out:
            obs.decisions(out)
        return out

    # -- one round -----------------------------------------------------------

    def _run_round(self, chunks: list[tuple], out: list[Decision]) -> list[tuple]:
        """Process one round of chunked input; return the deferred chunks.

        First pass, in arrival order: lifecycle + feeds.  The hot path
        (a move on an undecided session) is kept as lean as possible;
        anything that will emit a decision is recorded with its round
        position so the emission pass can interleave eager decisions
        with ups/errors in exact arrival order.  A session that already
        consumed an operation this round (its ``stamp`` matches) has the
        rest of its operations deferred to the next round.
        """
        sessions = self._sessions
        batched = self.batched
        stamp = self._round_id = self._round_id + 1
        sget = sessions.get
        obs = self.observer
        # Entries interleave with feeds in arrival order; each records
        # how many feeds preceded it, which is all the emission pass
        # needs to restore exact arrival order (an operation is either
        # a feed or an entry, never both).
        entries: list[tuple] = []  # (feeds-before, tag, ...)
        fed_slots: list[int] = []
        fed_x, fed_y, fed_t = [], [], []  # the fed points' coordinates
        fed_append = fed_slots.append
        x_append = fed_x.append
        y_append = fed_y.append
        finish_sessions: list[_Session] = []
        deferred: list[tuple] = []

        for t, chunk in chunks:
            later: list | None = None
            n_fed = len(fed_slots)
            for op in chunk:
                kind, key, x, y = op
                if kind == "swap":
                    # x = recognizer, y = label (see swap_model); applied
                    # at this position in arrival order, so the swap
                    # governs sessions opened from here on.
                    self._apply_swap(key, x, y, t)
                    continue
                if kind == "pin":
                    # x = recognizer (None = default), y = label.
                    self._apply_pin(key, x, y)
                    continue
                session = sget(key)
                if session is None:
                    if kind != "down":
                        # killing or releasing a dead key: no-op
                        if kind != "kill" and kind != "release":
                            entries.append(
                                (len(fed_slots), _ERROR, key, t, "unknown stroke")
                            )
                        continue
                    if len(sessions) >= self.max_sessions:
                        entries.append(
                            (len(fed_slots), _ERROR, key, t, "pool full")
                        )
                        continue
                    session = _Session(key, t)
                    session.stamp = stamp
                    pinned = self._pins.pop(key, None) if self._pins else None
                    model = session.model = (
                        pinned if pinned is not None else self._model_for(key)
                    )
                    if batched:
                        slot = session.slot = self._bank.open_slot()
                        self._slot_session[slot] = session
                        self._slot_min[slot] = model.recognizer.min_points
                        self._slot_model[slot] = model.index
                    else:
                        session.eseq = model.recognizer.session()
                    sessions[key] = session
                    self._undecided[key] = session
                    if t < self._scan_floor:
                        self._scan_floor = t
                    if obs is not None:
                        obs.session_started(key, t)
                elif session.stamp != stamp:
                    session.stamp = stamp
                    if session.decided:
                        if kind == "up":
                            entries.append(
                                (len(fed_slots), _COMMIT, session, t)
                            )
                        elif kind == "kill":
                            entries.append(
                                (len(fed_slots), _KILL, session, t)
                            )
                        elif kind == "release":
                            entries.append(
                                (len(fed_slots), _RELEASE, session, t)
                            )
                        else:
                            # Manipulation phase: refresh activity and
                            # count the sample toward the whole stroke.
                            session.last_t = t
                            session.manip += 1
                        continue
                    if kind != "move":
                        if kind == "up":
                            finish_sessions.append(session)
                            entries.append(
                                (len(fed_slots), _FINISH, session, t)
                            )
                        elif kind == "kill":
                            entries.append(
                                (len(fed_slots), _KILL, session, t)
                            )
                        elif kind == "release":
                            entries.append(
                                (len(fed_slots), _RELEASE, session, t)
                            )
                        else:
                            entries.append(
                                (
                                    len(fed_slots),
                                    _ERROR,
                                    key,
                                    t,
                                    "duplicate down",
                                )
                            )
                        continue
                else:
                    if later is None:
                        later = []
                        deferred.append((t, later))
                    later.append(op)
                    continue

                # A gesture point: a down's press point or an undecided move.
                session.last_t = t
                if batched:
                    fed_append(session.slot)
                    x_append(x)
                    y_append(y)
                else:
                    session.count = session.count + 1
                    decided = session.eseq.add_point(Point(x, y, t))
                    if decided is not None:
                        entries.append(
                            (len(fed_slots), _DECIDED, session, t, decided)
                        )
            # A chunk's points share its t.
            fed_t += [t] * (len(fed_slots) - n_fed)

        # Batched math: one vectorized tick, then one evaluation over
        # every eager candidate (a fed session with at least its model's
        # min_points — found from the tick's counts, not per-operation
        # bookkeeping) and every finishing session.
        unamb_rows: list[int] = []
        cand = None  # candidates' indices into the fed arrays
        names: list[str] = []
        if batched:
            timing = obs is not None
            prof = self._profiler
            t_start = perf_counter() if timing else 0.0
            n_fallbacks = 0
            n_rows = 0
            n_eager = 0
            block = None
            if fed_slots:
                # array() converts in one C loop; frombuffer adds no copy.
                slot_arr = np.frombuffer(array("q", fed_slots), np.int64)
                t_feed = perf_counter() if prof is not None else 0.0
                block, counts = self._bank.add_points(
                    slot_arr,
                    np.frombuffer(array("d", fed_x + fed_y + fed_t)).reshape(
                        3, -1
                    ),
                )
                if prof is not None:
                    prof.add(
                        "feature_update",
                        perf_counter() - t_feed,
                        len(fed_slots),
                    )
                cand = np.flatnonzero(counts >= self._slot_min[slot_arr])
                n_eager = len(cand)
                if n_eager < len(fed_slots):
                    # Candidates' columns come from the tick's own block.
                    block = np.take(block, cand, axis=1)
                    slot_arr = slot_arr[cand]
            if n_eager or finish_sessions:
                if finish_sessions:
                    done = np.array([s.slot for s in finish_sessions], np.int64)
                    done_block = self._bank.take(done)
                    if n_eager:
                        block = np.concatenate([block, done_block], axis=1)
                        slot_arr = np.concatenate([slot_arr, done])
                    else:
                        block, slot_arr = done_block, done
                unamb_rows, names, n_fallbacks = self._evaluate(
                    block, slot_arr, n_eager
                )
                n_rows = len(slot_arr)
            if timing and (fed_slots or n_rows):
                obs.batch_round(
                    len(fed_slots), n_rows, n_fallbacks, perf_counter() - t_start
                )

        # Emission pass: merge eager decisions with the recorded entries
        # back into exact arrival order.  Candidate j's feed index is
        # cand[j]; an entry recorded after f feeds precedes feed f.
        entry_i = 0
        n_entries = len(entries)
        next_finish = iter(names[len(unamb_rows):])
        quality = self._quality
        table = self._slot_session
        for k, j in enumerate(unamb_rows):
            p = cand[j]
            while entry_i < n_entries and entries[entry_i][0] <= p:
                self._emit(entries[entry_i], out, next_finish)
                entry_i += 1
            session = table[fed_slots[p]]
            self._decide(session, names[k], eager=True)
            decision = self._record(session, "recog", session.last_t, "eager")
            out.append(decision)
            if quality is not None:
                quality.decided(
                    session.first_t,
                    decision,
                    self._bank.quality_state(session.slot),
                )
        while entry_i < n_entries:
            self._emit(entries[entry_i], out, next_finish)
            entry_i += 1
        return deferred

    def _emit(self, entry: tuple, out: list[Decision], next_finish) -> None:
        """Emit one recorded round entry in arrival-order position."""
        tag = entry[1]
        quality = self._quality
        if tag == _ERROR:
            _, _, key, t, reason = entry
            out.append(Decision(key=key, kind="error", t=t, reason=reason))
        elif tag == _DECIDED:
            _, _, session, t, name = entry
            self._decide(session, name, eager=True)
            decision = self._record(session, "recog", t, "eager")
            out.append(decision)
            if quality is not None:
                quality.decided(
                    session.first_t, decision, session.eseq.feature_vector
                )
        elif tag == _FINISH:
            _, _, session, t = entry
            if self.batched:
                name = next(next_finish)
            else:
                name = session.eseq.finish()
            self._decide(session, name, eager=False)
            decision = self._record(session, "recog", t, "up")
            out.append(decision)
            if quality is not None:
                quality.decided(
                    session.first_t, decision, self._quality_vector(session)
                )
            self._remove(session)
            out.append(self._record(session, "commit", t))
        elif tag == _COMMIT:
            _, _, session, t = entry
            self._remove(session)
            out.append(self._record(session, "commit", t))
        elif tag == _KILL:
            _, _, session, t = entry
            out.append(self._evict(session, t, "killed"))
        else:  # _RELEASE: the session migrated away — forget, emit nothing
            self._remove(entry[2])

    # -- helpers -------------------------------------------------------------

    def _resident_model(
        self, recognizer: EagerRecognizer, label: str
    ) -> _PoolModel:
        """The shared ``_PoolModel`` for ``recognizer``, LRU-maintained."""
        cache = self._model_cache
        model = cache.get(id(recognizer))
        if model is None:
            model = cache[id(recognizer)] = self._new_model(recognizer, label)
            self._evict_models()
        else:
            model.label = label
            if self._max_models is not None and model is not self._default_model:
                # Refresh recency: dict order is the LRU order.
                cache[id(recognizer)] = cache.pop(id(recognizer))
        return model

    def _new_model(self, recognizer: EagerRecognizer, label: str) -> _PoolModel:
        evaluator = None
        if self.batched:
            evaluator = BatchEvaluator(recognizer)
            evaluator.profiler = self._profiler
        self._models_made += 1
        return _PoolModel(recognizer, evaluator, label, self._models_made)

    def _evict_models(self) -> None:
        """Drop least-recently-used swapped-in models past the bound.

        Assignments to an evicted model degrade to its label string;
        :meth:`_model_for` reloads the label through ``model_loader`` on
        the next session open.  Sessions in flight keep their direct
        model reference, so eviction never touches a live gesture.
        """
        bound = self._max_models
        if bound is None:
            return
        cache = self._model_cache
        default = self._default_model
        while len(cache) - (id(self.recognizer) in cache) > bound:
            victim = None
            for mid, model in cache.items():
                if model is not default:
                    victim = (mid, model)
                    break
            if victim is None:
                return
            mid, model = victim
            del cache[mid]
            self.model_evictions += 1
            for prefix, assigned in self._assign.items():
                if assigned is model:
                    self._assign[prefix] = model.label

    def _apply_swap(
        self, prefix: str, recognizer: EagerRecognizer, label: str, t: float
    ) -> None:
        self._assign[prefix] = self._resident_model(recognizer, label)
        if self._on_swap is not None:
            self._on_swap(prefix, label, t)

    def _apply_pin(self, key: str, recognizer, label: str) -> None:
        if recognizer is None:
            self._pins[key] = self._default_model
            return
        self._pins[key] = self._resident_model(recognizer, label)

    def _model_for(self, key: str) -> _PoolModel:
        """The model a session opening under ``key`` pins (longest prefix)."""
        best: _PoolModel | str = self._default_model
        best_len = -1
        for prefix, model in self._assign.items():
            if len(prefix) > best_len and key.startswith(prefix):
                best, best_len = model, len(prefix)
        if type(best) is str:
            # An evicted assignment: reload the label and re-materialize
            # every prefix that degraded to it.
            recognizer = self._model_loader(best)
            model = self._resident_model(recognizer, best)
            for prefix, assigned in self._assign.items():
                if assigned == best and type(assigned) is str:
                    self._assign[prefix] = model
            return model
        if self._max_models is not None and best is not self._default_model:
            cache = self._model_cache
            mid = id(best.recognizer)
            if mid in cache:
                cache[mid] = cache.pop(mid)
        return best

    def _decide(self, session: _Session, name: str, eager: bool) -> None:
        if self.batched:
            # Batched feeds don't maintain the per-session counter; the
            # bank's count (points fed so far) is materialized into the
            # session at decision time, after which it never changes —
            # manipulation-phase input is not counted in either mode.
            session.count = self._bank.count_of(session.slot)
        session.decided = True
        session.class_name = name
        session.eager = eager
        session.decided_points = session.count
        self._undecided.pop(session.key, None)

    def _record(
        self, session: _Session, kind: str, t: float, reason: str = ""
    ) -> Decision:
        return Decision(
            key=session.key,
            kind=kind,
            t=t,
            class_name=session.class_name,
            eager=session.eager,
            points_seen=session.decided_points,
            total_points=session.count,
            reason=reason,
        )

    def _evict(self, session: _Session, t: float, reason: str) -> Decision:
        """Drop a session at ``t`` (killed or idle) and report it."""
        if self.batched and not session.decided:
            session.count = self._bank.count_of(session.slot)
        self._remove(session)
        return self._record(session, "evict", t, reason)

    def _remove(self, session: _Session) -> None:
        """Forget a session that reached a terminal event."""
        del self._sessions[session.key]
        self._undecided.pop(session.key, None)
        if session.slot is not None:
            self._slot_session[session.slot] = None
            self._bank.close_slot(session.slot)
            session.slot = None
        if self._quality is not None:
            # The whole stroke: the eagerness measure's denominator.
            self._quality.closed(
                session.key, session.decided_points + session.manip
            )

    def _quality_vector(self, session: _Session):
        """The decided prefix's feature snapshot, without a scalar replay.

        Batched mode reads the bank's turn-product log as a raw
        accumulator tuple (O(1) per call; the monitor assembles it
        lazily); sequential mode reads the eager session's own
        incremental vector.  Both are bit-identical to a scalar replay
        of the prefix once assembled — that identity is what lets
        :class:`~repro.obs.QualityMonitor` stay attached in production
        without re-walking every decided prefix.
        """
        if self.batched:
            return self._bank.quality_state(session.slot)
        return session.eseq.feature_vector

    def _evaluate(
        self, block: np.ndarray, slots: np.ndarray, n_eager: int
    ) -> tuple[list[int], list[str], int]:
        """Decide the bank slots ``slots``, whose state columns are
        ``block`` (from :meth:`FeatureBank.add_points` or ``take``).

        The first ``n_eager`` rows are eager candidates: the paper's D
        (the AUC) judges each, and C (the full classifier) names the
        unambiguous ones.  Every later row is named outright.  Rows are
        grouped by the model their session pinned — one fused product
        per group, and no grouping at all while the pool has only ever
        held its default model.  The evaluator's decisions never depend
        on which other rows share a batch, so grouping cannot change a
        decision; risky verdicts are re-decided exactly.

        Returns ``(unambiguous, names, fallbacks)``: the unambiguous
        candidates' row indices, the class names of those rows followed
        by the later rows', and the number of exact fallbacks.
        """
        features, counts, guard_risk = FeatureBank.features(block)
        table = self._slot_session
        ids = None if self._models_made == 1 else self._slot_model[slots]
        if ids is None or (ids == ids[0]).all():
            unambiguous, auc_risky, winners, full_risky = (
                table[slots[0]].model.evaluator.combined_decisions(
                    features, counts, guard_risk
                )
            )
        else:
            n = len(slots)
            unambiguous = np.zeros(n, dtype=bool)
            auc_risky = np.zeros(n, dtype=bool)
            winners = np.zeros(n, dtype=np.intp)
            full_risky = np.zeros(n, dtype=bool)
            for index in np.unique(ids).tolist():
                idx = np.flatnonzero(ids == index)
                (
                    unambiguous[idx],
                    auc_risky[idx],
                    winners[idx],
                    full_risky[idx],
                ) = table[slots[idx[0]]].model.evaluator.combined_decisions(
                    features[idx], counts[idx], guard_risk[idx]
                )
        redo = np.flatnonzero(auc_risky[:n_eager]).tolist()
        for i in redo:
            slot = int(slots[i])
            decide = table[slot].model.recognizer.auc.is_unambiguous
            unambiguous[i] = self._exact(slot, decide)
        unamb_rows = np.flatnonzero(unambiguous[:n_eager]).tolist()
        fallbacks = len(redo)
        names = []
        for i in unamb_rows + list(range(n_eager, len(slots))):
            model = table[slots[i]].model
            if full_risky[i]:
                fallbacks += 1
                decide = model.recognizer.full_classifier.classify_features
                names.append(self._exact(int(slots[i]), decide))
            else:
                names.append(model.evaluator.full_names[winners[i]])
        return unamb_rows, names, fallbacks

    def _exact(self, slot: int, decide):
        """``decide`` on the slot's exact feature vector, read from the
        bank's log (one exact decision, profiled when attached)."""
        prof = self._profiler
        t_start = perf_counter() if prof is not None else 0.0
        verdict = decide(self._bank.quality_vector(slot))
        if prof is not None:
            prof.add("exact_fallback", perf_counter() - t_start)
        return verdict
