"""Differential fuzzing: cluster vs single pool, under randomized chaos.

Hypothesis drives randomized workloads — interleaved strokes, barriers,
mid-run sweeps, model swaps, worker crashes, graceful drains, elastic
joins and scale ops (live session migration), malformed lines, and
connection churn — through an in-process cluster (a real router in
front of real ``GestureServer`` workers, see
``tests/cluster/inproc.py``) and asserts the reply streams are
*byte-identical* to a scripted single-``SessionPool`` reference.  The
reference is fault-agnostic: crashes, drains, scales, and churn appear
nowhere in it (beyond their one-line admin acks), which **is** the
invariant.

The example budget follows the hypothesis profile: the ambient ``ci``
profile (registered in ``tests/conftest.py``) keeps the suite bounded
for tier-1 runs; ``pytest --hypothesis-profile=deep`` turns the fuzzer
loose for long soak runs.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import workload_ticks
from repro.serve import ModelRegistry, generate_workload
from repro.synth import gdp_templates

from .inproc import InProcessCluster, drive_script, reference_script
from .test_cluster import DT, assert_byte_identical, end_time

# Raw lines for the router's json/error paths: unparseable bytes, a
# non-object, an unknown op, a missing field, a late hello, a bad
# max_idle, and a non-finite x in canonical and in compact form (both
# match the router's op grammar; only the finiteness check refuses
# them).  Expected replies are *derived* (inproc._non_op_reply), not
# hand-written, so these stay in lockstep with the protocol module.
BAD_LINES = (
    "not json",
    "[1, 2, 3]",
    '{"op": "zap"}',
    '{"op": "down", "stroke": "q", "x": 1, "y": 2}',
    '{"op": "hello", "framing": "lp1"}',
    '{"op": "sweep", "max_idle": -1}',
    '{"op": "down", "stroke": "q", "x": 1e400, "y": 2.0, "t": 0.5}',
    '{"op":"down","stroke":"q","x":1e400,"y":2.0,"t":0.5}',
)


@pytest.fixture(scope="session")
def diff_registry(tmp_path_factory, cluster_recognizer, gdp_recognizer):
    """Two genuinely different published models, so a misapplied or
    lost swap changes decision bytes and fails the diff."""
    registry = ModelRegistry(tmp_path_factory.mktemp("diff-registry"))
    registry.publish("gdp", cluster_recognizer)
    registry.publish("alt", gdp_recognizer)
    return registry


@st.composite
def cluster_cases(draw):
    workers = draw(st.integers(min_value=2, max_value=3))
    clients = draw(st.integers(min_value=2, max_value=3))
    crash = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.floats(min_value=0.1, max_value=0.9),
                st.integers(min_value=0, max_value=workers - 1),
            ),
        )
    )
    drain = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.floats(min_value=0.2, max_value=0.8),
                st.integers(min_value=0, max_value=workers - 1),
            ),
        )
    )
    if crash is not None and drain is not None and crash[1] == drain[1]:
        # Crashing a shard mid-drain would "restart" a retired worker —
        # a scenario the supervisor never produces.
        drain = None
    join = draw(
        st.one_of(st.none(), st.floats(min_value=0.1, max_value=0.9))
    )
    scale = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.floats(min_value=0.2, max_value=0.8),
                st.integers(min_value=1, max_value=workers + 2),
            ),
        )
    )
    if scale is not None:
        # The end-of-script wait needs an unambiguous fleet target, so
        # a scale op excludes the other topology events; and a
        # scale-down may retire exactly the shard a crash targets — a
        # "restart the retired" scenario the supervisor never produces.
        join = None
        if drain is not None or (scale[1] < workers and crash is not None):
            scale = None
    swap = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.floats(min_value=0.1, max_value=0.9),
                st.integers(min_value=0, max_value=clients - 1),
                st.sampled_from(["gdp", "alt"]),
            ),
        )
    )
    return {
        "workers": workers,
        "clients": clients,
        "gestures": draw(st.integers(min_value=1, max_value=2)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "crash": crash,
        "drain": drain,
        "join": join,
        "scale": scale,
        "swap": swap,
        "bads": draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.0, max_value=1.0),
                    st.sampled_from(BAD_LINES),
                ),
                max_size=2,
            )
        ),
        "sweeps": draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.1, max_value=0.9),
                    st.sampled_from([1e9, 0.5, 0.05]),
                ),
                max_size=2,
            )
        ),
        "churn": draw(
            st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=1)
        ),
        "rawop_at": draw(
            st.one_of(st.none(), st.floats(min_value=0.1, max_value=0.8))
        ),
    }


def build_script(case, ticks, end_t):
    """Weave the case's chaos events into the workload's tick stream."""
    n = len(ticks)
    inject: dict[int, list] = {}

    def at(frac: float, event) -> None:
        inject.setdefault(min(int(frac * n), n - 1), []).append(event)

    for frac in case["churn"]:
        at(frac, ("churn",))
    for frac, line in case["bads"]:
        at(frac, ("raw", line))
    if case["rawop_at"] is not None:
        i = min(int(case["rawop_at"] * n), n - 1)
        t = ticks[i][0]
        # *Valid* ops in non-canonical form: reordered keys take the
        # router's json path, compact separators its op grammar; both
        # are re-encoded canonically and must still match.
        at(
            case["rawop_at"],
            ("raw", '{"t": %r, "op": "down", "stroke": "zz", "x": 4.0, "y": 5.0}' % t),
        )
        at(
            case["rawop_at"],
            ("raw", '{"op":"down","stroke":"zy","x":4,"y":5.0,"t":%r}' % t),
        )
    for frac, max_idle in case["sweeps"]:
        at(frac, ("sweep", max_idle))
    if case["swap"] is not None:
        frac, ci, model = case["swap"]
        i = min(int(frac * n), n - 1)
        at(frac, ("swap", f"c{ci}", model, ticks[i][0]))
    if case["crash"] is not None:
        frac, wi = case["crash"]
        at(frac, ("crash", f"w{wi}"))
    if case["drain"] is not None:
        frac, wi = case["drain"]
        at(frac, ("drain", f"w{wi}"))
    if case["join"] is not None:
        at(case["join"], ("join",))
    if case["scale"] is not None:
        frac, target = case["scale"]
        at(frac, ("scale", target))

    script = []
    for i, (t, group) in enumerate(ticks):
        script.extend(inject.get(i, ()))
        script.append(("ops", t, group))
        script.append(("tick", t))
    script.append(("tick", end_t))
    script.append(("sweep", 0.0))
    if case["drain"] is not None:
        script.append(("wait_retired", f"w{case['drain'][1]}"))
    if case["scale"] is not None:
        # Block until the async scale task converged: every migration
        # it plans is then enqueued ahead of the stats barrier.
        script.append(("wait_workers", case["scale"][1]))
    return script


def _run_case(case, recognizer, registry) -> None:
    workload = generate_workload(
        gdp_templates(),
        clients=case["clients"],
        gestures_per_client=case["gestures"],
        seed=case["seed"],
    )
    ticks = workload_ticks(workload, dt=DT)
    end_t = end_time(ticks)
    script = build_script(case, ticks, end_t)
    expected = reference_script(recognizer, script, registry=registry)

    async def run():
        async with InProcessCluster(
            recognizer, case["workers"], registry=registry
        ) as cluster:
            return await drive_script(cluster, script)

    replies = asyncio.run(run())
    assert_byte_identical(replies, expected)


@given(case=cluster_cases())
def test_differential_cluster_vs_pool(case, cluster_recognizer, diff_registry):
    _run_case(case, cluster_recognizer, diff_registry)


def test_differential_pilot(cluster_recognizer, diff_registry):
    """One fixed, everything-at-once case that always runs: a crash, a
    drain, a swap, malformed and non-finite lines, compact and
    reordered ops, churn, and a mid-run sweep in a single script.
    Debuggable without hypothesis."""
    case = {
        "workers": 3,
        "clients": 3,
        "gestures": 2,
        "seed": 23,
        "crash": (0.35, 1),
        "drain": (0.6, 2),
        "join": 0.45,
        "scale": None,
        "swap": (0.25, 0, "alt"),
        "bads": [
            (0.15, BAD_LINES[0]),
            (0.55, BAD_LINES[6]),
            (0.7, BAD_LINES[4]),
        ],
        "sweeps": [(0.5, 1e9)],
        "churn": [0.4],
        "rawop_at": 0.3,
    }
    _run_case(case, cluster_recognizer, diff_registry)


def test_differential_scale_cycle_pilot(cluster_recognizer, diff_registry):
    """A fixed scale-out → scale-in cycle under live traffic with a
    swap and sweeps in the mix: the admin ``scale`` path, joins with
    rebalance migrations, and drain-by-migration all in one script."""
    case = {
        "workers": 2,
        "clients": 3,
        "gestures": 2,
        "seed": 71,
        "crash": None,
        "drain": None,
        "join": None,
        "scale": (0.3, 4),
        "swap": (0.2, 1, "alt"),
        "bads": [(0.5, BAD_LINES[2])],
        "sweeps": [(0.6, 0.5)],
        "churn": [],
        "rawop_at": None,
    }
    _run_case(case, cluster_recognizer, diff_registry)
