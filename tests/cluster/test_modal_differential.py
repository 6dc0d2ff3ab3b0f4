"""Differential fuzzing over the modal families: cluster vs single pool.

The tentpole's serving claim is that modalities ride the protocol
*unchanged*: a cluster serving tap/hold/scroll/swipe traffic — and
two-finger ``:a``/``:b`` pair sessions — replies byte-identically to a
scripted single ``SessionPool``, chaos included.  The event weaving and
the run are ``test_differential``'s; only the traffic (and the trained
model) is modal.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.eager import train_eager_recognizer
from repro.modal import generate_pair_workload
from repro.serve import generate_workload
from repro.synth import GestureGenerator, modal_templates, pinch_templates
from repro.synth.modal import swipe_templates

from .test_differential import BAD_LINES, _run_case, draw_faults, draw_noise

_TEMPLATES = {
    "modal": modal_templates,
    "swipes": swipe_templates,
    "pinch": pinch_templates,
}


@pytest.fixture(scope="session")
def modal_cluster_recognizers():
    return {
        family: train_eager_recognizer(
            GestureGenerator(factory(), seed=601).generate_strokes(10)
        ).recognizer
        for family, factory in _TEMPLATES.items()
    }


def _modal_workload(family: str, clients: int, gestures: int, seed: int):
    if family == "pinch":
        return generate_pair_workload(
            clients=clients, pairs_per_client=gestures, seed=seed
        )
    return generate_workload(
        _TEMPLATES[family](),
        clients=clients,
        gestures_per_client=gestures,
        seed=seed,
    )


@st.composite
def modal_cases(draw):
    workers = draw(st.integers(min_value=2, max_value=3))
    crash, drain = draw_faults(draw, workers)
    return {
        "family": draw(st.sampled_from(sorted(_TEMPLATES))),
        "workers": workers,
        "clients": draw(st.integers(min_value=2, max_value=3)),
        "gestures": draw(st.integers(min_value=1, max_value=2)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "crash": crash,
        "drain": drain,
        "join": None,
        "scale": None,
        "swap": None,
        "rawop_at": None,
        **draw_noise(draw),
    }


def _run_modal_case(case, recognizers) -> None:
    workload = _modal_workload(
        case["family"], case["clients"], case["gestures"], case["seed"]
    )
    _run_case(case, recognizers[case["family"]], workload=workload)


@given(case=modal_cases())
# A drain migrates a pinch finger held past the motionless timeout into
# a warm worker, whose clock already stands at the present; the
# session's replayed timeouts must still be judged at its journaled
# clock markers, not there.
@example(
    case={
        "family": "pinch",
        "workers": 2,
        "clients": 2,
        "gestures": 1,
        "seed": 0,
        "crash": None,
        "drain": (0.5, 0),
        "join": None,
        "scale": None,
        "swap": None,
        "rawop_at": None,
        "bads": [],
        "sweeps": [],
        "churn": [0.75],
    }
)
def test_differential_modal_cluster_vs_pool(case, modal_cluster_recognizers):
    _run_modal_case(case, modal_cluster_recognizers)


@pytest.mark.parametrize("family", sorted(_TEMPLATES))
def test_modal_differential_pilots(family, modal_cluster_recognizers):
    """One fixed chaotic case per family that always runs: a crash, a
    drain, malformed lines, churn, and a mid-run sweep over modal (and,
    for pinch, paired two-finger) traffic.  Debuggable sans hypothesis."""
    case = {
        "family": family,
        "workers": 3,
        "clients": 3,
        "gestures": 2,
        "seed": 37,
        "crash": (0.35, 1),
        "drain": (0.6, 2),
        "join": None,
        "scale": None,
        "swap": None,
        "rawop_at": None,
        "bads": [(0.15, BAD_LINES[0]), (0.7, BAD_LINES[4])],
        "sweeps": [(0.5, 1e9)],
        "churn": [0.4],
    }
    _run_modal_case(case, modal_cluster_recognizers)
