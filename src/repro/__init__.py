"""repro — a reproduction of Rubine's *Integrating Gesture Recognition and
Direct Manipulation* (USENIX 1991).

The package provides, bottom to top:

* :mod:`repro.geometry` — points, strokes, transforms;
* :mod:`repro.features` — Rubine's 13 features, batch and incremental;
* :mod:`repro.recognizer` — the statistical full classifier;
* :mod:`repro.eager` — eager recognition (train + runtime);
* :mod:`repro.events` — synthetic mouse events and the virtual clock;
* :mod:`repro.mvc` — the GRANDMA model/view/event-handler architecture;
* :mod:`repro.interaction` — the two-phase interaction technique;
* :mod:`repro.gdp` — GDP, the gesture-based drawing program;
* :mod:`repro.synth` — parametric gesture generation;
* :mod:`repro.datasets` — labelled gesture sets and JSON persistence;
* :mod:`repro.evaluate` — the paper's evaluation harness;
* :mod:`repro.baselines` — comparison recognizers;
* :mod:`repro.multipath` — the multi-finger future-work extension;
* :mod:`repro.multistroke` — the multi-stroke future-work extension;
* :mod:`repro.textedit` — the figure-1 move-text editor scenario;
* :mod:`repro.gscore` — a mini score editor on figure 8's note gestures.

Quickstart::

    from repro import GestureGenerator, eight_direction_templates
    from repro import train_eager_recognizer

    gen = GestureGenerator(eight_direction_templates(), seed=1)
    report = train_eager_recognizer(gen.generate_strokes(10))
    result = report.recognizer.recognize(gen.generate("ur").stroke)
    print(result.class_name, result.fraction_seen)
"""

from importlib import import_module

__version__ = "1.0.0"

# Re-exports resolve on first use (PEP 562): importing a subpackage
# (``repro.cluster.worker``, say) loads only what it needs, not the
# trainer or the gesture synthesizer behind these names.
_EXPORTS = {
    "EagerRecognizer": "eager",
    "EagerResult": "eager",
    "EagerSession": "eager",
    "EagerTrainingConfig": "eager",
    "EagerTrainingReport": "eager",
    "train_eager_recognizer": "eager",
    "FEATURE_NAMES": "features",
    "NUM_FEATURES": "features",
    "IncrementalFeatures": "features",
    "features_of": "features",
    "Affine": "geometry",
    "BoundingBox": "geometry",
    "Point": "geometry",
    "Stroke": "geometry",
    "GestureClassifier": "recognizer",
    "RejectionPolicy": "recognizer",
    "GeneratedGesture": "synth",
    "GenerationParams": "synth",
    "GestureGenerator": "synth",
    "GestureTemplate": "synth",
    "eight_direction_templates": "synth",
    "gdp_templates": "synth",
    "note_templates": "synth",
    "ud_templates": "synth",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
