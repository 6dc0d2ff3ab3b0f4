"""Eager recognition: classify a gesture as soon as it is unambiguous."""

from importlib import import_module

# Re-exports resolve on first use (PEP 562): a serving process that
# only loads trained recognizers never imports the trainer or the
# subgesture partition.
_EXPORTS = {
    "AMBIGUITY_BIAS_RATIO": "auc",
    "AmbiguityClassifier": "auc",
    "class_of_set": "auc",
    "complete_set_name": "auc",
    "incomplete_set_name": "auc",
    "is_complete_set": "auc",
    "ExampleLabelling": "partition",
    "LabelledSubgesture": "partition",
    "SubgesturePartition": "partition",
    "compute_move_threshold": "partition",
    "label_example": "partition",
    "label_examples": "partition",
    "move_accidentally_complete": "partition",
    "partition_subgestures": "partition",
    "EagerRecognizer": "recognizer",
    "EagerResult": "recognizer",
    "EagerSession": "recognizer",
    "MIN_PREFIX_POINTS": "subgestures",
    "SubgestureFeatures": "subgestures",
    "prefix_feature_vectors": "subgestures",
    "AucBuildStats": "trainer",
    "EagerTrainingConfig": "trainer",
    "EagerTrainingReport": "trainer",
    "build_auc": "trainer",
    "train_eager_recognizer": "trainer",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
