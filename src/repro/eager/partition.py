"""Labelling and partitioning of training subgestures (paper §4.4–4.5).

Three steps happen here:

1. **Complete/incomplete labelling.**  A subgesture ``g[i]`` of training
   gesture ``g`` is *complete* when the full classifier classifies it and
   every larger prefix of ``g`` the same as ``g`` itself; otherwise it is
   *incomplete* (section 4.4, figure 5).

2. **The 2C-class split.**  A plain ambiguous/unambiguous two-class split
   is "wildly non-Gaussian", so complete subgestures go to class ``C-c``
   (``c`` = the full gesture's class) and incomplete ones to ``I-c``
   (``c`` = what the full classifier *called the prefix*, which is
   usually not the true class).

3. **Moving accidentally complete subgestures** (section 4.5, figure 6).
   Subgestures that happen to classify correctly while still being
   ambiguous — e.g. the horizontal run of a ``D`` gesture that the
   classifier already calls ``D`` — are detected by their Mahalanobis
   proximity to incomplete-class means and reassigned, largest first;
   once one prefix of a gesture moves, all its shorter complete prefixes
   move too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..geometry import Stroke
from ..recognizer import GestureClassifier, MahalanobisMetric
from .auc import (
    class_of_set,
    complete_set_name,
    incomplete_set_name,
    is_complete_set,
)
from .subgestures import MIN_PREFIX_POINTS, prefix_feature_vectors

__all__ = [
    "LabelledSubgesture",
    "ExampleLabelling",
    "SubgesturePartition",
    "label_example",
    "label_examples",
    "partition_subgestures",
    "move_accidentally_complete",
    "compute_move_threshold",
    "complete_set_name",
    "incomplete_set_name",
    "is_complete_set",
    "class_of_set",
]


@dataclass
class LabelledSubgesture:
    """One training subgesture with its full-classifier verdict."""

    example_id: int  # index of the parent training example
    true_class: str  # class of the full gesture
    length: int  # i — the number of points in this prefix
    features: np.ndarray
    predicted: str  # C(g[i])
    complete: bool  # per the §4.4 definition

    @property
    def initial_set(self) -> str:
        """The 2C-class set this subgesture starts in."""
        if self.complete:
            return complete_set_name(self.true_class)
        return incomplete_set_name(self.predicted)


@dataclass
class ExampleLabelling:
    """All labelled subgestures of one training example, smallest first."""

    example_id: int
    true_class: str
    stroke: Stroke
    subgestures: list[LabelledSubgesture] = field(default_factory=list)

    def label_string(self) -> str:
        """Figures 5–7 style rendering: one character per subgesture.

        Uppercase = complete, lowercase = incomplete; the character is the
        first letter of the full classifier's verdict for that prefix.
        """
        return "".join(
            sub.predicted[:1].upper() if sub.complete else sub.predicted[:1].lower()
            for sub in self.subgestures
        )


def label_example(
    full_classifier: GestureClassifier,
    stroke: Stroke,
    true_class: str,
    example_id: int,
    min_points: int = MIN_PREFIX_POINTS,
) -> ExampleLabelling:
    """Label every subgesture of one training example.

    Completeness is computed by scanning the example's prefixes from the
    largest down: a prefix is complete iff it and all larger prefixes
    were classified as the true class.  This is the per-example unit of
    work the :mod:`repro.train` pipeline fans out across processes —
    :func:`label_examples` and the pipeline's workers call this one
    function, so staged and in-memory training label identically.
    """
    prefixes = prefix_feature_vectors(stroke, min_points)
    predictions = [
        full_classifier.classify_features(v) for v in prefixes.vectors
    ]
    complete_flags = [False] * len(predictions)
    all_correct_above = True
    for idx in range(len(predictions) - 1, -1, -1):
        all_correct_above = (
            all_correct_above and predictions[idx] == true_class
        )
        complete_flags[idx] = all_correct_above
    subs = [
        LabelledSubgesture(
            example_id=example_id,
            true_class=true_class,
            length=length,
            features=vector,
            predicted=predicted,
            complete=complete,
        )
        for length, vector, predicted, complete in zip(
            prefixes.lengths, prefixes.vectors, predictions, complete_flags
        )
    ]
    return ExampleLabelling(
        example_id=example_id,
        true_class=true_class,
        stroke=stroke,
        subgestures=subs,
    )


def label_examples(
    full_classifier: GestureClassifier,
    examples_by_class: dict[str, Sequence[Stroke]],
    min_points: int = MIN_PREFIX_POINTS,
) -> list[ExampleLabelling]:
    """Run the full classifier over every subgesture of every example.

    Examples are numbered in class-major order — the same order the
    training pipeline's dataset manifest freezes — so ``example_id``
    means the same thing everywhere.
    """
    labelled: list[ExampleLabelling] = []
    example_id = 0
    for true_class, strokes in examples_by_class.items():
        for stroke in strokes:
            labelled.append(
                label_example(
                    full_classifier, stroke, true_class, example_id, min_points
                )
            )
            example_id += 1
    return labelled


@dataclass
class SubgesturePartition:
    """Subgestures grouped into the 2C AUC training sets."""

    sets: dict[str, list[LabelledSubgesture]]

    @property
    def set_names(self) -> list[str]:
        return list(self.sets.keys())

    def non_empty_sets(self) -> dict[str, list[LabelledSubgesture]]:
        return {name: subs for name, subs in self.sets.items() if subs}

    def mean_of(self, set_name: str) -> np.ndarray:
        subs = self.sets[set_name]
        if not subs:
            raise ValueError(f"set {set_name!r} is empty")
        return np.mean([s.features for s in subs], axis=0)

    def counts(self) -> dict[str, int]:
        return {name: len(subs) for name, subs in self.sets.items()}


def partition_subgestures(
    labelled: Iterable[ExampleLabelling],
    class_names: Sequence[str],
) -> SubgesturePartition:
    """Initial 2C-way partition (before the accidental-complete move)."""
    sets: dict[str, list[LabelledSubgesture]] = {}
    for name in class_names:
        sets[complete_set_name(name)] = []
        sets[incomplete_set_name(name)] = []
    for example in labelled:
        for sub in example.subgestures:
            sets[sub.initial_set].append(sub)
    return SubgesturePartition(sets=sets)


def compute_move_threshold(
    full_classifier: GestureClassifier,
    partition: SubgesturePartition,
    metric: MahalanobisMetric,
    minimum_fraction: float = 0.5,
    exclusion_distance: float = 1.0,
) -> float:
    """The §4.5 distance threshold for "sufficiently close".

    The distance from the mean of each *full gesture* class to the mean of
    each non-empty incomplete set is computed and the minimum taken — but
    distances below ``exclusion_distance`` are skipped, so an incomplete
    set that *looks like* a full gesture of another class (the paper's
    right-stroke example) does not collapse the threshold to zero.  The
    returned threshold is ``minimum_fraction`` (the paper's 50%) of that
    minimum.

    Returns 0.0 (disabling moves) when there are no usable distances.
    """
    distances: list[float] = []
    for class_name in full_classifier.class_names:
        full_mean = full_classifier.mean_of(class_name)
        for set_name, subs in partition.sets.items():
            if is_complete_set(set_name) or not subs:
                continue
            d = metric.distance(full_mean, partition.mean_of(set_name))
            if d >= exclusion_distance:
                distances.append(d)
    if not distances:
        return 0.0
    return minimum_fraction * min(distances)


def move_accidentally_complete(
    partition: SubgesturePartition,
    metric: MahalanobisMetric,
    threshold: float,
) -> int:
    """Reassign accidentally complete subgestures to incomplete sets.

    For each complete set, each parent gesture's subgestures are tested
    from largest to smallest; once one is within ``threshold`` of the
    nearest incomplete-set mean, it *and all smaller complete subgestures
    of that gesture* move to their respective closest incomplete sets.
    Incomplete-set means are frozen at entry (one pass, as in the paper).

    Returns:
        The number of subgestures moved.
    """
    incomplete_names = [
        name
        for name, subs in partition.sets.items()
        if not is_complete_set(name) and subs
    ]
    if not incomplete_names or threshold <= 0.0:
        return 0
    incomplete_means = np.vstack(
        [partition.mean_of(name) for name in incomplete_names]
    )

    moved = 0
    for set_name in list(partition.sets.keys()):
        if not is_complete_set(set_name):
            continue
        remaining: list[LabelledSubgesture] = []
        # Group this complete set's members by parent example.
        by_example: dict[int, list[LabelledSubgesture]] = {}
        for sub in partition.sets[set_name]:
            by_example.setdefault(sub.example_id, []).append(sub)
        for subs in by_example.values():
            subs.sort(key=lambda s: s.length, reverse=True)
            moving = False
            for sub in subs:
                if not moving:
                    nearest, squared = metric.nearest(
                        sub.features, incomplete_means
                    )
                    if np.sqrt(squared) < threshold:
                        moving = True
                if moving:
                    nearest, _ = metric.nearest(sub.features, incomplete_means)
                    sub.complete = False
                    partition.sets[incomplete_names[nearest]].append(sub)
                    moved += 1
                else:
                    remaining.append(sub)
        partition.sets[set_name] = remaining
    return moved
