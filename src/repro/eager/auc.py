"""The Ambiguous/Unambiguous Classifier (AUC).

"In order to implement eager recognition, a module is needed that can
answer the question: has enough of the gesture being entered been seen so
that it may be unambiguously classified?" (section 4.3)

The AUC is a linear classifier over the 2C sets produced by
:mod:`repro.eager.partition`; the paper's decision function ``D`` returns
true iff the AUC places the subgesture's feature vector in one of the
complete ("C-c") sets.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..recognizer import LinearClassifier

__all__ = ["AmbiguityClassifier", "AMBIGUITY_BIAS_RATIO"]

# "The increment is chosen to bias the classifier so that it believes
# that ambiguous gestures are five times more likely than unambiguous
# gestures." (section 4.6)
AMBIGUITY_BIAS_RATIO = 5.0


# The AUC's class names: "C:<class>" for the complete set of a gesture
# class, "I:<class>" for its incomplete set.
def complete_set_name(class_name: str) -> str:
    """Name of the complete ("C-c") AUC class for a gesture class."""
    return f"C:{class_name}"


def incomplete_set_name(class_name: str) -> str:
    """Name of the incomplete ("I-c") AUC class for a gesture class."""
    return f"I:{class_name}"


def is_complete_set(set_name: str) -> bool:
    return set_name.startswith("C:")


def class_of_set(set_name: str) -> str:
    """The gesture class a C-c / I-c set name refers to."""
    prefix, _, class_name = set_name.partition(":")
    if prefix not in ("C", "I") or not class_name:
        raise ValueError(f"not an AUC set name: {set_name!r}")
    return class_name


class AmbiguityClassifier:
    """Wraps a 2C-class linear classifier into the decision function D."""

    def __init__(self, linear: LinearClassifier):
        self.linear = linear
        self._complete = {
            name for name in linear.class_names if is_complete_set(name)
        }
        if not self._complete:
            raise ValueError("AUC has no complete classes; D would be constant")
        self._complete_row_mask = np.array(
            [name in self._complete for name in linear.class_names]
        )

    @property
    def complete_class_names(self) -> set[str]:
        return set(self._complete)

    @property
    def incomplete_class_names(self) -> set[str]:
        return set(self.linear.class_names) - self._complete

    def classify_set(self, features: np.ndarray) -> str:
        """The winning C-c / I-c set for a subgesture's features."""
        return self.linear.classify(features)

    def is_unambiguous(self, features: np.ndarray) -> bool:
        """The paper's D: true iff the winner is a complete set."""
        return self.classify_set(features) in self._complete

    # -- batched evaluation --------------------------------------------------

    def classify_set_many(
        self, features: np.ndarray, extra_tolerance: np.ndarray | None = None
    ) -> list[str]:
        """Winning set per row of an ``(n, F)`` matrix.

        Bit-identical to ``[classify_set(f) for f in features]`` — see
        :meth:`~repro.recognizer.LinearClassifier.classify_many`.
        """
        return self.linear.classify_many(features, extra_tolerance)

    def is_unambiguous_many(
        self, features: np.ndarray, extra_tolerance: np.ndarray | None = None
    ) -> np.ndarray:
        """The decision function D over a stack of feature vectors.

        Returns a boolean array, bit-identical to
        ``[is_unambiguous(f) for f in features]``, evaluated with one
        matrix product instead of a per-row Python loop.
        """
        winners = self.linear.classify_many_indices(features, extra_tolerance)
        return self._complete_row_mask[winners]

    def apply_ambiguity_bias(self, ratio: float = AMBIGUITY_BIAS_RATIO) -> None:
        """Raise every incomplete class's constant by ``ln(ratio)``.

        Under the Gaussian model the constant term absorbs the class log
        prior, so adding ``ln(ratio)`` to the incomplete classes makes the
        AUC treat ambiguity as ``ratio`` times more likely a priori.
        """
        if ratio <= 0.0:
            raise ValueError("bias ratio must be positive")
        increment = math.log(ratio)
        for name in self.incomplete_class_names:
            self.linear.add_to_constant(name, increment)

    def tweak_against(
        self,
        incomplete_vectors: list[np.ndarray],
        margin: float = 0.1,
        max_rounds: int = 20,
    ) -> int:
        """Lower complete-class constants until no training incomplete
        subgesture is judged unambiguous (section 4.6).

        Each time an incomplete subgesture lands in a complete set — "a
        serious mistake" — that set's constant is reduced "by just enough
        plus a little more": the evaluation gap to the best incomplete
        class, plus ``margin``.  One adjustment can surface new
        violations, so the scan repeats until a pass is clean or
        ``max_rounds`` passes have run.

        Returns:
            The number of constant adjustments performed.
        """
        incomplete_names = self.incomplete_class_names
        if not incomplete_names:
            return 0
        incomplete_rows = [
            self.linear.class_index(name) for name in incomplete_names
        ]
        adjustments = 0
        for _ in range(max_rounds):
            clean = True
            for features in incomplete_vectors:
                winner, scores = self.linear.classify_with_scores(features)
                if winner not in self._complete:
                    continue
                clean = False
                best_incomplete = max(scores[row] for row in incomplete_rows)
                gap = scores[self.linear.class_index(winner)] - best_incomplete
                self.linear.add_to_constant(winner, -(gap + margin))
                adjustments += 1
            if clean:
                break
        return adjustments

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {"linear": self.linear.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "AmbiguityClassifier":
        return cls(LinearClassifier.from_dict(data["linear"]))

    def save(self, path: str | Path) -> None:
        """Write the AUC to a JSON file (cf. ``GestureClassifier.save``)."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "AmbiguityClassifier":
        return cls.from_dict(json.loads(Path(path).read_text()))
