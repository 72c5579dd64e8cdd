"""Twist verdicts for catalog parameter tuples.

A self-consistent tuple is twistable by a permutation sigma when the
pointwise image of its realized triple set is again the realized set of a
catalog tuple.  Concretely the image must stay metric and keep every
geodesic type (1, k, k+1); when both hold, reading the parameters off the
image gives the twisted tuple.  ``twist_verdict`` builds every verdict,
for ``check_twistable`` and for the classifier's CSV rows.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DimensionMismatchError, InvalidInputError, InvalidStateError
from .parameter_space import (
    ParameterTuple,
    derive_parameters,
    is_self_consistent,
    realized_set,
)
from .permutations import Twist
from .triangle_catalog import TriangleSet, all_triples, grade_image

OUTCOME_TWISTABLE = "TWISTABLE"
OUTCOME_METRIC_VIOLATION = "METRIC_VIOLATION"
OUTCOME_MISSING_GEODESIC = "MISSING_GEODESIC"


@dataclass(frozen=True)
class TwistVerdict:
    """Outcome of one twistability check.

    Exactly one payload is set: image_params for TWISTABLE,
    witness_triple (first non-metric image triple in rank order) for
    METRIC_VIOLATION, witness_distance (least k whose geodesic type
    vanished) for MISSING_GEODESIC.
    """

    outcome: str
    witness_triple: tuple | None = None
    witness_distance: int | None = None
    image_params: ParameterTuple | None = None

    def __post_init__(self):
        populated = {
            OUTCOME_TWISTABLE: self.image_params is not None
            and self.witness_triple is None
            and self.witness_distance is None,
            OUTCOME_METRIC_VIOLATION: self.witness_triple is not None
            and self.witness_distance is None
            and self.image_params is None,
            OUTCOME_MISSING_GEODESIC: self.witness_distance is not None
            and self.witness_triple is None
            and self.image_params is None,
        }
        if self.outcome not in populated:
            raise InvalidInputError(f"unknown outcome {self.outcome!r}")
        if not populated[self.outcome]:
            raise InvalidInputError(
                f"verdict payload does not match outcome {self.outcome}"
            )

    @property
    def twistable(self) -> bool:
        return self.outcome == OUTCOME_TWISTABLE

    def witness_text(self) -> str:
        if self.witness_triple is not None:
            return "(" + ",".join(str(x) for x in self.witness_triple) + ")"
        if self.witness_distance is not None:
            return f"k={self.witness_distance}"
        return ""

    def to_json(self) -> str:
        witness: object = None
        if self.witness_triple is not None:
            witness = list(self.witness_triple)
        elif self.witness_distance is not None:
            witness = self.witness_distance
        return json.dumps(
            {
                "outcome": self.outcome,
                "witness": witness,
                "image_params": None
                if self.image_params is None
                else self.image_params.as_dict(),
            },
            sort_keys=True,
        )


def check_twistable(params: ParameterTuple, twist: Twist) -> TwistVerdict:
    """Decide whether the twist carries the tuple to another catalog tuple."""
    if not isinstance(params, ParameterTuple):
        raise InvalidInputError(f"expected a ParameterTuple, got {params!r}")
    if not isinstance(twist, Twist):
        raise InvalidInputError(f"expected a Twist, got {twist!r}")
    if twist.delta != params.delta:
        raise DimensionMismatchError(
            f"twist delta {twist.delta} != tuple delta {params.delta}"
        )
    if not is_self_consistent(params):
        raise InvalidInputError(f"tuple {params} is not self-consistent")
    return twist_verdict(params, twist)


def twist_verdict(params: ParameterTuple, twist: Twist) -> TwistVerdict:
    """The verdict for a self-consistent tuple and a twist of its diameter."""
    image, bad, missing = grade_image(realized_set(params).to_bool_array(), twist)
    if bad >= 0:
        return TwistVerdict(
            OUTCOME_METRIC_VIOLATION, witness_triple=all_triples(twist.delta)[bad]
        )
    if missing:
        return TwistVerdict(OUTCOME_MISSING_GEODESIC, witness_distance=missing)
    # a twistable image is itself a catalog tuple; an anomalous derivation
    # makes to_params raise InvalidStateError
    image_params = derive_parameters(
        TriangleSet.from_bool_array(twist.delta, image)
    ).to_params()
    if not is_self_consistent(image_params):
        raise InvalidStateError(
            f"image of {params} under {twist.cycles()} is not self-consistent: {image_params}"
        )
    return TwistVerdict(OUTCOME_TWISTABLE, image_params=image_params)
