"""Result types shared by the coding schemes and the experiment harness."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import SolveStatus


class Decode(enum.Enum):
    DECODED = "decoded"
    NEED_MORE = "need_more"
    FAILURE = "failure"


@dataclass
class DecodeResult:
    status: Decode
    w: np.ndarray | None = None

    @property
    def decoded(self) -> bool:
        return self.status is Decode.DECODED


def unsolved(status: SolveStatus) -> DecodeResult:
    """The sink's verdict on a decode system without a unique solution:
    NO_SOLUTION waits for more observations, MULTIPLE is a failure."""
    return DecodeResult({SolveStatus.NO_SOLUTION: Decode.NEED_MORE,
                         SolveStatus.MULTIPLE: Decode.FAILURE}[status])


@dataclass
class TrialRecord:
    """One session: stages used, outcome, exact-correctness flag and rate.

    ``stage_trace`` holds (min cut, injected errors) per stage actually run;
    ``rate`` is b/N for decoded sessions and 0.0 otherwise.
    """

    trial: int
    stages_used: int
    outcome: str  # decoded | failure | exhausted
    correct: bool
    rate: float
    stage_trace: list[tuple[int, int]] = field(default_factory=list)

    def cutset_stage(self, b: int) -> int | None:
        """First stage index (1-based) at which b + sum(z) <= sum(M)."""
        tot_m = 0
        tot_z = 0
        for i, (m, z) in enumerate(self.stage_trace, start=1):
            tot_m += m
            tot_z += z
            if b + tot_z <= tot_m:
                return i
        return None
