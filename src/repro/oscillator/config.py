"""Ring-oscillator stage configurations.

The paper's central idea is that the ring does not have to be built from
inverters only: any mix of inverting standard cells works, and the mix
is a design knob for linearity.  A :class:`RingConfiguration` is an
ordered list of cell names (one per stage) with the structural rules a
ring oscillator must satisfy — an odd number of inverting stages.

Configurations can be written compactly in the same style the paper's
Fig. 3 caption uses, e.g. ``"3INV+2NAND3"`` or ``"5NAND2"``; the parser
and formatter here round-trip that notation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..fields import ReproInputError, integer

__all__ = [
    "ConfigurationError",
    "odd_stage_count",
    "RingConfiguration",
    "PAPER_FIG3_CONFIGURATIONS",
    "paper_fig3_configurations",
]


class ConfigurationError(ReproInputError):
    """Raised for structurally invalid ring configurations."""


def odd_stage_count(stage_count, error=ConfigurationError) -> int:
    """``stage_count`` as an int, or ``error``: a ring needs an odd number >= 3."""
    count = integer(stage_count, "stage_count", error, at_least=3)
    if count % 2 == 0:
        raise error(
            f"stage_count must be an odd integer >= 3, got {stage_count!r}", "stage_count"
        )
    return count


_GROUP_PATTERN = re.compile(r"^\s*(\d+)\s*([A-Za-z]+\d*)\s*$")


@dataclass(frozen=True)
class RingConfiguration:
    """An ordered list of stage cell names forming a ring oscillator."""

    stages: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.stages) < 3:
            raise ConfigurationError("a ring oscillator needs at least 3 stages")
        if len(self.stages) % 2 == 0:
            raise ConfigurationError(
                f"a ring oscillator needs an odd number of inverting stages, "
                f"got {len(self.stages)}"
            )
        normalised = tuple(stage.strip().upper() for stage in self.stages)
        if any(not stage for stage in normalised):
            raise ConfigurationError("stage names must not be empty")
        object.__setattr__(self, "stages", normalised)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def uniform(cls, cell_name: str, stage_count: int) -> "RingConfiguration":
        """A ring built from ``stage_count`` copies of one cell."""
        return cls(tuple([cell_name] * odd_stage_count(stage_count)))

    @classmethod
    def from_counts(cls, counts: Sequence[Tuple[str, int]]) -> "RingConfiguration":
        """Build from ``[(cell_name, count), ...]`` groups in order."""
        stages: List[str] = []
        for cell_name, count in counts:
            count = integer(count, "count", ConfigurationError, at_least=0)
            stages.extend([cell_name] * count)
        return cls(tuple(stages))

    @classmethod
    def parse(cls, text: str) -> "RingConfiguration":
        """Parse the compact ``"3INV+2NAND3"`` notation.

        Groups are separated by ``+``; each group is a count followed by
        a cell name.  A bare cell name counts as one stage.
        """
        if not text or not text.strip():
            raise ConfigurationError("empty configuration string")
        counts: List[Tuple[str, int]] = []
        for group in text.split("+"):
            group = group.strip()
            if not group:
                raise ConfigurationError(f"empty group in configuration {text!r}")
            match = _GROUP_PATTERN.match(group)
            if match:
                count = int(match.group(1))
                name = match.group(2)
            else:
                count = 1
                name = group
            if count == 0:
                raise ConfigurationError(f"group {group!r} has a zero count")
            counts.append((name, count))
        return cls.from_counts(counts)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def counts(self) -> Dict[str, int]:
        """Number of stages per cell name (order-insensitive summary)."""
        summary: Dict[str, int] = {}
        for stage in self.stages:
            summary[stage] = summary.get(stage, 0) + 1
        return summary

    def label(self) -> str:
        """Compact label in the paper's ``2INV+3NAND2`` style.

        Consecutive runs of the same cell are grouped; the order of the
        groups follows the stage order.
        """
        groups: List[Tuple[str, int]] = []
        for stage in self.stages:
            if groups and groups[-1][0] == stage:
                groups[-1] = (stage, groups[-1][1] + 1)
            else:
                groups.append((stage, 1))
        return "+".join(f"{count}{name}" for name, count in groups)

    def is_uniform(self) -> bool:
        return len(set(self.stages)) == 1

    def __str__(self) -> str:
        return self.label()


def paper_fig3_configurations() -> Dict[str, RingConfiguration]:
    """The cell-mix configurations evaluated in the paper's Fig. 3.

    The scanned caption is partially garbled; the set below is the
    reconstruction documented in EXPERIMENTS.md: the plain 5-inverter
    ring, the two NAND-flavoured mixes, the NAND-only ring, and the two
    NOR-flavoured mixes.  All are 5-stage rings like the paper's.
    """
    texts = [
        "5INV",
        "3INV+2NAND3",
        "3NAND3+2NOR2",
        "2INV+3NAND2",
        "5NAND2",
        "2INV+3NOR2",
    ]
    return {text: RingConfiguration.parse(text) for text in texts}


#: Mapping of label -> configuration used by the Fig. 3 reproduction.
PAPER_FIG3_CONFIGURATIONS: Dict[str, RingConfiguration] = paper_fig3_configurations()
