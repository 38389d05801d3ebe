"""Registry of the bundled sample configurations and their expected verdicts.

The JSON files under ``figures/`` are the regression corpus: two of them
(``fig2d`` with overridden constants, ``fig4d`` with crossing contours) are
deliberately invalid and their expected classification is part of the
regression contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources


@dataclass(frozen=True)
class FigureCase:
    name: str
    expected: str
    n_contours: int
    overlay_circular: bool = False


FIGURE_CASES: tuple[FigureCase, ...] = (
    FigureCase("fig1a", "VALID", 1, overlay_circular=True),
    FigureCase("fig1b", "VALID", 2),
    FigureCase("fig1c", "VALID", 2),
    FigureCase("fig1d", "VALID", 2),
    FigureCase("fig2a", "VALID", 2),
    FigureCase("fig2b", "VALID", 2),
    FigureCase("fig2c", "VALID", 2),
    FigureCase("fig2d", "INVALID-UNBOUNDED", 2),
    FigureCase("fig3a", "VALID", 3),
    FigureCase("fig3b", "VALID", 3),
    FigureCase("fig3c", "VALID", 3),
    FigureCase("fig3d", "VALID", 3),
    FigureCase("fig4a", "VALID", 3),
    FigureCase("fig4b", "VALID", 3),
    FigureCase("fig4c", "VALID", 3),
    FigureCase("fig4d", "INVALID-GEOMETRY", 3),
)

def load_case(name: str) -> dict:
    """Parsed JSON document of one bundled configuration."""
    path = resources.files(__package__) / "figures" / f"{name}.json"
    return json.loads(path.read_text())


def get_case(name: str) -> FigureCase:
    for case in FIGURE_CASES:
        if case.name == name:
            return case
    raise KeyError(name)
