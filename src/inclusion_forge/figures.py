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
    overlay_circular: bool = False


FIGURE_CASES: tuple[FigureCase, ...] = (
    FigureCase("fig1a", "VALID", overlay_circular=True),
    FigureCase("fig1b", "VALID"),
    FigureCase("fig1c", "VALID"),
    FigureCase("fig1d", "VALID"),
    FigureCase("fig2a", "VALID"),
    FigureCase("fig2b", "VALID"),
    FigureCase("fig2c", "VALID"),
    FigureCase("fig2d", "INVALID-UNBOUNDED"),
    FigureCase("fig3a", "VALID"),
    FigureCase("fig3b", "VALID"),
    FigureCase("fig3c", "VALID"),
    FigureCase("fig3d", "VALID"),
    FigureCase("fig4a", "VALID"),
    FigureCase("fig4b", "VALID"),
    FigureCase("fig4c", "VALID"),
    FigureCase("fig4d", "INVALID-GEOMETRY"),
)

def load_case(name: str) -> dict:
    """Parsed JSON document of one bundled configuration."""
    path = resources.files(__package__) / "figures" / f"{name}.json"
    return json.loads(path.read_text())
