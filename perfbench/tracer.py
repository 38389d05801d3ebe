"""Span tracer that wraps the package's public functions from outside.

Every wrapped function is replaced under the name its caller looks it up by
(``inclusion_forge.mapper.cauchy_off``, not only
``inclusion_forge.quadrature.cauchy_off``), so the calls the pipeline makes
really pass through the wrapper.  A name that does not resolve, for example
after a refactor removes it, is reported as absent instead of failing the run.

Timed entries record one span per call: name, start, end, parent span and op
id, kept in memory and written out by :meth:`Tracer.write_spans`.  A span's
self time is its duration minus the time covered by its child spans.  Counted
entries only count calls, work items and exceptions, which keeps the cost of
wrapping the hottest helpers low.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PKG = "inclusion_forge"


def _eval_q_points(args, kwargs, result) -> dict:
    return {"branch.eval_q.points": int(np.size(args[-1]))}


def _cauchy_work(args, kwargs, result) -> dict:
    points = int(np.size(args[1]))
    return {
        "quadrature.cauchy_off.points": points,
        "quadrature.cauchy_off.terms": points * len(args[0].coef),
    }


def _emitted_bytes(args, kwargs, result) -> dict:
    return {"cli.emit.bytes": Path(args[1]).stat().st_size}


def _vertices(args, kwargs, result) -> dict:
    return {"geometry.vertices": sum(len(p.points) for p in result)}


@dataclass(frozen=True)
class Entry:
    """One traced group: the lookup names wrapped and how they are measured.

    ``timed`` entries record spans; the others only count.  ``work`` maps
    ``(args, kwargs, result)`` to extra counters by metric name; ``alloc`` names the
    tracemalloc peak the entry's calls feed in an allocation pass; ``keep``
    selects what of each result is kept for metrics computed afterwards.
    """

    group: str
    names: tuple[str, ...]
    timed: bool = True
    work: Callable | None = None
    alloc: str | None = None
    keep: Callable | None = None  # what of the result to keep for later metrics

    @property
    def layer(self) -> str:
        return self.group.split(".", 1)[0]


def _q(module: str, *attrs: str) -> tuple[str, ...]:
    return tuple(f"{PKG}.{module}.{a}" for a in attrs)


ENTRIES: tuple[Entry, ...] = (
    Entry("cli.parse_config", _q("cli", "parse_config")),
    Entry("cli.emit", _q("cli", "write_contours_csv", "write_svg"), work=_emitted_bytes),
    Entry(
        "model.validate",
        _q("pipeline", "validate", "derive_constants")
        + _q("model", "validate")
        + _q("cli", "validate_model"),
    ),
    Entry(
        "solvability.period_matrix", _q("solvability", "period_matrix"),
        keep=lambda period: period,
    ),
    Entry(
        "solvability.solve",
        _q("solvability", "solve_a", "solve_rho", "antisymmetric_free_values"),
    ),
    Entry(
        "solvability.cross_check",
        _q(
            "solvability",
            "n2_closed_form_a", "n2_closed_form_rho",
            "n3_closed_form_a", "n3_closed_form_rho",
        ),
    ),
    Entry("solvability.residuals", _q("solvability", "boundedness_residuals")),
    Entry("solvability.weighted_moment", _q("solvability", "weighted_moment"), timed=False),
    Entry(
        "branch.weight_factor",
        _q("mapper", "weight_factor") + _q("solvability", "weight_factor"),
        timed=False,
    ),
    Entry("branch.abs_q", _q("mapper", "abs_q") + _q("branch", "abs_q"), timed=False),
    Entry("branch.eval_q", _q("mapper", "eval_q"), timed=False, work=_eval_q_points),
    Entry(
        "quadrature.cauchy_off",
        _q("mapper", "cauchy_off"),
        work=_cauchy_work,
        alloc="quadrature.cauchy_off.peak_alloc_mb",
    ),
    Entry("quadrature.singular_on", _q("mapper", "singular_on")),
    Entry("quadrature.series_from_samples", _q("mapper", "series_from_samples"), timed=False),
    Entry("mapper.SlitMap.build", _q("mapper", "SlitMap.__init__")),
    Entry("mapper.omega_boundary", _q("mapper", "SlitMap.omega_boundary")),
    Entry("mapper.F_boundary", _q("mapper", "SlitMap.F_boundary")),
    Entry("mapper.g1", _q("mapper", "SlitMap.g1")),
    Entry("mapper.omega_interior", _q("mapper", "SlitMap.omega_interior")),
    Entry("mapper.F_interior", _q("mapper", "SlitMap.F_interior")),
    Entry("geometry.build_profiles", _q("geometry", "build_profiles"), work=_vertices),
    Entry("geometry.self_intersects", _q("geometry", "self_intersects"), alloc="geometry.peak_alloc_mb"),
    Entry("geometry.disjoint", _q("geometry", "disjoint"), alloc="geometry.peak_alloc_mb"),
    Entry("pipeline.solve", _q("pipeline", "solve"), keep=lambda res: res.diagnostics),
)

LAYERS = ("cli", "model", "solvability", "branch", "quadrature", "mapper", "geometry", "pipeline")


def _resolve(name: str):
    """(owner object, attribute, current value) for a dotted name, or None."""
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            value = getattr(owner, parts[-1])
        except AttributeError:
            return None
        return (owner, parts[-1], value) if callable(value) else None
    return None


class Tracer:
    """Installs the wrappers, accumulates spans and per-group counters."""

    def __init__(self) -> None:
        self.entries = ENTRIES
        self.absent: list[str] = []
        self.op_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.peak_alloc: dict[str, int] = defaultdict(int)
        self.kept: dict[str, list] = defaultdict(list)
        self.span_names: list[str] = [e.group for e in ENTRIES]
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.alloc_pass = False
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for gid, entry in enumerate(self.entries):
            for name in entry.names:
                found = _resolve(name)
                if found is None:
                    self.absent.append(name)
                    continue
                owner, attr, fn = found
                self._installed.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(gid, entry, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def reset(self) -> None:
        """Drop everything recorded so far (the wrappers stay installed)."""
        for d in (self.calls, self.self_s, self.total_s, self.work,
                  self.errors, self.peak_alloc, self.kept):
            d.clear()
        self.spans.clear()

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, gid: int, entry: Entry, fn):
        tracer = self
        group, layer, work, keep = entry.group, entry.layer, entry.work, entry.keep
        clock = time.perf_counter

        if not entry.timed:
            def counted(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    tracer.errors[layer] += 1
                    raise
                tracer.calls[group] += 1
                if work is not None:
                    for key, v in work(args, kwargs, result).items():
                        tracer.work[key] += v
                return result
            return counted

        alloc = entry.alloc

        def timed(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            measure_alloc = alloc is not None and tracer.alloc_pass
            if measure_alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.self_s[group] += dur - frame[1]
                tracer.total_s[group] += dur
                tracer.calls[group] += 1
                tracer.spans[frame[0]] = (gid, t0, t1, parent, tracer.op_id)
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    tracer.peak_alloc[alloc] = max(tracer.peak_alloc[alloc], peak)
            if work is not None:
                for key, v in work(args, kwargs, result).items():
                    tracer.work[key] += v
            if keep is not None:
                tracer.kept[group].append(keep(result))
            return result

        return timed

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One CSV row per span: name, start, end, parent span, op id."""
        lines = ["span,name,start_s,end_s,parent,op"]
        lines += [
            f"{i},{self.span_names[g]},{t0:.9f},{t1:.9f},{parent},{op}"
            for i, (g, t0, t1, parent, op) in enumerate(self.spans)
        ]
        path.write_text("\n".join(lines) + "\n")
