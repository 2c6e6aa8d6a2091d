"""Spans around apolar_kit's public functions, recorded from outside the package.

`Tracer` replaces each traced function with a wrapper, in every
apolar_kit module that imported it by name, and on `ExactMatrix` for the
elimination methods.  Leaving the `with` block puts the originals back.
Spans live in memory as (name, start, end, parent, case) plus the time
the tracer itself spent on the span (`instr`: counting matrix cells and
coefficient bits), which is charged to neither the span nor its parent.

A span's self time is its duration minus the time its children cover.
`layer_metrics` turns the spans of a run into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

ELIM_METHODS = ("rank", "rref", "kernel", "solve", "inverse")

# Stage metrics compared to name the largest layer of a case or group.
STAGES = ("curvegen.curve_s", "curvegen.sample_s", "curvegen.ideal_s",
          "pipeline.alpha_s", "pipeline.gamma_s", "pipeline.fit_s",
          "waring.fermat_s", "waring.rank_lb_s",
          "apolarity.piece_s", "apolarity.hilbert_s", "apolarity.inverse_s")

LAYER_METRICS = {
    "curvegen.curve_s": "s", "curvegen.sample_s": "s", "curvegen.ideal_s": "s",
    "pipeline.alpha_s": "s", "pipeline.alpha_self_s": "s",
    "pipeline.gamma_s": "s", "pipeline.fit_s": "s",
    "pipeline.eta_attempts": "count", "pipeline.cubic_bits": "bit",
    "pipeline.scheme_exact_points": "count", "pipeline.scheme_points": "count",
    "pipeline.rank_certified_frac": "ratio",
    "waring.fermat_s": "s", "waring.rank_lb_s": "s",
    "apolarity.piece_s": "s", "apolarity.hilbert_s": "s",
    "apolarity.inverse_s": "s",
    "univariate.roots_s": "s", "univariate.exact_roots": "count",
    "univariate.float_roots": "count",
    "core.elim_s": "s", "core.elim_calls": "count", "core.elim_cells": "count",
    "core.max_entry_bits": "bit",
    "core.change_coords_s": "s", "core.change_coords_calls": "count",
}

# Layer metrics read from a differently named profile entry.
PROFILE_KEYS = {"pipeline.eta_attempts": "pipeline.alpha_calls",
                "core.elim_s": "core.elim_self_s"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "instr", "nested", "data")

    def __init__(self, name, parent, case, nested):
        self.name = name
        self.parent = parent
        self.case = case
        self.nested = nested
        self.start = self.end = 0.0
        self.instr = 0.0
        self.data = None


def _bits(value: Fraction) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _matrix_shape(span: Span, args) -> None:
    matrix = args[0]
    rows = matrix.rows()
    span.data = (matrix.nrows * matrix.ncols,
                 max((_bits(x) for row in rows for x in row), default=0))


def _cubic_bits(span: Span, alpha) -> None:
    span.data = max((_bits(c) for c in alpha.cubic.terms.values()), default=0)


def _scheme_counts(span: Span, gamma) -> None:
    span.data = (gamma.found_length, gamma.exact_count)


def _root_counts(span: Span, result) -> None:
    pairs, _ = result
    exact = sum(1 for pair in pairs if all(isinstance(c, Fraction) for c in pair))
    span.data = (exact, len(pairs) - exact)


class Tracer:
    """Installs span-recording wrappers for the duration of a `with` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self.case = None
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list = []
        self.missing: list[str] = []   # traced names the package no longer has

    def _wrap(self, name, func, before=None, after=None):
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            t_in = perf_counter()
            span = Span(name, stack[-1] if stack else None, self.case,
                        active[name] > 0)
            if before is not None:
                before(span, args)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            active[name] += 1
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                active[name] -= 1
                stack.pop()
            if after is not None:
                after(span, result)
            span.instr = (span.start - t_in) + (perf_counter() - span.end)
            return result

        traced.__wrapped__ = func
        return traced

    def __enter__(self) -> "Tracer":
        from apolar_kit import (apolarity, core, curvegen, pipeline,
                                univariate, waring)
        targets = [
            (curvegen, "trigonal_curve", "curvegen.curve", None),
            (curvegen, "tetragonal_curve", "curvegen.curve", None),
            (curvegen, "sample_points", "curvegen.sample", None),
            (curvegen, "ideal_pieces", "curvegen.ideal", None),
            (pipeline, "alpha_map", "pipeline.alpha", _cubic_bits),
            (pipeline, "gamma_points", "pipeline.gamma", _scheme_counts),
            (pipeline, "waring_certificate", "pipeline.fit", None),
            (waring, "fermat_detect_detail", "waring.fermat", None),
            (waring, "rank_lower_bound", "waring.rank_lb", None),
            (apolarity, "apolar_ideal_piece", "apolarity.piece", None),
            (apolarity, "hilbert_function", "apolarity.hilbert", None),
            (apolarity, "macaulay_inverse", "apolarity.inverse", None),
            (univariate, "binary_form_roots", "univariate.roots", _root_counts),
            (core, "change_coordinates", "core.change_coords", None),
        ]
        modules = [m for key, m in sys.modules.items()
                   if key == "apolar_kit" or key.startswith("apolar_kit.")]
        for module, attr, name, after in targets:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            traced = self._wrap(name, original, after=after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, original))
        for method in ELIM_METHODS:
            original = core.ExactMatrix.__dict__.get(method)
            if original is None:
                self.missing.append(f"apolar_kit.core.ExactMatrix.{method}")
                continue
            setattr(core.ExactMatrix, method,
                    self._wrap("core.elim", original, before=_matrix_shape))
            self._restore.append((core.ExactMatrix, method, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent, case."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([span.name, span.start, span.end,
                                         span.parent, span.case]) + "\n")


def self_times(spans: list) -> list:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += (span.end - span.start) + span.instr
    return [(s.end - s.start) - c for s, c in zip(spans, covered)]


def case_profiles(spans: list) -> dict:
    """Per case: inclusive stage times, self times and counters."""
    own = self_times(spans)
    profiles: dict = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(spans, own):
        p = profiles[span.case]
        if not span.nested:
            p[span.name + "_s"] += span.end - span.start
            p[span.name + "_calls"] += 1
        p[span.name + "_self_s"] += self_s
        if span.data is None:  # the call raised before its counters were read
            continue
        if span.name == "core.elim":
            if not span.nested:
                p["core.elim_cells"] += span.data[0]
            p["core.max_entry_bits"] = max(p["core.max_entry_bits"], span.data[1])
        elif span.name == "pipeline.alpha":
            p["pipeline.cubic_bits"] = max(p["pipeline.cubic_bits"], span.data)
        elif span.name == "pipeline.gamma":
            p["pipeline.scheme_points"] += span.data[0]
            p["pipeline.scheme_exact_points"] += span.data[1]
        elif span.name == "univariate.roots":
            p["univariate.exact_roots"] += span.data[0]
            p["univariate.float_roots"] += span.data[1]
    return profiles


def layer_metrics(profiles: dict, case_ids: list,
                  rank_certified_frac: float = 0.0) -> dict:
    """Per-layer metrics, as means per case over `case_ids`.

    `core.max_entry_bits` is the maximum over the run instead, since it
    is a maximum by definition.
    """
    count = max(1, len(case_ids))

    def mean(key):
        return sum(profiles.get(c, {}).get(key, 0.0) for c in case_ids) / count

    values = {name: mean(PROFILE_KEYS.get(name, name)) for name in LAYER_METRICS}
    values["pipeline.rank_certified_frac"] = rank_certified_frac
    values["core.max_entry_bits"] = max(
        (profiles.get(c, {}).get("core.max_entry_bits", 0) for c in case_ids), default=0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()}


def largest_stage(metrics: dict) -> str:
    """The stage with the most time per case in `layer_metrics` output."""
    return max(STAGES, key=lambda name: metrics[name]["value"])
