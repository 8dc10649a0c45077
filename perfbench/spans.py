"""Spans recorded from the benchmark's side of the call boundary.

``instrument`` wraps public functions of the ``zpfdrive`` modules (``cli``,
``mission``, ``dynamics``, ``vacuum``, ``material``) in place and restores
them on exit, so nothing under ``src/`` changes and untraced passes run the
unwrapped code.  Spans stay in memory; ``Tracer.write`` dumps them as JSON
lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Callable, Iterator


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.pass_index: int | None = None
        self.spans: list[dict] = []
        self.sweep_replays: list[tuple[tuple, dict]] = []  # jobs=1 sweep calls of this pass
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "workload": self.workload,
            "pass": self.pass_index,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, attrs: Callable | None = None) -> Callable:
        """``fn`` inside a span; a call nested in a span of the same name adds none."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the zpfdrive entry points the CLI calls; restore them on exit."""
    from zpfdrive import cli, dynamics, material, mission, vacuum

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, attrs=None) -> None:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(original.__func__, name, attrs)))
        else:
            setattr(owner, attr, tracer.wrap(original, name, attrs))

    build_parser = cli.build_parser

    def traced_build_parser():
        with tracer.span("cli.build_parser"):
            parser = build_parser()
        parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")
        return parser

    saved.append((cli, "build_parser", build_parser))
    cli.build_parser = traced_build_parser

    sweep = mission.sweep

    def traced_sweep(*args, **kwargs):
        jobs = kwargs.get("jobs", 1)
        if jobs == 1:
            tracer.sweep_replays.append((args, {k: v for k, v in kwargs.items() if k != "out"}))
        with tracer.span(f"mission.sweep_jobs{jobs}"):
            return sweep(*args, **kwargs)

    saved.append((mission, "sweep", sweep))
    mission.sweep = traced_sweep

    patch(mission.MissionSpec, "from_json", "mission.from_json")
    patch(mission, "evaluate_mission", "mission.evaluate_mission")
    patch(mission, "solve_for_unknown", "mission.solve_for_unknown")
    patch(dynamics, "run_maneuver_sequence", "dynamics.run_maneuver_sequence")
    patch(dynamics, "force_decomposed", "dynamics.force_decomposed")
    patch(dynamics, "delta_v_rotation", "dynamics.delta_v_rotation")
    patch(dynamics, "delta_v_aggregation", "dynamics.delta_v_aggregation")
    patch(dynamics.FieldTimeSeries, "from_csv", "dynamics.from_csv")
    patch(dynamics.ImpulseLedger, "to_jsonl", "dynamics.to_jsonl")
    patch(material, "particle_from_dict", "material.particle_from_dict")
    patch(vacuum, "convergence_study", "vacuum.convergence_study")
    patch(vacuum, "vacuum_momentum_closed_form", "vacuum.vacuum_momentum_closed_form")
    patch(
        vacuum,
        "mode_sum_oracle",
        "vacuum.mode_sum_oracle",
        lambda chi, a, grid, *rest, **kw: {"n": grid.n_per_axis},
    )
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def duration(span: dict) -> float:
    """The span's time at the reference host speed: ``run.py`` sets the run's
    ``scale`` on every span before the per-layer metrics are taken."""
    return (span["end"] - span["start"]) * span["scale"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= duration(s)
    return own


def module_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Self time summed per module, over spans under a ``cli.main`` span."""
    root: dict[int, str] = {}
    for s in spans:  # parents precede their children
        root[s["id"]] = root[s["parent"]] if s["parent"] in root else s["name"]
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if root[s["id"]] == "cli.main":
            out[s["name"].split(".")[0]] += own[s["id"]]
    return out
