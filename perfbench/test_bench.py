"""Tests of the benchmark itself: input determinism and tiny smoke runs.

    python -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from zpfdrive import cli  # noqa: E402

TINY = {
    "specs": 1,
    "sweep_jobs1": (3, 2, 2, 2),
    "sweep_jobs2": (2, 2, 2, 2),
    "sweep_json": (2, 2, 2, 2),
    "fleet_particles": 3,
    "fleet_maneuvers": 6,
    "oracle_n": (16, 24),
    "oracle_sizes": 2,
    "series_samples": 50,
}


def _generate(name: str, seed: int, work: Path) -> tuple[dict, list]:
    work.mkdir()
    calls = workloads.make_workload(name, seed, work, TINY)
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return files, [c.argv for c in calls]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    files_a, argv_a = _generate(name, 7, tmp_path / "a")
    files_b, argv_b = _generate(name, 7, tmp_path / "b")
    files_c, _ = _generate(name, 8, tmp_path / "c")
    assert files_a == files_b
    assert argv_a == argv_b
    assert files_a != files_c


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_passes_output_checks(name, tmp_path, monkeypatch):
    calls = workloads.make_workload(name, 3, tmp_path, TINY)
    monkeypatch.chdir(tmp_path)
    runner = run.Runner(calls, cli)
    result = runner.run_pass()
    assert runner.failures == []
    assert result["failed"] == 0
    assert runner.attempted == len(calls)
    assert sorted(runner.digests) == list(range(len(calls)))


def test_setup_samples_are_left_out_of_the_pass_time(tmp_path, monkeypatch):
    calls = workloads.make_workload("design-loop", 5, tmp_path, TINY)
    monkeypatch.chdir(tmp_path)
    runner = run.Runner(calls, cli)
    result = runner.run_pass(setup=True)
    assert len(result["setup"]) == run.SETUP_PER_PASS
    assert all(s > 0 for s in result["setup"])
    assert result["wall"] < sum(result["latencies"]) + min(result["setup"])
    assert runner.speed.samples


def test_times_are_scaled_by_the_median_reference_sample():
    speed = run.SpeedRef()
    speed.samples = [0.02, 0.05, 0.02]
    assert speed.scale() == run.REF_NOMINAL_S / 0.02
    p = run.scaled({"wall": 3.0, "latencies": [1.0, 2.0], "setup": [0.4], "failed": 0}, 0.5)
    assert p == {"wall": 1.5, "latencies": [0.5, 1.0], "setup": [0.2], "failed": 0}


def test_traced_pass_records_spans_of_every_module(tmp_path, monkeypatch):
    from spans import Tracer, instrument, module_self_seconds

    calls = workloads.make_workload("design-loop", 4, tmp_path, TINY)
    monkeypatch.chdir(tmp_path)
    tracer = Tracer("design-loop")
    tracer.pass_index = 0
    runner = run.Runner(calls, cli)
    original = cli.build_parser
    with instrument(tracer):
        runner.run_pass(tracer)
    assert cli.build_parser is original
    assert runner.failed == 0
    for s in tracer.spans:
        s["scale"] = runner.speed.scale()
    self_s = module_self_seconds(tracer.spans)
    assert set(run.LAYER_MODULES) <= set(self_s)
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_check_rejects_a_wrong_sweep_value(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    inv = workloads.sweep_call(rng, tmp_path, "t", (3, 2, 2, 2), 1, "csv", False)
    assert cli.main(inv.argv) == 0
    inv.check("", None)
    out = tmp_path / inv.outputs[0]
    lines = out.read_text().splitlines()
    cells = lines[5].split(",")
    cells[5] = repr(float(cells[5]) * (1 + 1e-9))
    lines[5] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckError):
        inv.check("", None)


def test_lattice_points_matches_brute_force():
    for n in (1, 2, 5, 16):
        idx = np.arange(-n, n + 1)
        r2 = idx[:, None, None] ** 2 + idx[None, :, None] ** 2 + idx[None, None, :] ** 2
        assert workloads.lattice_points(n) == int(np.count_nonzero((r2 > 0) & (r2 <= n * n)))
