"""zpfdrive benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload design-loop --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The workload's inputs are generated from the
seed, then its fixed list of ``zpfdrive.cli.main`` invocations (one
"pass") is run in process, one call at a time, for about ``--seconds``,
after an untimed warm-up over a few non-bulk calls of each kind.  Every
time is scaled to a fixed host speed, measured by a reference computation
timed between the calls (see ``SpeedRef``).  Every output of every pass is
checked against an independent numpy recomputation.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports per-layer metrics and the tracing overhead.  The last stdout line is the result object; a readable
table goes to stderr and a run record (machine info, per-pass
values, output SHA-256 digests, spans) to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from spans import Tracer, duration as dur, instrument, module_self_seconds
from workloads import WORKLOADS, CheckError, lattice_points, make_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

# fresh-process set-up: import the CLI module and build its parser
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import zpfdrive.cli\n"
    "zpfdrive.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
# fresh-process set-up samples taken at even steps through every untraced
# pass of a --trace 0 run, so that they spread over the run as the calls do
SETUP_PER_PASS = 6
# The development host's speed drifts by 20-30% over minutes, and every
# call of a run moves with it, so absolute times spread across runs by
# about as much as any bound allows.  A fixed computation that does not
# touch zpfdrive (``SpeedRef``) is timed between the calls, for about
# REF_SHARE of the pass time, and every time the run reports is scaled by
# REF_NOMINAL_S over its median time: times are reported at the host speed
# at which the reference takes 10 ms.
REF_NOMINAL_S = 0.010
REF_SHARE = 0.05

RATE_METRICS = {
    "sweep": "sweep_rows_per_s",
    "ledger": "ledger_bookings_per_s",
    "oracle": "oracle_modes_per_s",
    "series": "series_samples_per_s",
}
COUNT_METRICS = {
    "sweep": "mission.sweep_rows",
    "ledger": "dynamics.ledger_bookings",
    "oracle": "vacuum.lattice_points",
    "series": "dynamics.series_samples",
}
LAYER_MODULES = ("cli", "mission", "dynamics", "vacuum", "material")


def machine_info() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    git_sha = None  # only the checkout's own repository counts, not an enclosing one
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "zpfdrive").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha,
        "src_sha256": src_digest.hexdigest(),
    }


def setup_time() -> float:
    """Fresh-process time to import zpfdrive.cli and build the parser."""
    done = subprocess.run(
        [sys.executable, "-E", "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip())


class SpeedRef:
    """Timings of a fixed reference computation taken through the run.

    The computation mixes the kinds of work the CLI does: small numpy calls
    on 3x3 tensors, ``Fraction`` arithmetic, a walk over a few MB of dicts,
    float ``repr`` and one larger array operation.  On the development host
    a plain Python loop tracked the CLI's slow stretches poorly; this mix
    tracked them well enough to cut the spread across runs by half or more
    when the host drifted.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._m3 = rng.random((3, 3))
        self._big = rng.random(200_000)
        # atomic values only, so that the garbage collector does not track
        # the dicts and the program's collections do not walk them
        self._objs = [{"a": float(i), "b": str(i), "c": i + 1} for i in range(20_000)]
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        s = 0.0
        for _ in range(150):
            r = self._m3 @ self._m3.T
            s += float(np.linalg.det(r)) + float(np.trace(r))
        f = Fraction(0)
        for k in range(1, 120):
            f += Fraction(1, k) * Fraction(k, k + 1)
        for o in self._objs[::8]:
            s += o["a"] + len(o["b"]) + o["c"]
        text = ",".join(repr(x) for x in self._big[:1500])
        s += float((np.sqrt(self._big * s) + self._big).sum()) + len(text) + float(f)
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def scale(self) -> float:
        """The factor every time of the run is multiplied by."""
        return REF_NOMINAL_S / statistics.median(self.samples)


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Runs passes over one invocation list and keeps the failure counts."""

    def __init__(self, calls: list, cli) -> None:
        self.calls = calls
        self.cli = cli
        self.speed = SpeedRef()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[int, dict] = {}  # invocation index -> SHA-256 of its outputs

    def _call(self, argv: list[str]):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code
        except Exception as exc:  # any escape is a failed invocation, not a crash
            return f"{type(exc).__name__}: {exc}"

    def run_pass(self, tracer=None, warm_up: bool = False, setup: bool = False) -> dict:
        """Time one pass, then check its outputs.

        A warm-up pass makes only the first two non-bulk calls of each label.
        With ``setup``, ``SETUP_PER_PASS`` set-up samples are taken at even
        steps through the pass.  Before a call, one reference sample is taken
        while the samples have taken less than ``REF_SHARE`` of the pass time,
        so that they spread over the pass.  The time of both is left out of
        the pass time.  Times are returned unscaled.
        """
        calls, seen = [], {}
        for i, inv in enumerate(self.calls):
            if warm_up:
                seen[inv.label] = seen.get(inv.label, 0) + 1
                if inv.bulk or seen[inv.label] > 2:
                    continue
            calls.append((i, inv))
        at = set()
        if setup:
            at = {(2 * k + 1) * len(calls) // (2 * SETUP_PER_PASS) for k in range(SETUP_PER_PASS)}
        gc.collect()
        results, latencies, setup_s = [], [], []
        paused = referenced = 0.0
        start = time.perf_counter()
        for j, (_, inv) in enumerate(calls):
            now = time.perf_counter()
            if referenced <= REF_SHARE * (now - start - paused):
                referenced += self.speed.sample()
            if j in at:
                setup_s.append(setup_time())
            paused += time.perf_counter() - now
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = self._call(inv.argv)
                else:
                    with tracer.span("cli.main", label=inv.label):
                        rc = self._call(inv.argv)
            latencies.append(time.perf_counter() - t0)
            results.append((out.getvalue(), rc, err.getvalue()))
        wall = time.perf_counter() - start - paused

        span = tracer.span if tracer is not None else (lambda name, **kw: contextlib.nullcontext())
        failed = 0
        for (i, inv), (text, rc, err) in zip(calls, results):
            self.attempted += 1
            try:
                if rc != 0:
                    raise CheckError(f"exit {rc}: {err.strip()[:300]}")
                inv.check(text, span)
            except (CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{inv.label} {' '.join(inv.argv)[:120]}: {exc}")
            if i not in self.digests:
                self.digests[i] = {
                    "label": inv.label,
                    "stdout": hashlib.sha256(text.encode()).hexdigest(),
                    **{p: sha256(p) for p in inv.outputs if os.path.exists(p)},
                }
        self.failed += failed
        return {"wall": wall, "latencies": latencies, "failed": failed, "setup": setup_s}


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(runner: Runner, passes: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics and the facts printed beside them."""
    interactive = [
        lat
        for p in passes
        for inv, lat in zip(runner.calls, p["latencies"])
        if inv.kind is None
    ]
    metrics = {
        "setup_s": statistics.median(x for p in passes for x in p["setup"]),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_ms": 1e3 * quantile(interactive, 50),
        "op_p95_ms": 1e3 * quantile(interactive, 95),
    }
    by_pass = {}
    for kind, name in RATE_METRICS.items():
        sel = [i for i, inv in enumerate(runner.calls) if inv.kind == kind]
        work = sum(runner.calls[i].work for i in sel)
        by_pass[name] = [work / sum(p["latencies"][i] for i in sel) for p in passes]
        # each invocation's median time over the passes: on a workload where
        # a route has only small calls, one slow call swung the pass's rate
        # by a third
        median_time = sum(statistics.median(p["latencies"][i] for p in passes) for i in sel)
        metrics[name] = work / median_time
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts = {
        "passes": len(passes),
        "op_samples": len(interactive),
        "op_samples_beyond_p95": sum(1 for x in interactive if x > metrics["op_p95_ms"] / 1e3),
        "rates_by_pass": by_pass,
    }
    return metrics, facts


def scaled(p: dict, k: float) -> dict:
    """A pass's times multiplied by the run's scale ``k``."""
    return {
        **p,
        "wall": k * p["wall"],
        "latencies": [k * x for x in p["latencies"]],
        "setup": [k * x for x in p["setup"]],
    }


def per_layer(
    runner: Runner, tracer: Tracer, untraced: list[dict], traced: list[dict]
) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced passes."""
    spans_by_pass: dict[int, list[dict]] = {}
    for s in tracer.spans:
        spans_by_pass.setdefault(s["pass"], []).append(s)
    children: dict[int, list[dict]] = {}
    for s in tracer.spans:
        children.setdefault(s["parent"], []).append(s)

    def per_call_ms(name, **attrs):
        values = [
            dur(s)
            for s in tracer.spans
            if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())
        ]
        return 1e3 * statistics.median(values) if values else float("nan")

    def per_pass_s(fn):
        return statistics.median(fn(spans) for spans in spans_by_pass.values())

    def total(name):
        return lambda spans: sum(dur(s) for s in spans if s["name"] == name)

    def force_rest(spans):
        rest = 0.0
        for s in spans:
            if s["name"] == "cli.main" and s["label"].startswith("force-decompose"):
                inner = sum(
                    dur(c)
                    for c in children.get(s["id"], [])
                    if c["name"] in ("dynamics.from_csv", "dynamics.force_decomposed")
                )
                rest += dur(s) - inner
        return rest

    parse_ms = [
        1e3
        * sum(
            dur(c)
            for c in children.get(s["id"], [])
            if c["name"] in ("cli.build_parser", "cli.parse_args")
        )
        for s in tracer.spans
        if s["name"] == "cli.main"
    ]

    def oracle_ns_per_point(spans):
        calls = [s for s in spans if s["name"] == "vacuum.mode_sum_oracle"]
        return 1e9 * sum(dur(s) for s in calls) / sum(lattice_points(s["n"]) for s in calls)

    metrics = {
        "cli.parse_ms": statistics.median(parse_ms),
        "mission.from_json_ms": per_call_ms("mission.from_json"),
        "mission.evaluate_mission_ms": per_call_ms("mission.evaluate_mission"),
        "mission.solve_for_unknown_ms": per_call_ms("mission.solve_for_unknown"),
        "mission.analytic_solve_for_unknown_ms": per_call_ms("mission.analytic_solve_for_unknown"),
        "mission.sweep_jobs1_s": per_pass_s(total("mission.sweep_jobs1")),
        "mission.sweep_jobs2_s": per_pass_s(total("mission.sweep_jobs2")),
        "mission.sweep_nofile_s": per_pass_s(total("mission.sweep_nofile")),
        "cli.sweep_json_s": per_pass_s(
            lambda spans: sum(dur(s) for s in spans if s.get("label") == "sweep-json")
        ),
        "material.particle_from_dict_s": per_pass_s(total("material.particle_from_dict")),
        "dynamics.run_maneuver_sequence_s": per_pass_s(total("dynamics.run_maneuver_sequence")),
        "dynamics.to_jsonl_s": per_pass_s(total("dynamics.to_jsonl")),
        "dynamics.from_csv_s": per_pass_s(total("dynamics.from_csv")),
        "dynamics.force_decomposed_s": per_pass_s(total("dynamics.force_decomposed")),
        "cli.force_decompose_rest_s": per_pass_s(force_rest),
        "vacuum.mode_sum_oracle_n16_ms": per_call_ms("vacuum.mode_sum_oracle", n=16),
        "vacuum.mode_sum_oracle_n32_ms": per_call_ms("vacuum.mode_sum_oracle", n=32),
        "vacuum.mode_sum_oracle_ns_per_point": per_pass_s(oracle_ns_per_point),
        "vacuum.convergence_study_s": per_pass_s(total("vacuum.convergence_study")),
    }
    module_self = [module_self_seconds(spans) for spans in spans_by_pass.values()]
    for module in LAYER_MODULES:
        metrics[f"self.{module}_s"] = statistics.median(m.get(module, 0.0) for m in module_self)
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall"] for p in untraced)
    metrics["trace.spans_per_pass"] = statistics.median(len(s) for s in spans_by_pass.values())
    metrics["cli.invocations"] = len(runner.calls)
    for kind, name in COUNT_METRICS.items():
        metrics[name] = sum(inv.work for inv in runner.calls if inv.kind == kind)
    metrics["fail_frac"] = runner.failed / runner.attempted
    oracle_by_n: dict[int, list[float]] = {}
    for s in tracer.spans:
        if s["name"] == "vacuum.mode_sum_oracle":
            oracle_by_n.setdefault(s["n"], []).append(1e3 * dur(s))
    facts = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "mode_sum_oracle_ms_by_n": {
            n: statistics.median(v) for n, v in sorted(oracle_by_n.items())
        },
    }
    return metrics, facts


def run(
    workload: str, seed: int, seconds: int, traced_run: bool, work: Path
) -> tuple[dict, dict, Runner]:
    from zpfdrive import cli, mission

    calls = make_workload(workload, seed, work)
    os.chdir(work)  # argv and outputs use paths relative to the work directory
    runner = Runner(calls, cli)
    deadline = time.perf_counter() + seconds
    if not traced_run:
        setup_time()  # unmeasured: the first child writes the bytecode caches
    runner.run_pass(warm_up=True)  # checked and digested, not timed
    tracer = Tracer(workload)
    untraced, traced = [], []
    while True:
        started = time.perf_counter()
        untraced.append(runner.run_pass(setup=not traced_run))
        if traced_run:
            tracer.pass_index = len(traced)
            tracer.sweep_replays.clear()
            with instrument(tracer):
                traced.append(runner.run_pass(tracer))
            for args, kwargs in tracer.sweep_replays:
                with tracer.span("mission.sweep_nofile"):
                    mission.sweep(*args, **kwargs)
            runner.speed.sample()  # closes the replays' stretch
        now = time.perf_counter()
        if now + (now - started) / 2 >= deadline:  # end as near the deadline as passes allow
            break
    k = runner.speed.scale()
    raw_walls = [p["wall"] for p in untraced]
    untraced = [scaled(p, k) for p in untraced]
    traced = [scaled(p, k) for p in traced]
    if traced_run:
        for s in tracer.spans:
            s["scale"] = k
        metrics, facts = per_layer(runner, tracer, untraced, traced)
        tracer.write(RUNS_DIR / f"{workload}-seed{seed}.spans.jsonl")
    else:
        metrics, facts = end_to_end(runner, untraced)
        facts["setup_samples_s"] = [p["setup"] for p in untraced]
    facts["scale"] = k
    facts["reference_samples"] = len(runner.speed.samples)
    facts["pass_walls_s"] = [p["wall"] for p in untraced]
    facts["pass_walls_unscaled_s"] = raw_walls
    facts["traced_pass_walls_s"] = [p["wall"] for p in traced]
    return metrics, facts, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zpfdrive" / "cli.py").is_file():
        print(f"error: no zpfdrive sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zpfdrive

    if Path(zpfdrive.__file__).resolve().parent != SRC / "zpfdrive":
        print(f"error: imported zpfdrive from {zpfdrive.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    RUNS_DIR.mkdir(exist_ok=True)
    work = RUNS_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        metrics, facts, runner = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    bad = [m["name"] for m in wanted if not np.isfinite(metrics[m["name"]])]
    if bad:
        print(f"error: no measurement for {', '.join(bad)}", file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "result": result,
        "facts": facts,
        "failures": runner.failures,
        "digests": [runner.digests[i] for i in sorted(runner.digests)],
    }
    record_path = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    name = f"{args.workload:>16}"
    for m in wanted:
        value = metrics[m["name"]]
        print(f"{name}  {m['name']:<40} {value:>14.6g} {m['unit']}", file=sys.stderr)
    for key, value in facts.items():
        print(f"{name}  {key}: {value}", file=sys.stderr)
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    digest_of_digests = hashlib.sha256(json.dumps(record["digests"]).encode()).hexdigest()
    print(f"{name}  outputs sha256 (all invocations): {digest_of_digests}", file=sys.stderr)
    print(f"{name}  record: {record_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
