"""The engine benchmark: one command, three closed-loop workloads.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload adhoc-join --seed 1 --seconds 15 --trace 0

Each run measures one workload (see ``NOTES.md``) with one client thread
in a closed loop.  A run does a fixed number of ops, ``--seconds`` times
the workload's op rate on the reference host, so two commits do the same
work; at least 100 ops, so at least 10 latency samples lie beyond p90.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit, the host and the measured
``ExecutionConfig``.

- ``--trace 0`` reports the end-to-end metrics.  The closed loop runs in
  a fresh process; ``setup_s`` is the median of ``SETUP_SAMPLES`` set-ups,
  each in a fresh process, because the intern table and the evaluation
  memo are process-wide and never cleared.
- ``--trace 1`` reports the per-layer metrics: the untraced loop runs
  first, then a second fresh process replays the same ops with spans
  around each layer's entry points (``layers.py``).  The traced answers
  must be identical to the untraced ones.

Times in the result are scaled to the reference host's speed.  On the
reference host, a 2-vCPU virtual machine shared with other tenants, CPU
speed drifts by up to 1.7x over tens of seconds, which would swamp any
regression bound.  So before every op,
and before each set-up, the run times a fixed pure-Python kernel
(``_calibrate``); each op's wall time is multiplied by
``CALIBRATION_REFERENCE_S`` over the median kernel time of the 31 ops
around it.  A change to the program moves the op times but not the
kernel, so scaled times compare commits; the raw wall-clock figures are
printed on ``# wall`` lines.

Every ``REPRO_*`` environment variable is removed from the measured
processes and the engine config is spelled out field by field, so a CI
lane's settings cannot change what is measured.  The benchmark needs the
checkout's ``src/`` and exits with status 2 without a result when it is
missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKLOAD_NAMES = ("adhoc-join", "churn", "uncertain-answers")
SETUP_SAMPLES = 3
#: At least 10 latency samples lie beyond p90.
MIN_OPS = 100
#: A run stops early once its op time exceeds this many --seconds, so a
#: much slower commit still ends within the deadline.
OVERRUN = 5.0
#: Wall-clock budget of one invocation, all child processes included.
DEADLINE_SECONDS = 170.0
#: ``_calibrate``'s time on the reference host when no other tenant
#: slows it (2 cores, x86-64, CPython 3.11.7).
CALIBRATION_REFERENCE_S = 0.0025
#: Calibrations on each side of an op that set its speed.
CALIBRATION_WINDOW = 15
#: Calibrations before a set-up.
SETUP_CALIBRATIONS = 15


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the smoke test",
    )
    # Internal: the measured child processes.
    parser.add_argument("--phase", choices=("run", "setup", "loop", "traced"), default="run", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Orchestration (the process the user starts)
# ----------------------------------------------------------------------

def _child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SOURCE)
    # Answers are compared across processes; fix str hashing so set and
    # dict iteration orders inside the engine repeat too.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: argparse.Namespace, phase: str, deadline: float, *extra: str) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--phase", phase, *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left for the {phase} process")
    # subprocess.run kills and reaps the child when the timeout expires.
    completed = subprocess.run(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True, timeout=remaining,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"the {phase} process exited with status {completed.returncode}")
    lines = [line for line in completed.stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def _scaled_latencies(run: Dict[str, Any]) -> List[float]:
    """Op times scaled to the reference speed, each by the median
    calibration of the ops around it."""
    latencies, calibrations = run["latencies"], run["calibrations"]
    scaled = []
    for index, latency in enumerate(latencies):
        window = calibrations[max(0, index - CALIBRATION_WINDOW):index + CALIBRATION_WINDOW + 1]
        scaled.append(latency * CALIBRATION_REFERENCE_S / statistics.median(window))
    return scaled


def _setup_seconds(run: Dict[str, Any]) -> float:
    return run["setup_s"] * CALIBRATION_REFERENCE_S / run["setup_calibration"]


def _timings(latencies: List[float], setups: List[float]) -> Dict[str, Any]:
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
        "latency_p90_ms": {"value": 1000.0 * statistics.quantiles(latencies, n=10)[8], "unit": "ms"},
    }


def _end_to_end(loop: Dict[str, Any], setups: List[Dict[str, Any]]) -> Dict[str, Any]:
    metrics = _timings(_scaled_latencies(loop), [_setup_seconds(run) for run in setups])
    error_rate = len(loop["wrong"]) / len(loop["latencies"])
    # error_rate is 0 on a correct program; the ledger tracks its
    # complement, which is never 0.
    metrics["success_rate"] = {"value": 1.0 - error_rate, "unit": "ratio"}
    metrics["peak_rss_mb"] = {"value": loop["peak_rss_mb"], "unit": "MB"}
    wall = _timings(loop["latencies"], [run["setup_s"] for run in setups])
    for name, metric in wall.items():
        print(f"# wall {name} {metric['value']:.6g} {metric['unit']}")
    return metrics


def _orchestrate(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + DEADLINE_SECONDS
    try:
        loop = _spawn(args, "loop", deadline)
        attempted = len(loop["latencies"])
        print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"{attempted} ops in {sum(loop['latencies']):.2f} s of wall-clock op time")
        print("# host " + json.dumps(loop["host"], sort_keys=True))
        print("# config " + json.dumps(loop["config"], sort_keys=True))
        problems = list(loop["errors"]) + list(loop["cache_errors"])
        if args.trace == 0:
            setups = [loop] + [_spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
            metrics = _end_to_end(loop, setups)
        else:
            traced = _spawn(args, "traced", deadline, "--ops", str(len(loop["latencies"])))
            problems += traced["errors"] + traced["cache_errors"] + traced["coverage_errors"]
            if traced["digests"] != loop["digests"]:
                problems.append("traced answers differ from the untraced ones")
            # Layer times scale like op times: set-up totals (s) by the
            # set-up calibration, per-op times (ms) by the run's.
            speed = {
                "s": CALIBRATION_REFERENCE_S / traced["setup_calibration"],
                "ms": CALIBRATION_REFERENCE_S / statistics.median(traced["calibrations"]),
            }
            metrics = {
                name: {"value": value * speed.get(unit, 1.0), "unit": unit}
                for name, (value, unit) in traced["layers"].items()
            }
            op_seconds = sum(traced["latencies"])
            metrics["unattributed_share"] = {
                "value": (op_seconds - traced["covered_seconds"]) / op_seconds, "unit": "ratio",
            }
            metrics["bench.trace_overhead"] = {
                "value": sum(_scaled_latencies(traced)) / sum(_scaled_latencies(loop)) - 1.0,
                "unit": "ratio",
            }
            print("# attribution " + json.dumps({
                "op_seconds": op_seconds,
                "covered_seconds": traced["covered_seconds"],
                "self_seconds": traced["self_seconds"],
            }, sort_keys=True))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 3
    print(f"error_rate {len(loop['wrong']) / attempted:.6g} ratio")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(loop["wrong"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Measured child processes
# ----------------------------------------------------------------------

def _calibrate() -> float:
    """Wall time of a fixed pure-Python kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total, table = 0, {}
        for index in range(20_000):
            total += (index * 7) % 13
            table[index & 255] = (total, index)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def _host() -> Dict[str, Any]:
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil_enabled": True if gil is None else gil(),
        "platform": platform.platform(),
    }


class _CacheDeltas:
    """Engine cache counters summed over the ops only (not set-up)."""

    def __init__(self, engine: Any) -> None:
        self._readers = {
            "plan": engine.plan_cache_stats,
            "result": engine.result_cache_stats,
            "circuit": engine.circuit_cache_stats,
        }
        self.totals = {(cache, field): 0 for cache in self._readers for field in ("hits", "misses", "evictions")}

    def read(self) -> Dict[str, Dict[str, int]]:
        return {cache: reader() for cache, reader in self._readers.items()}

    def add(self, before: Dict[str, Dict[str, int]]) -> None:
        after = self.read()
        for cache, field in self.totals:
            self.totals[cache, field] += after[cache][field] - before[cache][field]

    def summary(self) -> Dict[str, float]:
        def ratio(cache: str) -> float:
            hits, misses = self.totals[cache, "hits"], self.totals[cache, "misses"]
            return hits / (hits + misses) if hits + misses else 0.0

        return {
            "plan_hit_ratio": ratio("plan"),
            "result_hit_ratio": ratio("result"),
            "result_evictions": self.totals["result", "evictions"],
            "circuit_hit_ratio": ratio("circuit"),
        }


def _child(args: argparse.Namespace) -> int:
    leaked = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if leaked:
        raise SystemExit(f"perfbench: measured process sees {leaked}")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from dataclasses import asdict

    from repro import Engine
    from repro.logic import evaluation_cache_stats, interning_stats
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.scale)
    tracer = None
    if args.phase == "traced":
        tracer = layers.Tracer()
        layers.install(tracer)
    data = workload.generate(args.seed)
    gc.collect()
    setup_calibration = statistics.median(_calibrate() for _ in range(SETUP_CALIBRATIONS))
    if tracer is not None:
        tracer.phase = "setup"
    started = time.perf_counter()
    engine = Engine(workloads.config_for(workload.maintenance))
    state = workload.setup(engine, data)
    setup_s = time.perf_counter() - started
    if tracer is not None:
        tracer.phase = None
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_calibration": setup_calibration}))
        return 0
    gc.collect()

    cache = _CacheDeltas(engine)
    ops: List[Any] = []
    latencies: List[float] = []
    calibrations: List[float] = []
    fingerprints: Dict[str, str] = {}
    records: Dict[int, Any] = {}
    wrong = set()
    errors: List[str] = []
    stride = workload.oracle_stride
    answer: Any = None
    # A fixed amount of work: the same ops on every commit.
    target = args.ops if args.ops is not None else max(MIN_OPS, round(args.seconds * workload.ops_per_second))
    elapsed = 0.0
    while len(ops) < target:
        if args.ops is None and elapsed >= OVERRUN * args.seconds:
            break
        index = len(ops)
        op = workload.next_op(state, index)
        if op is None:
            break
        ops.append(op)
        calibrations.append(_calibrate())
        before = cache.read()
        if tracer is not None:
            tracer.phase = "ops"
        started = time.perf_counter()
        try:
            answer = workload.run_op(state, op)
        except Exception as error:  # an op that raises counts as failed
            answer = None
            wrong.add(index)
            errors.append(f"op {index} raised {error!r}")
        finally:
            latencies.append(time.perf_counter() - started)
            elapsed += latencies[-1]
            if tracer is not None:
                tracer.phase = None
        if tracer is not None:
            tracer.settle_op()
        cache.add(before)
        if answer is not None and (index + 1) % stride == 0:
            fingerprints[str(index)], records[index] = workload.record(state, answer)
    last = len(ops) - 1
    if answer is not None and last not in records:
        fingerprints[str(last)], records[last] = workload.record(state, answer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        # The traced replay is checked against these answers instead.
        oracle_wrong, oracle_errors = workload.verify(data, ops, records)
        wrong |= oracle_wrong
        errors += oracle_errors
    output: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_calibration": setup_calibration,
        "latencies": latencies,
        "calibrations": calibrations,
        "wrong": sorted(wrong),
        "errors": errors[:20],
        "cache_errors": workload.cache_errors(engine, len(ops)),
        "peak_rss_mb": peak_rss_mb,
        "digests": fingerprints,
        "config": asdict(engine.config),
        "host": _host(),
    }
    if tracer is not None:
        calls = tracer.calls["setup"] + tracer.calls["ops"]
        memo = evaluation_cache_stats()
        process = {
            "intern_table_size": interning_stats()["live_nodes"],
            "eval_memo_entries": memo["evaluate_entries"] + memo["partial_evaluate_entries"],
        }
        output.update(
            layers={
                name: list(metric)
                for name, metric in layers.per_layer_metrics(tracer, len(ops), cache.summary(), process).items()
            },
            covered_seconds=tracer.covered["ops"],
            self_seconds=dict(tracer.self_seconds["ops"]),
            coverage_errors=[
                f"entry point {entry} recorded no call" for entry in workload.expected_calls if not calls[entry]
            ],
        )
    print(json.dumps(output))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    # Turn SIGTERM into an exception: subprocess.run then kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SOURCE / 'repro'} not found; run from a repository checkout", file=sys.stderr)
        return 2
    if args.phase == "run":
        return _orchestrate(args)
    return _child(args)


if __name__ == "__main__":
    sys.exit(main())
