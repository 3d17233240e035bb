"""Steady end-to-end benchmark of the profiling stack (see README.md).

    python3 steadybench/run.py --workload profile-count --seed 1 \\
        --seconds 12 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The line before it is the run's provenance.

Other modes: ``--smoke`` (one small checked op per workload),
``--self-test``, ``--write-expected`` and ``--check-expected``.

This coordinator never imports the program under test.  It starts every
measuring interpreter (``child.py``) with a scrubbed environment, a fresh
disk store and a warmed bytecode cache, and derives the metrics from the
records they write.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import monotonic
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ops as bench_ops  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".steadybench")

#: setup_s is the median over this many fresh interpreters per run.
SETUP_SAMPLES = 5
#: Median calibration run (child.calibrate) on the 2-vCPU x86 host the
#: benchmark was defined on, at a quiet time.  Time metrics are scaled to
#: that host speed.
REFERENCE_CALIBRATION_S = 0.0025
#: Every run finishes well inside the three minutes a run may take.
RUN_BUDGET_S = 170.0
#: Environment kept for the measuring interpreters; everything else --
#: REPRO_FAULTS, REPRO_VERIFY_IR, REPRO_DISK_CACHE, REPRO_CACHE_DIR,
#: MPERF_INSTRUMENT, PYTHON* knobs such as PYTHONDONTWRITEBYTECODE -- is
#: dropped, so a stray setting in the caller's shell cannot change the
#: program being measured.
KEPT_ENV = ("PATH", "HOME", "LANG", "LC_ALL", "LC_CTYPE", "USER", "LOGNAME")


def scrubbed_env(work: str, store: str) -> Dict[str, str]:
    env = {key: os.environ[key] for key in KEPT_ENV if key in os.environ}
    env.update({
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "REPRO_CACHE_DIR": store,
        "TMPDIR": os.path.join(work, "tmp"),
    })
    return env


def run_child(argv: List[str], env: Dict[str, str], deadline: float) -> None:
    """Run one interpreter to completion in its own process group; on
    failure or past the deadline, kill the whole group and raise."""
    process = subprocess.Popen([sys.executable] + argv, env=env, cwd=ROOT,
                               stdout=subprocess.DEVNULL,
                               start_new_session=True)
    try:
        code = process.wait(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} failed "
                           f"({'timed out' if code is None else code})")


class Run:
    """One benchmark run's private directory and interpreters."""

    def __init__(self, label: str) -> None:
        self.work = os.path.join(WORK_ROOT, f"{label}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "tmp"))
        self.children = 0
        self.deadline = monotonic() + RUN_BUDGET_S

    def env(self) -> Dict[str, str]:
        self.children += 1
        return scrubbed_env(self.work, os.path.join(
            self.work, f"store-{self.children}"))

    def warm_bytecode(self) -> None:
        """One untimed interpreter compiles every module the run imports,
        so no timed interpreter pays for bytecode compilation.  A checkout
        that cannot hold bytecode still runs, only with slower set-ups."""
        try:
            run_child(["-m", "compileall", "-q", os.path.join(SRC, "repro"),
                       HERE], self.env(), self.deadline)
        except RuntimeError as error:
            print(f"steadybench: bytecode not warmed: {error}",
                  file=sys.stderr)

    def child(self, workload: str, seed: int, mode: str,
              rounds: int = 1) -> dict:
        out = os.path.join(self.work, f"record-{self.children + 1}.json")
        env = self.env()
        launched = monotonic()
        run_child([os.path.join(HERE, "child.py"), "--workload", workload,
                   "--seed", str(seed), "--rounds", str(rounds),
                   "--mode", mode, "--work", self.work, "--out", out],
                  env, self.deadline)
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)
        record["setup_s"] = record["ready"] - launched
        return record

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


# -- statistics ---------------------------------------------------------------------------


def normalised_sections(rounds: List[dict]) -> Dict[str, List[float]]:
    """Every timed section's times by key, each scaled to the reference
    host speed by the calibration runs that bracket it.

    On a shared host the speed of the whole machine moves by 10-60% within
    minutes and seconds (neighbours on sibling hyperthreads; steal is
    small), for the program and the calibration kernel alike.  Scaling each
    section by its own neighbouring calibration cancels the host's speed at
    that moment and leaves every change of the program in place.
    """
    times: Dict[str, List[float]] = {}
    for round_record in rounds:
        for key, seconds, calibration in round_record["sections"]:
            times.setdefault(key, []).append(
                seconds * REFERENCE_CALIBRATION_S / calibration)
    return times


def typical_round_s(rounds: List[dict]) -> float:
    """The round time ops_per_s is derived from: the sum over a round's
    timed sections (its ops, or its sweep passes) of each section's median
    normalised time.  Rounds are fixed work, so every section repeats once
    per round; medians of normalised times repeat between runs to a few
    per cent even under heavy contention, where the fastest round or the
    fastest run of each op does not."""
    times = normalised_sections(rounds)
    return sum(statistics.median(times[key])
               for key, _seconds, _calibration in rounds[0]["sections"])


def typical_latencies(rounds: List[dict]) -> List[float]:
    """Each op sample replaced by the median normalised latency of its op
    (name and kind) across the run, in ms.  A sweep cell's latency is its
    pass.  Percentiles of these cannot jump between neighbouring op sizes
    when a few samples slow down."""
    times = {key: statistics.median(values) * 1000
             for key, values in normalised_sections(rounds).items()}
    return [times[op.get("section", f"{op['name']}|{op['kind']}")]
            for round_record in rounds for op in round_record["ops"]]


def quartiles(values: List[float]) -> dict:
    values = list(values)
    if len(values) < 2:
        value = values[0] if values else 0.0
        return {"median": value, "q1": value, "q3": value, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def host_slowdown(record: dict) -> float:
    """The run's median calibration over the reference one (above 1: this
    host ran slower than the reference host)."""
    calibrations = [calibration for r in record["rounds"]
                    for _key, _seconds, calibration in r["sections"]]
    return statistics.median(calibrations) / REFERENCE_CALIBRATION_S


def end_to_end(record: dict, setup: List[float]) -> tuple:
    rounds = record["rounds"]
    walls = [r["wall_s"] for r in rounds]
    ops = [op for r in rounds for op in r["ops"]]
    per_round_ops = [len(r["ops"]) for r in rounds]
    per_round_instr = [sum(op["instructions"] for op in r["ops"])
                       for r in rounds]
    slowdown = host_slowdown(record)
    low = typical_round_s(rounds)
    latencies = typical_latencies(rounds)
    ok = sum(1 for op in ops if op["ok"])
    setup = [value / slowdown for value in setup]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(per_round_ops) / low, "1/s"),
        "sim_minstr_per_s": (statistics.median(per_round_instr) / low / 1e6,
                             "Minstr/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "peak_rss_mb": (sum(record["peak_rss_mb"].values()), "MB"),
        "ok_ratio": (ok / len(ops), "ratio"),
    }
    distributions = {
        "host_slowdown": slowdown,
        "setup_s": quartiles(setup),
        "round_s": quartiles([wall / slowdown for wall in walls]),
        "op_ms": quartiles(latencies),
        "peak_rss_mb": record["peak_rss_mb"],
        "ok_ratio": quartiles([sum(1 for op in r["ops"] if op["ok"])
                               / len(r["ops"]) for r in rounds]),
    }
    return metrics, distributions, len(ops), len(ops) - ok


def traced(record: dict) -> tuple:
    rounds = record["rounds"]
    ops = [op for r in rounds for op in r["ops"]]
    ok = sum(1 for op in ops if op["ok"])
    metrics = {name: (entry["value"], entry["unit"])
               for name, entry in record["layers"].items()}
    distributions = {
        "host_slowdown": host_slowdown(record),
        "round_s.untraced": quartiles([r["wall_s"] for r in rounds
                                       if not r["traced"]]),
        "round_s.traced": quartiles([r["wall_s"] for r in rounds
                                     if r["traced"]]),
    }
    return metrics, distributions, len(ops), len(ops) - ok


# -- provenance ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(args, rounds: int, distributions: dict) -> dict:
    return {"provenance": {
        "host": platform.node(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "setup_samples": SETUP_SAMPLES if not args.trace else 0,
        "metrics": distributions,
    }}


# -- modes --------------------------------------------------------------------------------


def benchmark(args) -> int:
    rounds = bench_ops.round_count(args.workload, args.seconds)
    run = Run(f"{args.workload}-{args.seed}")
    try:
        run.warm_bytecode()
        if args.trace:
            record = run.child(args.workload, args.seed, "trace", rounds)
            metrics, distributions, attempted, failed = traced(record)
        else:
            setup = [run.child(args.workload, args.seed, "setup")["setup_s"]
                     for _ in range(SETUP_SAMPLES - 1)]
            record = run.child(args.workload, args.seed, "measure", rounds)
            setup.append(record["setup_s"])
            metrics, distributions, attempted, failed = end_to_end(record,
                                                                   setup)
    finally:
        run.close()
    print(json.dumps(provenance(args, rounds, distributions),
                     sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def smoke(workloads: List[str]) -> int:
    """One small checked op (for sweep-cold a two-cell plan, for serve-mix
    a miss and a hit) per workload."""
    failed = []
    for workload in workloads:
        run = Run(f"smoke-{workload}")
        try:
            record = run.child(workload, 0, "smoke")
        finally:
            run.close()
        ops = [op for r in record["rounds"] for op in r["ops"]]
        ok = bool(ops) and all(op["ok"] for op in ops)
        print(f"smoke {workload}: {len(ops)} op(s) "
              f"{'ok' if ok else 'FAILED'}")
        if not ok:
            failed.append(workload)
    return 1 if failed else 0


def expected(check: bool) -> int:
    run = Run("expected")
    try:
        run_child([os.path.join(HERE, "expect.py")]
                  + (["--check"] if check else []), run.env(),
                  monotonic() + 3600)
    except RuntimeError as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        run.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(bench_ops.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--check-expected", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("steadybench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.call([sys.executable,
                                os.path.join(HERE, "selftest.py")], cwd=ROOT)
    if args.smoke:
        return smoke([args.workload] if args.workload
                     else list(bench_ops.WORKLOADS))
    if args.write_expected or args.check_expected:
        return expected(check=args.check_expected)
    missing = [flag for flag in ("workload", "seed", "seconds", "trace")
               if getattr(args, flag) is None]
    if missing:
        parser.error("missing --" + ", --".join(missing))
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
