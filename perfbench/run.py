"""qdtimebin benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,fit,tomo} --seed N \
        --seconds S --trace {0,1}

The run generates the workload's configs from the seed.  With
``--trace 0`` it first times set-up in fresh interpreters.  It then loads
the simulator and runs the workload's CLI subcommands in process: a
warm-up, then passes until the next would end after ``S`` seconds (at
least one).  Every pass's outputs are checked.  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object.  A record of the run
(environment, checks, physics fingerprint, per-pass numbers) is written to
``perfbench/.run/``; traced runs also leave their spans there.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = BENCH / ".run"

# Set-up is ~0.7 s, so its median over this many interpreters costs ~8 s.
SETUP_REPEATS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def pin_threads(env) -> None:
    """One BLAS/OpenMP thread: the matrices are 4x4 to 18x18."""
    env.update({var: "1" for var in THREAD_VARS})


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure_setup(config_paths: list[str]) -> tuple[list[float], int]:
    """Seconds from spawning a fresh interpreter until it is ready, for
    each repeat, and the number of repeats that failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pin_threads(env)
    times, failed = [], 0
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), *config_paths],
            capture_output=True, text=True, env=env, timeout=60)
        times.append(perf_counter() - t)
        if proc.stdout.strip() != "ready" or proc.returncode != 0:
            failed += 1
            print(f"set-up probe failed: {proc.stderr.strip()}",
                  file=sys.stderr)
    return times, failed


def load_simulator():
    """Import the simulator from the checkout's sources, after the set-up
    probes so that their memory and this process's stay apart."""
    pin_threads(os.environ)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from qdtimebin import cli
    env = {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qdtimebin": str(Path(cli.__file__).resolve().parent.relative_to(
            ROOT)),
        "git_sha": git_sha(),
    }
    return cli, env


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Drives one workload's subcommands through ``qdtimebin.cli.main``."""

    def __init__(self, cli, workload: str, build: dict,
                 config_paths: dict, work: Path):
        self.cli = cli
        self.workload = workload
        self.build = build
        self.config_paths = config_paths
        self.out_root = work / "out"
        self.errors: list[str] = []

    def _call(self, sub: str, name: str, out: Path) -> int:
        """Exit code of one subcommand; its output is kept on failure."""
        argv = [sub, "--config", self.config_paths[name], "--out", str(out)]
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                rc = self.cli.main(argv)
            except Exception:  # a traceback is a failed operation
                traceback.print_exc()
                rc = -1
        if rc != 0:
            self.errors.append(f"{sub} {name}: exit {rc}\n{sink.getvalue()}")
        return rc

    def warmup(self) -> dict:
        codes = [self._call(sub, name, self.out_root / "warm")
                 for sub, name in self.build["warmup"]]
        shutil.rmtree(self.out_root, ignore_errors=True)
        return {"ops": len(codes), "failed": sum(rc != 0 for rc in codes)}

    def run_pass(self, tracer: tracing.Tracer | None) -> dict:
        shutil.rmtree(self.out_root, ignore_errors=True)
        outs, codes = {}, []
        root_ctx = tracer.span("pass") if tracer else nullcontext()
        t0 = perf_counter()
        with root_ctx as root:
            for i, (sub, name) in enumerate(self.build["steps"]):
                out = self.out_root / f"{i}-{sub}-{name}"
                with tracer.span(f"cli.{sub}") if tracer else nullcontext():
                    codes.append(self._call(sub, name, out))
                outs[(sub, name)] = out
        wall = perf_counter() - t0

        try:
            result = workloads.check(self.workload, outs,
                                     self.build["configs"])
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            self.errors.append(f"outputs unreadable: {exc!r}")
            result = {"checks": {"outputs_readable": False}, "fingerprint": {}}
        checks = result["checks"]
        rec = {
            "traced": tracer is not None,
            "wall_s": wall,
            "ops": len(codes) + len(checks) + result.get("points", 0),
            "failed": (sum(rc != 0 for rc in codes)
                       + sum(not ok for ok in checks.values())
                       + result.get("point_failures", 0)),
            "checks": checks,
            "fingerprint": result["fingerprint"],
        }
        if tracer is not None:
            root["attrs"]["bytes_written"] = _dir_bytes(self.out_root)
            rec["layers"], rec["split"] = tracing.pass_metrics(tracer.spans,
                                                               root)
        return rec


def run_passes(runner: Runner, seconds: float, tracer) -> list[dict]:
    """Rounds while the next is expected to end within ``seconds``; a
    traced round pairs an untraced pass with a traced one."""
    passes = []
    start = perf_counter()
    while True:
        t = perf_counter()
        passes.append(runner.run_pass(None))
        if tracer is not None:
            tracer.install()
            try:
                passes.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
        if perf_counter() - start + (perf_counter() - t) > seconds:
            return passes


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload once; returns the full record of the run."""
    if not (SRC / "qdtimebin" / "__init__.py").is_file():
        raise BenchmarkError(f"simulator sources not found under {SRC}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    build = workloads.build(workload, seed)
    tag = f"{workload}-{seed}-trace{int(trace)}"
    work = RUN_DIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_paths = {}
        for name, cfg in build["configs"].items():
            path = work / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=1))
            config_paths[name] = str(path)
        # set-up is an end-to-end metric only; the traced run skips it
        setup_times, setup_failed = [], 0
        if not trace:
            setup_times, setup_failed = measure_setup(
                [config_paths[name] for name in
                 dict.fromkeys(name for _, name in build["steps"])])
        cli, env = load_simulator()
        runner = Runner(cli, workload, build, config_paths, work)
        warm = runner.warmup()
        tracer = tracing.Tracer() if trace else None
        passes = run_passes(runner, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        (RUN_DIR / f"spans-{tag}.json").write_text(json.dumps(
            {"absent": tracer.absent, "spans": tracer.spans}))

    attempted = (len(setup_times) + warm["ops"]
                 + sum(p["ops"] for p in passes))
    failed = setup_failed + warm["failed"] + sum(p["failed"] for p in passes)
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    # Time per pass at the run's throughput.  The machine's speed shifts
    # by up to 25 % in phases of seconds; a median of a few passes snaps to
    # one phase, the mean over the whole measured time blends them.
    values = {"wall_s": statistics.fmean(plain), "peak_rss_mb": peak_rss_mb}
    if setup_times:
        values["setup_s"] = statistics.median(setup_times)
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        for name in traced[0]["layers"]:
            values[name] = statistics.median(p["layers"][name]
                                             for p in traced)
        # each traced pass against the untraced pass of its own round
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u for t, u in zip(traced, plain))
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics not measured: {', '.join(missing)}")
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "env": env, "setup_runs_s": setup_times,
        "passes": passes,
        "absent": tracer.absent if tracer is not None else [],
        "errors": runner.errors[:5],
        "fail_frac": failed / attempted,
        "all_values": values,
        "result": {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in listed},
        },
    }


def print_record(rec: dict) -> None:
    res = rec["result"]
    n_plain = sum(not p["traced"] for p in rec["passes"])
    print(f"workload {rec['workload']}, seed {rec['seed']}, trace "
          f"{rec['trace']}: {n_plain} untraced and "
          f"{len(rec['passes']) - n_plain} traced pass(es)")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_frac = {rec['fail_frac']:.6g} "
          f"({res['failed']} of {res['attempted']} operations)")
    checks = rec["passes"][-1]["checks"]
    print("  checks: " + ", ".join(f"{k} {'ok' if v else 'FAILED'}"
                                   for k, v in checks.items()))
    print("  fingerprint: " + json.dumps(rec["passes"][-1]["fingerprint"]))
    if rec["absent"]:
        print("  absent (reported as 0): " + ", ".join(rec["absent"]))
    for err in rec["errors"]:
        print("  error: " + err.strip().replace("\n", "\n    "))
    print("  env: " + json.dumps(rec["env"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, ImportError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    (RUN_DIR / f"record-{rec['workload']}-{rec['seed']}-trace"
               f"{rec['trace']}.json").write_text(json.dumps(rec, indent=1))
    print_record(rec)
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
