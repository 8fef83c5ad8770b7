"""covsel benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload {sim-oracle,rates,regress-enum,all}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the program is taken from src/ next to this directory.
Each measured run of a workload is a fresh single-threaded Python process
(bench/child.py) that imports covsel.cli and drives covsel.cli.main(argv).
With --trace 0 the end-to-end metrics are printed; with --trace 1 a
traced run gives the per-layer metrics. Times are given at a reference
host speed, measured in the same process (README.md, Host speed).
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. See
bench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROGRAM = ROOT / "src" / "covsel"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_RUNS = 3  # measured runs per benchmark run, even past --seconds
MIN_TRACED = 2  # traced and untraced runs each, with --trace 1
CHILD_TIMEOUT = 150  # seconds; a run that hangs fails its items
# child.probe()'s wall time at the reference host speed, a round figure
# near its fastest calls on a 2-core Intel Xeon VM at 2.1 GHz. Every
# reported time is converted to this speed (see at_reference, README.md).
PROBE_REF_S = 0.002
END_TO_END_UNITS = {"setup_s": "s", "total_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("COVSEL_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(seed, env):
    """What a result needs to be compared with another (ROADMAP O1)."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(PROGRAM.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars": {var: env[var] for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Runner:
    """Spawns the fresh processes of one benchmark run, all inside `work`."""

    def __init__(self, work, env):
        self.work, self.env, self.count = work, env, 0

    def spawn(self, commands=(), trace=False):
        """Run one child; returns its result dict, or None if it failed."""
        self.count += 1
        spec = {
            "commands": [cmd.argv for cmd in commands],
            "trace": trace,
            "spans": str(self.work / f"spans-{self.count}.npz"),
            "result": str(self.work / f"result-{self.count}.json"),
        }
        spec_path = self.work / f"spec-{self.count}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        for cmd in commands:
            for out in cmd.outputs:
                out.unlink(missing_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec_path)],
                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=CHILD_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            print(f"# child {self.count} timed out after {CHILD_TIMEOUT} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"# child {self.count} exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        result["spans"] = spec["spans"]
        return result


def check(workload, result):
    """Failed items of one workload run, and the first reason."""
    if result is None:
        return workload.items, "process failed"
    failed, reasons = 0, []
    for cmd, code in zip(workload.commands, result["exit_codes"]):
        if code != 0:
            lost, why = cmd.items, f"{cmd.argv[0]} exited {code}"
        else:
            try:
                lost, why = cmd.check()
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                lost, why = cmd.items, f"{cmd.argv[0]} output is malformed: {exc!r}"
        failed += lost
        if why:
            reasons.append(why)
    return failed, (reasons[0] if reasons else None)


def keep_going(count, minimum, elapsed, last, seconds):
    """Start another run while time remains, or until `minimum` runs; a
    run whose runs are far longer than planned stops after one."""
    if elapsed + last > 4 * seconds:
        return count == 0
    return count < minimum or elapsed + last <= seconds


def at_reference(result):
    """Import and command times of one process at the reference host
    speed: each phase's time (probe pauses excluded) times the mean probe
    rate measured during it, times PROBE_REF_S."""
    setup = result["setup_s"] * result["setup_probe_rate"] * PROBE_REF_S
    command = sum(t * r * PROBE_REF_S for t, r in zip(result["command_s"], result["command_probe_rate"]))
    return setup, command


def measure(workload, runner, seconds, trace):
    """Returns (metrics, attempted, failed, reasons, samples)."""
    from tracing import summarize

    runner.spawn()  # warm-up: byte-compiles the sources, fills the file cache
    attempted = failed = 0
    reasons = []
    samples = {key: [] for key in (
        "setup_s", "command_s", "wall_setup_s", "wall_command_s", "probe_rate",
        "peak_rss_mb", "traced_command_s", "trace_overhead",
    )}
    layers = []
    start = time.monotonic()
    last = 0.0
    while keep_going(len(samples["command_s"]), MIN_TRACED if trace else MIN_RUNS, time.monotonic() - start, last, seconds):
        cycle = time.monotonic()
        times = {}
        # traced and untraced processes take turns going first
        plan = ((False, True) if len(samples["command_s"]) % 2 == 0 else (True, False)) if trace else (False,)
        for traced in plan:
            result = runner.spawn(workload.commands, trace=traced)
            lost, why = check(workload, result)
            attempted += workload.items
            failed += lost
            if why:
                reasons.append(why)
            if result is None:
                continue
            setup, times[traced] = at_reference(result)
            samples["probe_rate"].append([result["setup_probe_rate"], *result["command_probe_rate"]])
            if traced:
                samples["traced_command_s"].append(times[traced])
                scale = PROBE_REF_S * statistics.fmean(result["command_probe_rate"])
                layers.append({
                    name: (value * scale if unit in ("s", "us") else value, unit)
                    for name, (value, unit) in summarize(result["spans"], workload.items).items()
                })
            else:
                samples["setup_s"].append(setup)
                samples["command_s"].append(times[traced])
                samples["wall_setup_s"].append(result["setup_s"])
                samples["wall_command_s"].append(sum(result["command_s"]))
                samples["peak_rss_mb"].append(result["peak_rss_mb"])
            Path(result["spans"]).unlink(missing_ok=True)
        if len(times) == 2:
            # each traced process is compared with the untraced one next to it
            samples["trace_overhead"].append(times[True] / times[False] - 1)
        last = time.monotonic() - cycle
    if not samples["command_s"] or (trace and not samples["trace_overhead"]):
        return None, attempted, failed, reasons, samples
    if trace:
        metrics = {
            name: {"value": statistics.median(run[name][0] for run in layers), "unit": unit}
            for name, (_, unit) in layers[0].items()
        }
        metrics["trace.overhead_frac"] = {"value": statistics.median(samples["trace_overhead"]), "unit": "frac"}
    else:
        setup_s, command_s = statistics.median(samples["setup_s"]), statistics.median(samples["command_s"])
        values = {
            "setup_s": setup_s,
            "total_s": setup_s + command_s,
            "items_per_s": workload.items / command_s,
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return metrics, attempted, failed, reasons, samples


def run_workload(name, seed, seconds, trace, env):
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work)
        metrics, attempted, failed, reasons, samples = measure(workload, Runner(work, env), seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        print(f"# {name}: no run completed; first failure: {reasons[0] if reasons else 'none'}", file=sys.stderr)
        return None
    print(f"# workload {name}: {workload.items} {workload.item}s per run; {workload.why}")
    for metric, entry in metrics.items():
        print(f"{name:<13} {metric:<56} {entry['value']:>14.6g} {entry['unit']}")
    if not trace:
        print(f"{name:<13} {'failed_frac':<56} {failed / max(attempted, 1):>14.6g} frac  ({failed} of {attempted} items)")
        wall_setup, wall_command = statistics.median(samples["wall_setup_s"]), statistics.median(samples["wall_command_s"])
        speed = PROBE_REF_S * statistics.median(r for rates in samples["probe_rate"] for r in rates)
        print(f"# {len(samples['command_s'])} workload runs; unscaled wall medians: setup {wall_setup:.4g} s, "
              f"total {wall_setup + wall_command:.4g} s, {workload.items / wall_command:.4g} items/s; "
              f"host speed {speed:.3g} of the reference")
    print(f"# check: {'every output matches its reference' if not reasons else reasons[0]}")
    return {"correct": not reasons, "attempted": attempted, "failed": failed, "metrics": metrics}, samples


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (PROGRAM / "cli.py").is_file():
        print(f"error: covsel sources not found under {PROGRAM}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    record = {"environment": environment(args.seed, env), "args": vars(args), "workloads": {}}
    print(f"# environment: {json.dumps(record['environment'], sort_keys=True)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, args.trace, env)
        if outcome is None:
            return 1
        outcomes[name], record["workloads"][name] = outcome[0], {"result": outcome[0], "samples": outcome[1]}
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(outcomes[names[0]] if len(names) == 1 else outcomes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
