"""One fresh benchmark process: import covsel.cli, then run the given
commands through covsel.cli.main(argv), optionally traced.

Usage: python3 bench/child.py SPEC.json. The spec names the commands
(argv lists), whether to trace, and where to write the spans and the
result (import time, per-command wall time and exit code, the host's
speed during each, peak RSS).
"""

import importlib
import json
import resource
import signal
import sys
import time
import traceback

PERIOD_S = 0.1  # seconds between host-speed probes
PROBE_LOOPS = 10000


def probe():
    """Wall seconds of a fixed piece of interpreter work (list, dict and
    integer operations) that shares no code with covsel. It needs no
    import, so it can run while covsel is being imported."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    items = list(range(64))
    for i in range(PROBE_LOOPS):
        key = (i * 7919) % 509
        table[key] = table.get(key, 0) + items[i % 64]
        acc = (acc * 31 + key) % 1000003
    if acc < 0:
        raise ArithmeticError("probe went wrong")
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the host's speed while the process works.

    The host is shared, and its speed changes within seconds. While a
    phase (the import or one command) runs, a SIGALRM handler runs
    `probe` every PERIOD_S seconds; it also runs right before and after
    the phase. A phase reports its wall time minus the time spent in the
    handler, and the mean probe rate (1 / probe seconds) over the phase,
    so that run.py can convert the time to the reference speed.
    """

    def __init__(self):
        self.rates, self.paused = [], 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.rates.append(1.0 / probe())
        self.paused += time.perf_counter() - t0

    def timed(self, func):
        """Returns (func(), wall seconds without probes, mean probe rate)."""
        self.rates, self.paused = [1.0 / probe()], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = func()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.rates.append(1.0 / probe())
        return result, elapsed - self.paused, sum(self.rates) / len(self.rates)


def run_command(cli, argv):
    try:
        return cli.main(argv)
    except Exception:  # noqa: BLE001 - a crashed command fails its items; keep going
        traceback.print_exc()
        return -1


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    speed = HostSpeed()
    cli, setup_s, setup_rate = speed.timed(lambda: importlib.import_module("covsel.cli"))
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer.install()
    seconds, rates, codes = [], [], []
    for argv in spec["commands"]:
        code, elapsed, rate = speed.timed(lambda: run_command(cli, argv))
        seconds.append(elapsed)
        rates.append(rate)
        codes.append(code)
    if tracer:
        tracer.dump(spec["spans"])
    result = {
        "setup_s": setup_s,
        "setup_probe_rate": setup_rate,
        "command_s": seconds,
        "command_probe_rate": rates,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
