"""Child process of the benchmark: drives ``polyrot.cli.main`` in-process.

One client, one invocation at a time (a closed loop) over the workload's
input set.  Each invocation gets its input on a substituted stdin, and its
stdout and stderr are captured; an exception escaping ``main`` counts as exit
code 1, as it would for the command.  Only the call itself is timed; the
output is checked outside the timed region.

The set runs in rounds until SECONDS have passed, at least MIN_ROUNDS times.
The first round's outputs are checked and digested; later rounds must repeat
them byte for byte.

Reference-speed time.  The host this was tuned on (a 2-core VM) runs the
same code up to 1.5x slower for phases of one to about thirty seconds, with
CPU time equal to wall time, so the slowdown is interference from other
tenants, not waiting.  Right before every call the worker times a fixed
pure-Python loop (fastest of three) and scales the call's wall time by
REFERENCE_LOOP_S / loop time: the time the call would have taken at the
speed at which the loop takes REFERENCE_LOOP_S.  An input's time is the
median of its rounds.  Raw wall times are kept as well and printed.

Modes:
  measure  untraced rounds; between rounds, SETUPS_PER_ROUND fresh
           ``python -m polyrot`` runs of one point of the workload are timed.
  trace    untraced and traced rounds alternate; spans are totalled per
           traced round (raw wall time), and the tracing overhead is the
           fastest traced round minus the fastest untraced one, both at
           reference speed.

Usage: python3 perfbench/worker.py {measure,trace} WORKLOAD SEED SECONDS [SPANS_FILE]
with polyrot importable from the checkout (the parent sets PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import inputs
from check import Outcome, Result, check
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
MIN_ROUNDS = 3

# Iterations of the calibration loop, and its typical time on the host the
# benchmark was tuned on, which fixes the reference speed.
LOOP_ITERATIONS = 5000
REFERENCE_LOOP_S = 5.0e-4
SETUPS_PER_ROUND = 3
SETUP_TIMEOUT_S = 60


def invoke(cli, inv: inputs.Invocation) -> tuple[Result, float]:
    """Run one CLI invocation in-process; return its result and wall time."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(inv.stdin)
    exc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(list(inv.argv))
            except Exception as e:  # an uncaught error ends the command with exit code 1
                code, exc = 1, e
            elapsed = perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return Result(code, out.getvalue(), err.getvalue(), exc), elapsed


def loop_time() -> float:
    """Fastest of three runs of a fixed pure-Python loop: the current speed of the host."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(LOOP_ITERATIONS):
            acc += i * i % 7
        best = min(best, perf_counter() - start)
    return best


def _digest(res: Result) -> bytes:
    return hashlib.sha256(res.stdout.encode() + b"\0" + res.stderr.encode()).digest()


def setup_times(workload: str, seed: int) -> list[float]:
    """Wall times of fresh ``python -m polyrot`` processes doing one point of the workload."""
    argv, stdin = inputs.setup_argv(workload, seed)
    times = []
    for _ in range(SETUPS_PER_ROUND):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "polyrot", *argv], input=stdin, capture_output=True,
                              text=True, cwd=ROOT, timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - start)
        if proc.returncode not in (0, 2):
            raise RuntimeError(f"set-up run exited {proc.returncode}: {proc.stderr.strip()}")
    return times


class Rounds:
    """Per-input times over rounds, with the first round's checks and digests."""

    def __init__(self, cli, invs: list[inputs.Invocation]):
        self.cli, self.invs = cli, invs
        self.raw: list[list[float]] = [[] for _ in invs]
        self.scaled: list[list[float]] = [[] for _ in invs]
        self.digests: list[bytes] = []
        self.outcomes: list[Outcome] = []
        self.output_bytes = 0
        self.changed = 0
        for k, inv in enumerate(invs):
            res = self._call(k)
            self.digests.append(_digest(res))
            self.outcomes.append(check(inv, res))
            self.output_bytes += len(res.stdout.encode())

    def _call(self, k: int) -> Result:
        loop = loop_time()
        res, elapsed = invoke(self.cli, self.invs[k])
        self.raw[k].append(elapsed)
        self.scaled[k].append(elapsed * REFERENCE_LOOP_S / loop)
        return res

    def again(self, tracer: Tracer | None = None) -> None:
        """Run the set once more."""
        for k, inv in enumerate(self.invs):
            if tracer is not None:
                tracer.current_request = inv.index
            self.changed += _digest(self._call(k)) != self.digests[k]

    def round_time(self, r: int) -> float:
        """Summed time of round ``r`` at reference speed."""
        return sum(times[r] for times in self.scaled)

    def summary(self) -> dict:
        failed = Counter()
        for outcome in self.outcomes:
            failed.update(outcome.failed)
        if self.changed:
            failed["unexpected_output_changed_between_rounds"] = self.changed
        return {
            "ops": sum(o.ops for o in self.outcomes),
            "failed": dict(failed),
            "digest": hashlib.sha256(b"".join(self.digests)).hexdigest(),
            "output_bytes": self.output_bytes,
            "inputs": len(self.invs),
            "rounds": len(self.raw[0]),
        }


def measure(workload: str, seed: int, seconds: float) -> dict:
    from polyrot import cli

    invs = inputs.input_set(workload, seed)
    invoke(cli, invs[0])  # first-call costs, paid once per process and measured by setup_s
    started = perf_counter()
    setup = setup_times(workload, seed)
    rounds = Rounds(cli, invs)
    while len(rounds.raw[0]) < MIN_ROUNDS or perf_counter() - started < seconds:
        setup += setup_times(workload, seed)
        rounds.again()
    return {
        **rounds.summary(),
        "times": [statistics.median(t) for t in rounds.scaled],
        "raw_times": [statistics.median(t) for t in rounds.raw],
        "verdicts": [o.verdict for o in rounds.outcomes],
        "items": [o.items for o in rounds.outcomes],
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(workload: str, seed: int, seconds: float, spans_file: str) -> dict:
    from polyrot import cli

    invs = inputs.input_set(workload, seed)
    invoke(cli, invs[0])
    started = perf_counter()
    rounds = Rounds(cli, invs)
    tracer = Tracer()
    n = 0
    while n == 0 or perf_counter() - started < seconds:
        with tracer:
            rounds.again(tracer)
        rounds.again()
        n += 1
    tracer.save(spans_file)
    totals = [rounds.round_time(r) for r in range(2 * n + 1)]
    if workload == "fuzz":
        base = sum(inv.fuzz_count for inv in invs)
    else:
        base = sum(o.verdict for o in rounds.outcomes)
    return {
        **rounds.summary(),
        "traced_rounds": n,
        "spans": {name: [calls / n, secs / n] for name, (calls, secs) in tracer.self_times().items()},
        "counts": {name: calls / n for name, calls in tracer.counts.items()},
        "base": base,
        "untraced_s": min(totals[0::2]),
        "traced_s": min(totals[1::2]),
    }


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "measure":
        result = measure(workload, seed, seconds)
    else:
        result = trace(workload, seed, seconds, argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
