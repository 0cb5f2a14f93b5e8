"""polyrot benchmark: time to verdict of the ``scan`` and ``fuzz`` commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: a child process (worker.py)
drives ``polyrot.cli.main`` in a closed loop over the workload's input set,
one invocation at a time, with the program unmodified, and times fresh
``python -m polyrot`` processes for ``setup_s``.  ``--trace 1`` alternates
untraced rounds with rounds that record spans around each module's public
functions (spans.py) and reports the per-layer metrics per traced round.
Both check every output against the answer its input was built with
(check.py).  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json; the lines before it print the same numbers for people,
together with the tail percentile and its sample count, the failures by
class, and the output digest.  Metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
from check import KNOWN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CHILD_TIMEOUT_S = 170

# Output digests of the seed-0 input sets, to show later that seeded output
# stayed byte identical.
DIGESTS = HERE / "digests.json"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], capture_output=True, text=True,
                          cwd=ROOT, env=_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _tally(res: dict) -> tuple[int, int, bool]:
    """(attempted, failed, no failure outside the known classes)."""
    failed = res["failed"]
    return res["ops"], sum(failed.values()), not any(k not in KNOWN for k in failed)


def _failure_lines(res: dict) -> list[str]:
    lines = []
    for cls, n in sorted(res["failed"].items()):
        lines.append(f"  failed {cls}: {n} ({'known: ' + KNOWN[cls] if cls in KNOWN else 'UNEXPECTED'})")
    return lines


def _digest_line(workload: str, seed: int, digest: str) -> str:
    line = f"  output sha256 {digest}"
    reference = json.loads(DIGESTS.read_text()).get(workload) if seed == 0 and DIGESTS.is_file() else None
    if reference is not None:
        line += f"; {'matches' if reference == digest else 'DIFFERS from'} {DIGESTS.name}"
    return line


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    res = run_worker("measure", workload, str(seed), repr(seconds))
    verdicts = [(t, items) for t, ok, items in zip(res["times"], res["verdicts"], res["items"]) if ok]
    if len(verdicts) < 11:
        raise RuntimeError(f"only {len(verdicts)} inputs reached a verdict; the tail needs 11")
    times = sorted(t for t, _ in verdicts)
    n = len(times)
    raw = [t for t, ok in zip(res["raw_times"], res["verdicts"]) if ok]
    raw_items = sum(items for _, items in verdicts) / sum(raw)
    attempted, failed, correct = _tally(res)
    metrics = {
        "setup_s": statistics.median(res["setup_s"]),
        "items_per_s": sum(items for _, items in verdicts) / sum(times),
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": times[n - 11],
        "correct_share": 1.0 - failed / attempted,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    item = "fuzz cases" if workload == "fuzz" else "boundary rows (skipped included)"
    notes = [
        f"  {res['inputs']} inputs, {res['rounds']} rounds; times are at reference speed, "
        "each input's median round (see worker.py)",
        f"  raw wall time: p50 {statistics.median(raw):.6g} s, items_per_s {raw_items:.6g}",
        f"  setup_s is the median of {len(res['setup_s'])} fresh processes",
        f"  items_per_s counts {item} of inputs that reached a verdict",
        f"  verdict_tail_s is p{100.0 * (n - 10) / n:.1f} of {n} inputs that reached a verdict",
        f"  fail_share {failed / attempted:.6g} ({failed} of {attempted} operations)",
        _digest_line(workload, seed, res["digest"]),
    ]
    return metrics, {"attempted": attempted, "failed": failed, "correct": correct}, notes + _failure_lines(res)


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans_{workload}_seed{seed}.npz"
    res = run_worker("trace", workload, str(seed), repr(seconds), str(spans_file))
    metrics = {}
    for name, (calls, secs) in res["spans"].items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = secs
    for name, calls in res["counts"].items():
        metrics[f"{name}.calls"] = calls
    calls, secs = res["spans"]["roots.find_roots"]
    metrics["roots.find_roots.calls_per_input"] = calls / res["base"]
    metrics["roots.find_roots.self_s_per_call"] = secs / calls if calls else 0.0
    metrics["report.output_bytes"] = res["output_bytes"]
    metrics["trace.overhead_s"] = res["traced_s"] - res["untraced_s"]
    metrics["trace.inputs"] = res["base"]
    attempted, failed, correct = _tally(res)
    base = "fuzz cases requested" if workload == "fuzz" else "inputs that reached a verdict"
    notes = [
        f"  {res['inputs']} inputs, {res['traced_rounds']} traced rounds; values are per traced round",
        f"  per-input base (trace.inputs): {res['base']} {base}",
        f"  fastest round at reference speed: untraced {res['untraced_s']:.4f} s, traced {res['traced_s']:.4f} s",
        _digest_line(workload, seed, res["digest"]),
        f"  spans written to {spans_file.relative_to(ROOT)}",
    ]
    summary = {"attempted": attempted, "failed": failed, "correct": correct}
    return metrics, summary, notes + _failure_lines(res)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "polyrot" / "cli.py").is_file() or not spec_file.is_file():
        print(f"error: no polyrot sources under {SRC} or no {spec_file.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        metrics, summary, notes = measure(workload, args.seed, args.seconds)
        print(f"workload {workload} seed {args.seed} trace {args.trace}")
        for m in declared:
            print(f"  {m['name']:40s} {metrics[m['name']]:<24.10g} {m['unit']}")
        print("\n".join(notes), flush=True)
        result["correct"] &= summary["correct"]
        result["attempted"] += summary["attempted"]
        result["failed"] += summary["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for m in declared:
            result["metrics"][prefix + m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
