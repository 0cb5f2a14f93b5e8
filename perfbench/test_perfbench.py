"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import worker  # noqa: E402
import check as check_module  # noqa: E402
from check import Result, check  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True, text=True,
                          cwd=cwd, timeout=170)


def test_same_seed_gives_byte_identical_inputs():
    for workload in inputs.WORKLOADS:
        first = [inputs.invocation(workload, 7, i) for i in range(12)]
        again = [inputs.invocation(workload, 7, i) for i in reversed(range(12))][::-1]
        other = [inputs.invocation(workload, 8, i) for i in range(12)]
        assert [(a.argv, a.stdin) for a in first] == [(a.argv, a.stdin) for a in again]
        assert [(a.argv, a.stdin) for a in first] != [(a.argv, a.stdin) for a in other]


def test_traced_call_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setitem(inputs.SET_SIZE, "fuzz", 6)
    runs = [worker.trace("fuzz", 3, 0.0, str(tmp_path / f"spans{k}.npz")) for k in range(2)]
    calls = [{name: c for name, (c, _) in run["spans"].items()} for run in runs]
    assert calls[0] == calls[1]
    assert runs[0]["counts"] == runs[1]["counts"]
    assert calls[0]["roots.find_roots"] > 0
    assert runs[0]["digest"] == runs[1]["digest"]


def test_spans_reach_every_module_binding():
    from polyrot import bounds, cli

    inv = inputs.invocation("scan_grid", 1, 0)
    original = bounds.full_report
    with Tracer() as tracer:
        assert cli.full_report is not original and bounds.full_report is not original
        worker.invoke(cli, inv)
    assert cli.full_report is original and bounds.full_report is original
    calls = {name: c for name, (c, _) in tracer.self_times().items()}
    assert calls["bounds.full_report"] == calls["poly.rotation_speed"] == inv.grid
    assert calls["cli.main"] == 1 and calls["roots.find_roots"] == 1
    assert tracer.counts["poly.coeff_scale"] > 0


def test_check_flags_a_wrong_answer():
    from polyrot import cli

    inv = inputs.invocation("scan_grid", 1, 0)
    assert inv.zone == "in_disk" and inv.fmt == "csv"
    res, _ = worker.invoke(cli, inv)
    assert not check(inv, res).failed
    wrong_status = res.stdout.replace(",pass\n", ",fail\n", 1)
    assert dict(check(inv, Result(2, wrong_status, "")).failed) == {"unexpected_flags": 1}
    header, *rows = res.stdout.splitlines()
    shifted = []
    for row in rows:
        cells = row.split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        shifted.append(",".join(cells))
    wrong_lambda = "\n".join([header, *shifted]) + "\n"
    failed = check(inv, Result(res.code, wrong_lambda, "")).failed
    assert dict(failed) == {"unexpected_reference": check_module.SAMPLED_ROWS}


def test_metric_names_and_units():
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[group]]
        assert len(names) == len(set(names))
        for m in SPEC[group]:
            assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "fuzz", "--seed", "2", "--seconds", "0.5", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "scan_grid", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
