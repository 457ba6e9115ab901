"""The benchmark still runs on the package, end to end.

`bench/run.py --workload all` runs every workload in its own process and
prints, as each one's last line, a JSON record of its metrics. A short run
of each mode must decode every retrieval and report every metric that
BENCHMARK.json lists for that mode; a mismatch between the package and the
harness would otherwise show only in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_correctly_and_reports_its_metrics(trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all",
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(records) == len(SPEC["workloads"])
    wanted = {metric["name"] for metric in SPEC["per_layer" if trace else "end_to_end"]}
    for rec in records:
        assert rec["correct"] is True
        assert rec["failed"] == 0
        assert wanted <= set(rec["metrics"])
