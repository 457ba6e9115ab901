"""Loopback retrieval benchmark for staircase-pir (stdlib only).

Usage, from the root of a checkout:

    python3 bench/run.py --workload bulk --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5      # every workload
    python3 bench/run.py compare BEFORE.jsonl AFTER.jsonl         # two result sets

What a run does
---------------
It writes a corpus made from the seed and sets up: `ingest.ingest_dir` of the
corpus, the default encoding matrix, and `n` servers started with `net.serve`
on loopback. That deployment serves the run. One client calls `net.retrieve`
and `ingest.restore_file` in a closed loop, one retrieval in flight at a time,
and checks each restored file against the original. The `n` handshake
threads and connections of a retrieval are the protocol's own. Query
randomness stays at the library default (`seed=None`).

The loop sets up again every `--seconds / harness.SETUP_REPEATS` seconds,
between two retrievals and outside their timing, and shuts those extra
servers down at once. `setup_s` is the median of all set-ups of the run:
spread over the run, they sample the machine's speed over the same time as
the latencies do.

A run times retrievals for `--seconds`, and on past that until it has made
`harness.MIN_RETRIEVALS` of them, because `latency_p90_ms` needs ten samples
above it; it stops at `harness.MAX_SECONDS` whatever the count. Before
timing, `harness.ACCOUNTING` retrievals run traced: they warm the caches and
count the bytes of every frame at the `wire` boundary. Every frame of a
retrieval has a size fixed by the scheme and the realized `mu`, which the
correctness gate checks on every retrieval, so these counts hold for the
timed retrievals too. Timed retrievals run with no wrapper installed.

With `--trace 1` every second timed retrieval runs with the wrappers of
`tracing.py` installed (the set-ups too). Per-layer metrics are the median
over traced retrievals; `trace.overhead_pct` compares the traced retrievals'
median latency with the untraced ones' of the same run.

Correctness gate: a retrieval fails if its restored bytes differ from the
original file, if its realized `mu` is not the workload's (4, 4 or 2), if its
rate (`DownloadPlan.rate`, reported as `RetrievalMetrics.rate`) is not exactly
`1 - t/mu`, or if it raises. Each failure is printed on stderr with its
reason. `correct` is true when none failed.

Workloads (all (n,k,t) = (4,2,1) with the default Vandermonde matrix)
---------------------------------------------------------------------
small     The paper's Example 2 scheme over GF(5): 8 files of 24 bytes, 2-bit
          symbols, s=16, a 768-symbol database, all 4 servers up. Per-message
          cost dominates (thread spawns, connects, the 5 ms handshake poll,
          round trips), so connection and polling changes show here and
          projection changes should not. A 2-bit symbol sent as a u64 gives
          compact-symbol changes their largest byte gain.
bulk      GF(257), 64 files of 384 bytes, s=64: 24,576 database symbols, all
          4 servers up. Query generation, QUERY decoding and projection
          dominate; per-slab queries, compact symbols and projection kernels
          show here, fail-fast changes should not.
degraded  The bulk corpus with 2 of the 4 servers down (the seed picks which;
          their ports are closed before timing) and the default `deadline`
          strategy with a 300 ms deadline, so mu = k = 2. Runs the
          universality path: each responder projects all alpha = 6 columns,
          `peel_decode` runs every level, the rate is 1/2, and the client
          waits out the deadline. Fail-fast and re-planning show here and
          not on bulk.

Server and client share one interpreter lock, so no workload shows gains
from servers working in parallel.

Output
------
Standard output: a table of the metrics by name and unit, then as its last
line one JSON object

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

whose metrics are BENCHMARK.json's `end_to_end` list with `--trace 0` and its
`per_layer` list with `--trace 1`. `attempted` counts every retrieval the run
made, the accounting ones included. The end-to-end list carries
`success_fraction` (correct retrievals / attempted) rather than a failed
fraction, because a metric that reads 0 on every healthy run has no median to
bound a change against; the failed fraction is printed in the table and kept
in the record.

Each run also appends one record, a JSON object on one line, to
`<--out>/results.jsonl` (default `.bench_out/`):

    schema        1
    workload, seed, trace, seconds   the arguments
    measured_s    wall time of the timed loop
    samples       correct timed retrievals the latencies come from
    attempted, failed, failed_fraction, failures (list of reasons)
    capacity      "1 - t/mu" of the workload as an exact fraction
    setup_samples_s   every set-up time of the run
    env           python, implementation, nproc, git_sha (null outside git), platform
    shape         n, k, t, q, m, s, alpha, alpha_prime, x_length, prefix_cols,
                  mu, down, deadline_s, file_bytes
    metrics       as in the last line

With `--trace 1` the spans go to `<--out>/spans-<workload>-<seed>.jsonl`, one
per line: id, parent, retrieval, name, start_s, end_s, attrs.

`compare` reads two such result files and prints, per workload and
end-to-end metric, each side's median and quartiles, the pairs the second
side won, and a verdict (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run_all(args) -> int:
    """Run every workload in its own process, so peak_rss_mb is its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        status = subprocess.run(cmd).returncode or status
    return status


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:], spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_out"))
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    package = ROOT / "src" / "staircase_pir"
    if not package.is_dir():
        print(f"{package} not found: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    return harness.run(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
