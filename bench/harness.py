"""One benchmark run: set-up, accounting, the timed closed loop and its metrics.

The run's steps, the correctness gate and the record it writes are described
in run.py's docstring.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
from staircase_pir import ingest, net, protocol
from workloads import WORKLOADS, make_inputs, write_corpus

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 12  # set-ups spread over the timed loop, after the first
ACCOUNTING = 3
MIN_RETRIEVALS = 100
MAX_SECONDS = 120.0


def _stop(servers) -> None:
    """Shut servers down in parallel (each waits out its serve loop's poll)."""
    threads = [threading.Thread(target=srv.shutdown) for srv in servers]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for srv in servers:
        srv.server_close()


class Deployment:
    """The ingested corpus served by n loopback servers."""

    def __init__(self, corpus_dir, w):
        self.params, db, self.manifest = ingest.ingest_dir(corpus_dir, w.n, w.k, w.t, w.q)
        self.V = protocol.default_encoding_matrix(self.params)
        self.servers = [net.serve("127.0.0.1", 0, db, self.params, self.V)
                        for _ in range(w.n)]
        self.endpoints = [srv.server_address for srv in self.servers]


class Client:
    """Runs retrievals and applies the correctness gate to each."""

    def __init__(self, w, dep, corpus):
        self.w = w
        self.dep = dep
        self.corpus = corpus
        self.kwargs = {} if w.deadline_s is None else {"deadline_s": w.deadline_s}
        self.attempted = 0
        self.failures = []

    def retrieve(self, i):
        """One retrieval of file i: (latency in s, or None if it failed; metrics)."""
        self.attempted += 1
        dep = self.dep
        rm = None
        start = time.perf_counter()
        try:
            decoded, rm = net.retrieve(dep.endpoints, dep.params, dep.V, i, **self.kwargs)
            restored = ingest.restore_file(decoded, dep.manifest, i)
        except Exception as exc:  # the gate counts any raise as a failed retrieval
            traceback.print_exc()
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            latency = time.perf_counter() - start
            reason = self._check(i, restored, rm)
            if reason is None:
                return latency, rm
        self.failures.append(f"retrieval {self.attempted} (file {i}): {reason}")
        print(f"FAILED {self.failures[-1]}", file=sys.stderr)
        return None, rm

    def _check(self, i, restored, rm):
        if restored != self.corpus[i - 1]:
            return "restored bytes differ from the original file"
        if rm.realized_mu != self.w.expected_mu:
            return f"realized mu {rm.realized_mu}, expected {self.w.expected_mu}"
        capacity = 1 - Fraction(self.w.t, rm.realized_mu)
        if rm.rate != capacity:
            return f"rate {rm.rate} is not 1 - t/mu = {capacity}"
        return None


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _shape(w, params):
    return {
        "n": params.n, "k": params.k, "t": params.t, "q": params.q,
        "m": params.m, "s": params.s, "alpha": params.alpha,
        "alpha_prime": params.alpha_prime, "x_length": params.x_length,
        "prefix_cols": params.prefix_cols(w.expected_mu), "mu": w.expected_mu,
        "down": w.down, "deadline_s": w.deadline_s, "file_bytes": w.file_bytes,
    }


def _timed_loop(client, inputs, tracer, args, setup):
    """The closed loop: (untraced latencies, traced latencies,
    handshake wait in ms by traced retrieval id, wall seconds of retrievals).

    Every `args.seconds / SETUP_REPEATS` seconds it calls `setup()` between two
    retrievals, so set-up times sample the machine over the whole run as the
    latencies do; that time is left out of the wall seconds.
    """
    plain, traced, handshake_ms = [], [], {}
    timed = 0
    paused = 0.0
    next_setup = args.seconds / SETUP_REPEATS
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - paused
        if elapsed >= MAX_SECONDS or (elapsed >= args.seconds and timed >= MIN_RETRIEVALS):
            return plain, traced, handshake_ms, elapsed
        if elapsed >= next_setup:
            setup_start = time.perf_counter()
            setup()
            paused += time.perf_counter() - setup_start
            next_setup += args.seconds / SETUP_REPEATS
            continue
        timed += 1
        on = bool(args.trace) and timed % 2 == 0
        if on:
            tracer.retrieval = ACCOUNTING + timed
            tracer.install()
        latency, rm = client.retrieve(inputs.next_index())
        if on:
            tracer.uninstall()
            if latency is not None:
                handshake_ms[tracer.retrieval] = rm.wait_s * 1e3
        if latency is not None:
            (traced if on else plain).append(latency)


def run(args, spec) -> int:
    w = WORKLOADS[args.workload]
    inputs = make_inputs(w, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    corpus_dir = tempfile.mkdtemp(prefix="corpus-", dir=out_dir)
    setup_times = []
    retiring = []  # threads shutting down the servers of extra set-ups
    dep = None

    def set_up():
        tracer.retrieval = None
        if args.trace:
            tracer.install()
        start = time.perf_counter()
        deployment = Deployment(corpus_dir, w)
        setup_times.append(time.perf_counter() - start)
        tracer.uninstall()
        return deployment

    def set_up_extra():
        th = threading.Thread(target=_stop, args=(set_up().servers,))
        th.start()
        retiring.append(th)

    try:
        write_corpus(corpus_dir, inputs.corpus)
        dep = set_up()
        down = [dep.servers[sid - 1] for sid in inputs.down]
        _stop(down)
        dep.servers = [srv for srv in dep.servers if srv not in down]

        # Accounting retrievals: traced, so frame bytes are counted; they also
        # warm the caches before timing.
        client = Client(w, dep, inputs.corpus)
        counted = []
        tracer.install()
        for rid in range(1, ACCOUNTING + 1):
            tracer.retrieval = rid
            if client.retrieve(inputs.next_index())[0] is not None:
                counted.append(rid)
        tracer.uninstall()

        plain, traced, handshake_ms, measured_s = _timed_loop(
            client, inputs, tracer, args, set_up_extra)
    finally:
        tracer.uninstall()
        for th in retiring:
            th.join()
        if dep is not None:
            _stop(dep.servers)
        shutil.rmtree(corpus_dir, ignore_errors=True)

    spans = tracing.by_retrieval(tracer.spans)
    sizes = {tracing.upload_download(spans[rid]) for rid in counted}
    if len(sizes) > 1:
        print(f"warning: frame bytes differ between retrievals: {sorted(sizes)}",
              file=sys.stderr)
    upload, download = min(sizes) if sizes else (0, 0)
    failed = len(client.failures)
    capacity = 1 - Fraction(w.t, w.expected_mu)

    if args.trace:
        rows = []
        for rid, wait_ms in handshake_ms.items():
            row = tracing.retrieval_layers(spans[rid])
            row["net.handshake_wait_ms"] = wait_ms
            rows.append(row)
        values = tracing.median_layers(rows)
        values["ingest.ingest_dir_s"] = statistics.median(
            sp.end - sp.start for sp in tracer.spans if sp.name == "ingest.ingest_dir")
        values["trace.overhead_pct"] = (
            statistics.median(traced) / statistics.median(plain) - 1) * 100
        tracer.write(out_dir / f"spans-{w.name}-{args.seed}.jsonl")
        wanted = spec["per_layer"]
    else:
        values = {
            "latency_p50_ms": statistics.median(plain) * 1e3,
            "latency_p90_ms": statistics.quantiles(plain, n=10)[-1] * 1e3,
            "retrievals_per_s": len(plain) / measured_s,
            "upload_bytes": upload,
            "download_bytes": download,
            "byte_rate": w.file_bytes / download if download else 0.0,
            "success_fraction": (client.attempted - failed) / client.attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    shape = _shape(w, dep.params)
    record = {
        "schema": 1, "workload": w.name, "seed": args.seed, "trace": bool(args.trace),
        "seconds": args.seconds, "measured_s": measured_s,
        "samples": len(plain) + len(traced),
        "attempted": client.attempted, "failed": failed,
        "failed_fraction": failed / client.attempted, "failures": client.failures,
        "capacity": str(capacity), "setup_samples_s": setup_times,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": _git_sha(),
            "platform": platform.platform(),
        },
        "shape": shape,
        "metrics": metrics,
    }
    with open(out_dir / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"{w.name} seed={args.seed} trace={args.trace}: "
          + " ".join(f"{k}={v}" for k, v in shape.items()))
    for name, m in metrics.items():
        note = ""
        if name == "byte_rate":
            note = f"   capacity 1 - t/mu = {capacity} = {float(capacity):.4f}"
        elif name.startswith("latency_"):
            note = f"   ({len(plain)} retrievals in {measured_s:.1f} s)"
        print(f"  {name:38s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  {'failed_fraction':38s} {failed / client.attempted:>16.6g} fraction"
          f"   ({failed} of {client.attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": client.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
