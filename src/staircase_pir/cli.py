"""Operator command line: parameter derivation, worked-example demos,
verification suites, capacity tables, straggler simulation and the
socket server/client.

Exit codes: 0 success; 1 a failed verification or decode, or an error
reported as one `error: ...` line on stderr; 2 a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import sys

from . import examples, ingest, net, protocol, sim, staircase, verify
from .errors import StaircasePIRError
from .params import SchemeParams


def _add_scheme_flags(p):
    p.add_argument("--n", type=int, required=True, help="server count")
    p.add_argument("--k", type=int, required=True, help="worst-case responder count")
    p.add_argument("--t", type=int, required=True, help="collusion threshold")
    p.add_argument("--m", type=int, default=1, help="file count")
    p.add_argument("--q", type=int, default=257, help="field modulus (prime)")
    p.add_argument("--batch", type=int, default=1, help="symbols per file part (s)")


def _params_from(args) -> SchemeParams:
    return SchemeParams(n=args.n, k=args.k, t=args.t, m=args.m, q=args.q, s=args.batch)


def _keys(records) -> list:
    """The records' keys, in the order they first appear."""
    return list(dict.fromkeys(key for rec in records for key in rec))


def _cell(value):
    """A record value as one field: lists and dicts as JSON text."""
    return json.dumps(value, default=str) if isinstance(value, (list, dict)) else value


def _table(records) -> list:
    """A plain text table: a header of the records' keys, a row for each."""
    keys = _keys(records)
    rows = [keys] + [[str(_cell(rec.get(key, ""))) for key in keys] for rec in records]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


def _csv(records) -> list:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, _keys(records), lineterminator="\n")
    writer.writeheader()
    writer.writerows({key: _cell(value) for key, value in rec.items()} for rec in records)
    return buf.getvalue().splitlines()


def _emit(args, records, text=_table, out=None) -> None:
    """Write a command's result records to `out` (stdout) in args.format:
    text as the lines `text` returns (a plain table unless the command has
    its own renderer); csv through one DictWriter over the union of the
    keys; json-lines one JSON object a line, Fractions and the like str()."""
    if args.format == "json-lines":
        lines = (json.dumps(rec, default=str) for rec in records)
    elif args.format == "csv":
        lines = _csv(records)
    else:
        lines = text(records)
    out = out or sys.stdout
    for line in lines:
        print(line, file=out)
    out.flush()


def cmd_params(args) -> int:
    params = _params_from(args)
    rec = {
        "n": params.n, "k": params.k, "t": params.t, "m": params.m,
        "q": params.q, "s": params.s, "h": params.h,
        "mu": [params.mu(j) for j in range(1, params.h + 1)],
        "alpha_j": [params.alpha_j(j) for j in range(1, params.h + 1)],
        "alpha": params.alpha, "alpha_prime": params.alpha_prime,
        "block_cols": list(params.block_cols),
        "randomness_vectors": params.randomness_count,
        "file_symbols": params.file_symbols,
    }
    _emit(args, [rec], lambda records: [
        f"{key:>20}: {value}" for key, value in records[0].items()])
    return 0


def cmd_demo(args) -> int:
    example = examples.example1 if args.example == 1 else examples.example2
    params, V = example(m=args.m)
    rng = random.Random(args.seed)
    queries = protocol.make_queries(params, V, args.i, args.seed)

    x = [rng.randrange(params.q) for _ in range(params.x_length)]
    db = protocol.Database(params, x)
    records = []
    for mu in [args.mu] if args.mu is not None else range(params.k, params.n + 1):
        responders = list(range(1, mu + 1))
        plan = protocol.plan_download(params, responders)
        decoded = protocol.decode_file(
            params, V, plan, protocol.local_responses(db, queries, plan))
        records.append({"mu": mu, "responders": responders, "symbols": plan.total_symbols,
                        "rate": plan.rate, "decoded": decoded == db.file_content(args.i)})

    def text(records):
        layout = staircase.grid_layout(params)
        yield f"scheme (n,k,t) = ({params.n},{params.k},{params.t}) over GF({params.q})"
        yield (f"alpha = {params.alpha}, alpha' = {params.alpha_prime}, "
               f"block columns = {params.block_cols}")
        yield "\ngrid M (rows x sub-query columns):"
        for r in range(params.n):
            cells = [examples.format_coeffs(params, layout.symbolic((r, c)))
                     for c in range(params.alpha)]
            yield "  [ " + " | ".join(f"{cell:<18}" for cell in cells) + "]"
        yield "\nqueries Q = V*M (per server):"
        for sid, row in enumerate(staircase.query_matrix(params, V), start=1):
            yield f"  server {sid}: " + " | ".join(
                examples.format_coeffs(params, sym) for sym in row)
        for rec in records:
            yield (f"\nmu = {rec['mu']}: downloaded {rec['symbols']} symbols from "
                   f"servers {rec['responders']}, decode "
                   f"{'ok' if rec['decoded'] else 'FAILED'}, rate {rec['rate']}")

    _emit(args, records, text)
    return 0 if all(rec["decoded"] for rec in records) else 1


def cmd_capacity(args) -> int:
    finite = protocol.capacity_finite(args.m, args.t, args.k)
    asym = protocol.capacity_asymptotic(args.t, args.k)
    ratio = asym / finite
    rec = {"m": args.m, "t": args.t, "k": args.k, "capacity_finite": finite,
           "capacity_asymptotic": asym, "ratio_asym_over_finite": ratio}
    _emit(args, [rec], lambda records: [
        f"C_{args.m}({args.t},{args.k}) = {finite}",
        f"C({args.t},{args.k})   = {asym}",
        f"ratio       = {ratio} (~{float(ratio):.6f})",
    ])
    return 0


def _privacy_records(report: verify.PrivacyReport) -> list:
    return [
        {"subset": "+".join(map(str, subset)), "mode": report.mode,
         "verdict": "pass" if ok else "FAIL"}
        for subset, ok in sorted(report.verdicts.items())
    ]


def _verify_text(records):
    skipped = [rec for rec in records if rec["verdict"] == "skipped"]
    return _table([rec for rec in records if rec not in skipped]) + [
        f"exhaustive privacy skipped: {rec['work']} sub-query expansions exceed cap"
        for rec in skipped
    ]


def cmd_verify(args) -> int:
    params = _params_from(args)
    V = protocol.default_encoding_matrix(params)
    records = _privacy_records(verify.verify_privacy_rank(params, V))
    if args.exhaustive:
        work = verify.exhaustive_work(params)
        if work <= verify.EXHAUSTIVE_CAP:
            records += _privacy_records(verify.verify_privacy_exhaustive(params, V))
        else:
            records.append({"mode": "exhaustive", "verdict": "skipped", "work": work})

    rob = verify.verify_robustness(params, V, trials=args.trials, seed=args.seed)
    records.append({"subset": "all-subsets>=k", "mode": "robustness",
                    "verdict": "pass" if rob.ok else "FAIL"})
    records += [
        {"subset": "+".join(map(str, subset)), "mode": "robustness", "verdict": "FAIL",
         "i": i, "trial": trial}
        for subset, i, trial in rob.failures
    ]
    records += [
        {"mode": "rate", "verdict": "pass" if match else "FAIL", "mu": mu,
         "symbols": symbols, "rate": rate, "capacity": cap}
        for mu, symbols, rate, cap, match in verify.verify_rates(params)
    ]
    _emit(args, records, _verify_text)
    return 1 if any(rec["verdict"] == "FAIL" for rec in records) else 0


def cmd_simulate(args) -> int:
    params = _params_from(args)
    if args.latency == "exponential":
        model = sim.LatencyModel.exponential(args.latency_ms)
    else:
        model = sim.LatencyModel.deterministic(args.latency_ms)
    # One config for the policy given; with neither value, one per mu in [k, n].
    if args.mu is not None or args.deadline_ms is not None:
        mus = [args.mu]
    else:
        mus = range(params.k, params.n + 1)
    configs = [sim.SimConfig(
        params=params, latencies=(model,) * params.n, wait_for=mu,
        deadline_ms=args.deadline_ms, seed=args.seed + (mu or 0), repetitions=args.reps,
    ) for mu in mus]
    with open(args.out, "w") if args.out else contextlib.nullcontext() as fh:
        _emit(args, sim.sweep(configs), _csv, out=fh)
    return 0


def cmd_serve(args) -> int:
    params, db, manifest = ingest.ingest_dir(
        args.data_dir, args.n, args.k, args.t, args.q, args.batch_opt
    )
    if args.manifest:
        ingest.write_manifest(args.manifest, manifest)
    V = protocol.default_encoding_matrix(params)
    host, port = args.listen.rsplit(":", 1)
    server = net.PIRServer((host, int(port)), db, params, V)
    try:
        _emit(args, [{
            "n": params.n, "k": params.k, "t": params.t, "m": params.m,
            "q": params.q, "s": params.s,
            "listen": f"{host}:{server.server_address[1]}",
        }])
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_retrieve(args) -> int:
    manifest = ingest.read_manifest(args.manifest)
    params = ingest.params_from_manifest(manifest)
    V = protocol.default_encoding_matrix(params)
    endpoints = [(host, int(port)) for host, port in
                 (ep.rsplit(":", 1) for ep in args.endpoints.split(","))]
    decoded, metrics = net.retrieve(endpoints, params, V, args.i, wait_for=args.mu,
                                    deadline_s=args.deadline_ms / 1000.0)
    data = ingest.restore_file(decoded, manifest, args.i)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    # The record goes to stderr, from a new line, when the file goes to stdout.
    _emit(args, [{"i": args.i, "file_bytes": len(data), **vars(metrics)}],
          text=_table if args.out else lambda records: ["", *_table(records)],
          out=None if args.out else sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staircase-pir",
        description="Universally robust PIR over replicated data",
    )
    parser.add_argument("--format", choices=["text", "csv", "json-lines"],
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derive scheme parameters")
    _add_scheme_flags(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("demo", help="walk through a worked example")
    p.add_argument("--example", type=int, choices=[1, 2], required=True)
    p.add_argument("--mu", type=int, default=None,
                   help="trace decoding from servers 1..mu only"
                        " (default: every mu in [k, n])")
    p.add_argument("--i", type=int, default=1, help="file index to retrieve")
    p.add_argument("--m", type=int, default=2, help="file count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("capacity", help="print capacity values")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("verify", help="run verification suites")
    _add_scheme_flags(p)
    p.add_argument("--exhaustive", action="store_true", help="include exhaustive privacy")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="straggler simulation sweep")
    _add_scheme_flags(p)
    p.add_argument("--mu", type=int, default=None,
                   help="servers to wait for, in [k, n] (default: all n with"
                        " --deadline-ms, else one config per mu in [k, n])")
    p.add_argument("--latency", choices=["exponential", "deterministic"],
                   default="exponential")
    p.add_argument("--latency-ms", type=float, default=10.0)
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="longest wait, > 0 (default: no cutoff)")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("serve", help="run a PIR server over a data directory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--q", type=int, default=257)
    p.add_argument("--batch", type=int, dest="batch_opt", default=None)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--manifest", default=None, help="write manifest JSON here")
    p.add_argument("--listen", default="127.0.0.1:7500")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("retrieve", help="retrieve a file from running servers")
    p.add_argument("--manifest", required=True)
    p.add_argument("--endpoints", required=True, help="host:port,host:port,...")
    p.add_argument("--i", type=int, required=True, help="file index (1-based)")
    p.add_argument("--mu", type=int, default=None,
                   help="servers to wait for, in [k, n] (default: all n)")
    p.add_argument("--deadline-ms", type=float, default=1000.0,
                   help="longest wait for the handshakes, and for each FETCH;"
                        " > 0 and at most one day")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_retrieve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Whoever read stdout has gone (say `| head -1`). As the SIGPIPE note
        # in Python's signal docs advises, point stdout at devnull, so that
        # flushing it at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (StaircasePIRError, ValueError, OSError) as exc:
        # ValueError: a value the parser accepts but the scheme does not,
        # such as --m 0, --mu outside [k, n] or a --data-dir with no files.
        # OSError: a path that cannot be read or an address that cannot be bound.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
