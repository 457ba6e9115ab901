"""Operator command line: parameter derivation, worked-example demos,
verification suites, capacity tables, straggler simulation and the
socket server/client.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import examples, ingest, net, protocol, sim, staircase, verify
from .errors import StaircasePIRError
from .params import SchemeParams


def _add_scheme_flags(p, include_q=True):
    p.add_argument("--n", type=int, required=True, help="server count")
    p.add_argument("--k", type=int, required=True, help="worst-case responder count")
    p.add_argument("--t", type=int, required=True, help="collusion threshold")
    p.add_argument("--m", type=int, default=1, help="file count")
    if include_q:
        p.add_argument("--q", type=int, default=257, help="field modulus (prime)")
    p.add_argument("--batch", type=int, default=1, help="symbols per file part (s)")


def _params_from(args) -> SchemeParams:
    return SchemeParams(
        n=args.n, k=args.k, t=args.t, m=args.m, q=args.q, s=args.batch
    )


def _emit(args, records, text_fn):
    if args.format == "json-lines":
        for rec in records:
            print(json.dumps(rec))
    elif args.format == "csv":
        keys = list(records[0]) if records else []
        print(",".join(keys))
        for rec in records:
            print(",".join(str(rec[k]) for k in keys))
    else:
        text_fn(records)


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

    def text(records):
        for key, value in records[0].items():
            print(f"{key:>20}: {value}")

    _emit(args, [rec], text)
    return 0


def cmd_demo(args) -> int:
    if args.example == 1:
        params, V, row_order = examples.example1(m=args.m)
    else:
        params, V, row_order = examples.example2(m=args.m)
    rng = random.Random(args.seed)
    layout = staircase.grid_layout(params, row_order)

    print(f"scheme (n,k,t) = ({params.n},{params.k},{params.t}) over GF({params.q})")
    print(f"alpha = {params.alpha}, alpha' = {params.alpha_prime}, "
          f"block columns = {params.block_cols}")
    print("\ngrid M (rows x sub-query columns):")
    for r in range(params.n):
        cells = [examples.format_coeffs(params, layout.symbolic((r, c)))
                 for c in range(params.alpha)]
        print("  [ " + " | ".join(f"{cell:<18}" for cell in cells) + "]")

    randomness = staircase.generate_randomness(params, args.seed)
    grid = staircase.build_message_grid(params, args.i, randomness, row_order)
    shares = staircase.encode_shares(params, V, grid)
    print("\nqueries Q = V*M (per server):")
    for l in range(params.n):
        cells = [examples.format_coeffs(params, shares.sym_rows[l][c])
                 for c in range(params.alpha)]
        print(f"  server {l + 1}: " + " | ".join(cells))

    x = [rng.randrange(params.q) for _ in range(params.x_length)]
    db = protocol.Database(params, x)
    mus = [args.mu] if args.mu else list(range(params.k, params.n + 1))
    for mu in mus:
        responders = list(range(1, mu + 1))
        plan = protocol.plan_download(params, responders)
        responses = {
            sid: protocol.server_respond(db, protocol.Query(sid, shares.rows[sid - 1]),
                                         range(plan.prefix_cols))
            for sid in responders
        }
        decoded = protocol.decode_file(params, V, plan, responses, row_order)
        ok = decoded == db.file_content(args.i)
        rate = plan.rate
        print(f"\nmu = {mu}: downloaded {plan.total_symbols} symbols from "
              f"servers {responders}, decode {'ok' if ok else 'FAILED'}, "
              f"rate {rate}")
        if not ok:
            return 1
    return 0


def cmd_capacity(args) -> int:
    finite = protocol.capacity_finite(args.m, args.t, args.k)
    asym = protocol.capacity_asymptotic(args.t, args.k)
    rec = {
        "m": args.m, "t": args.t, "k": args.k,
        "capacity_finite": str(finite),
        "capacity_asymptotic": str(asym),
        "ratio_asym_over_finite": str(Fraction(asym, finite)),
    }

    def text(records):
        r = records[0]
        print(f"C_{args.m}({args.t},{args.k}) = {r['capacity_finite']}")
        print(f"C({args.t},{args.k})   = {r['capacity_asymptotic']}")
        print(f"ratio       = {r['ratio_asym_over_finite']} "
              f"(~{float(Fraction(r['ratio_asym_over_finite'])):.6f})")

    _emit(args, [rec], text)
    return 0


def cmd_verify(args) -> int:
    params = _params_from(args)
    V = protocol.default_encoding_matrix(params)
    failed = False

    rank = verify.verify_privacy_rank(params, V)
    print(verify.report_text(rank.rows()))
    failed |= not rank.ok

    if args.all or args.exhaustive:
        space = verify.exhaustive_space(params)
        if space <= verify.EXHAUSTIVE_CAP:
            exh = verify.verify_privacy_exhaustive(params, V)
            print(verify.report_text(exh.rows()))
            failed |= not exh.ok
        else:
            print(f"exhaustive privacy skipped: {space} assignments exceed cap")

    rob = verify.verify_robustness(params, V, trials=args.trials, seed=args.seed)
    print(verify.report_text(rob.rows()))
    failed |= not rob.ok

    print(f"{'mu':>4} {'symbols':>8} {'rate':>8} {'capacity':>9} match")
    for mu, symbols, rate, cap, match in verify.verify_rates(params):
        print(f"{mu:>4} {symbols:>8} {str(rate):>8} {str(cap):>9} "
              f"{'pass' if match else 'FAIL'}")
        failed |= not match

    return 1 if failed else 0


def cmd_simulate(args) -> int:
    params = _params_from(args)
    if args.latency == "exponential":
        model = sim.LatencyModel.exponential(args.latency_ms)
    else:
        model = sim.LatencyModel.deterministic(args.latency_ms)
    configs = []
    mus = [args.mu] if args.mu else list(range(params.k, params.n + 1))
    for mu in mus:
        if args.deadline_ms:
            configs.append(sim.SimConfig(
                params=params, latencies=(model,) * params.n,
                strategy="deadline", deadline_ms=args.deadline_ms,
                seed=args.seed, repetitions=args.reps,
            ))
            break
        configs.append(sim.SimConfig(
            params=params, latencies=(model,) * params.n,
            strategy="wait_for", wait_for=mu,
            seed=args.seed + mu, repetitions=args.reps,
        ))
    out = sim.rows_to_csv(sim.sweep(configs))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        print(out, end="")
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
    print(f"serving (n,k,t)=({params.n},{params.k},{params.t}) q={params.q} "
          f"s={params.s} on {args.listen}")
    try:
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
    endpoints = []
    for ep in args.endpoints.split(","):
        host, port = ep.rsplit(":", 1)
        endpoints.append((host, int(port)))
    strategy = "wait_for" if args.mu else "deadline"
    decoded, metrics = net.retrieve(
        endpoints, params, V, args.i,
        strategy=strategy, wait_for=args.mu,
        deadline_s=args.deadline_ms / 1000.0, seed=args.seed,
    )
    data = ingest.restore_file(decoded, manifest, args.i)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    print(f"\nretrieved file {args.i} ({len(data)} bytes) from "
          f"{metrics.realized_mu} servers, rate {metrics.rate}", file=sys.stderr)
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
    p.add_argument("--mu", type=int, default=None, help="responder count to trace")
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
    p.add_argument("--all", action="store_true", help="include exhaustive privacy")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="straggler simulation sweep (CSV)")
    _add_scheme_flags(p)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--latency", choices=["exponential", "deterministic"],
                   default="exponential")
    p.add_argument("--latency-ms", type=float, default=10.0)
    p.add_argument("--deadline-ms", type=float, default=None)
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
    p.add_argument("--mu", type=int, default=None, help="wait for exactly mu servers")
    p.add_argument("--deadline-ms", type=float, default=1000.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_retrieve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StaircasePIRError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
