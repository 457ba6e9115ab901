import csv
import json
import os
import socket
import subprocess
import sys
import time

import pytest

import staircase_pir
from staircase_pir import ingest, net
from staircase_pir.cli import main
from staircase_pir.protocol import default_encoding_matrix

FILES = {"a.txt": b"staircase", "b.txt": b"private information retrieval"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_text(capsys):
    code, out, _ = run(capsys, "params", "--n", "4", "--k", "2", "--t", "1", "--m", "2",
                       "--q", "5")
    assert code == 0
    assert "alpha:6" in out.replace(" ", "")
    assert "block_cols: [2, 1, 3]" in out


def test_params_json_lines(capsys):
    code, out, _ = run(capsys, "--format", "json-lines", "params",
                       "--n", "3", "--k", "2", "--t", "1")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["alpha"] == 2
    assert rec["block_cols"] == [1, 1]


def test_params_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "params",
                       "--n", "3", "--k", "2", "--t", "1")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[:3] == ["n", "k", "t"]
    assert row.split(",")[:3] == ["3", "2", "1"]


def test_capacity_values(capsys):
    code, out, _ = run(capsys, "capacity", "--t", "1", "--k", "10", "--m", "3")
    assert code == 0
    assert "100/111" in out  # 900/999 in lowest terms
    assert "9/10" in out
    assert "999/1000" in out


def test_demo_example2(capsys):
    code, out, _ = run(capsys, "demo", "--example", "2")
    assert code == 0
    assert "rate 1/2" in out
    assert "rate 2/3" in out
    assert "rate 3/4" in out
    assert "FAILED" not in out
    assert "e'1" in out  # the grid is printed symbolically


def test_demo_example1_single_mu(capsys):
    code, out, _ = run(capsys, "demo", "--example", "1", "--mu", "2", "--i", "2")
    assert code == 0
    assert "rate 1/2" in out
    assert "rate 2/3" not in out


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--k", "2", "--t", "1",
                       "--m", "2", "--trials", "2")
    assert code == 0
    assert "FAIL" not in out
    assert "pass" in out


def test_verify_exhaustive_skips_when_too_large(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--k", "2", "--t", "1",
                       "--m", "2", "--exhaustive", "--trials", "1")
    assert code == 0
    assert "exhaustive privacy skipped" in out


def test_simulate_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "simulate", "--n", "4", "--k", "2", "--t", "1",
                       "--reps", "20", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("config_id,wait_for,deadline_ms")
    assert len(lines) == 4  # header + one row per mu in [k, n]
    assert all(line.endswith("1.0") for line in lines[1:])


def test_invalid_params_exit_code(capsys):
    code, _, err = run(capsys, "params", "--n", "4", "--k", "2", "--t", "2")
    assert code == 1
    assert "error" in err


RETRIEVE = ["retrieve", "--manifest", "{manifest}", "--endpoints", "{endpoints}",
            "--i", "1"]


def _bad_manifests(manifest):
    """Manifests, each broken in one way, derived from a good one."""
    good = json.loads(manifest.read_text())
    return {
        "keys": {"n": 3},
        "short-files": {**good, "files": good["files"][:-1]},
        "no-width": {key: value for key, value in good.items() if key != "bits_per_symbol"},
        "wide-symbols": {**good, "bits_per_symbol": 9},
        "long-file": {**good, "files": [{**good["files"][0], "orig_len": 10**6},
                                        *good["files"][1:]]},
    }


@pytest.mark.parametrize("argv", [
    ["params", "--n", "4", "--k", "2", "--t", "1", "--m", "0"],
    ["simulate", "--n", "4", "--k", "2", "--t", "1", "--mu", "7"],
    ["simulate", "--n", "4", "--k", "2", "--t", "1", "--mu", "0"],
    ["simulate", "--n", "4", "--k", "2", "--t", "1", "--deadline-ms", "0"],
    ["simulate", "--n", "4", "--k", "2", "--t", "1", "--reps", "3", "--latency-ms", "inf"],
    ["simulate", "--n", "4", "--k", "2", "--t", "1", "--reps", "-2"],
    ["simulate", "--n", "4", "--k", "2", "--t", "1", "--reps", "0"],
    ["demo", "--example", "2", "--mu", "0"],
    RETRIEVE + ["--mu", "0"],
    RETRIEVE + ["--deadline-ms", "inf"],
    ["retrieve", "--manifest", "{tmp}/keys.json", "--endpoints", "{endpoints}", "--i", "1"],
    ["retrieve", "--manifest", "{tmp}/short-files.json", "--endpoints", "{endpoints}",
     "--i", "1"],
    ["retrieve", "--manifest", "{tmp}/no-width.json", "--endpoints", "{endpoints}",
     "--i", "1"],
    ["retrieve", "--manifest", "{tmp}/wide-symbols.json", "--endpoints", "{endpoints}",
     "--i", "1"],
    ["retrieve", "--manifest", "{tmp}/long-file.json", "--endpoints", "{endpoints}",
     "--i", "1"],
    ["retrieve", "--manifest", "{manifest}", "--endpoints", "{repeated}", "--i", "1"],
    ["serve", "--n", "3", "--k", "2", "--t", "1", "--listen", "127.0.0.1:0",
     "--data-dir", "{empty}"],
    ["serve", "--n", "3", "--k", "2", "--t", "1", "--listen", "127.0.0.1:0",
     "--data-dir", "{missing}"],
], ids=["params-m-0", "simulate-mu-above-n", "simulate-mu-0", "simulate-deadline-0",
        "simulate-latency-inf", "simulate-reps-negative",
        "simulate-reps-0",
        "demo-mu-0", "retrieve-mu-0", "retrieve-deadline-inf",
        "retrieve-manifest-keys", "retrieve-manifest-short-files",
        "retrieve-manifest-no-width", "retrieve-manifest-wide-symbols",
        "retrieve-manifest-long-file", "retrieve-repeated-endpoint", "serve-empty-dir",
        "serve-missing-dir"])
def test_rejected_value_is_one_error_line(argv, capsys, tmp_path, request):
    # A value the parser accepts but the scheme or the file system does not:
    # one `error:` line and exit 1, not a traceback. A retrieval is refused
    # from servers that are up and would serve it.
    (tmp_path / "empty").mkdir()
    manifest, endpoints, repeated = None, None, None
    if argv[0] == "retrieve":
        _, manifest, endpoints = request.getfixturevalue("deployment")
        repeated = ",".join(endpoints[:1] + endpoints[:-1])
        endpoints = ",".join(endpoints)
        for name, bad in _bad_manifests(manifest).items():
            (tmp_path / f"{name}.json").write_text(json.dumps(bad))
    argv = [arg.format(empty=tmp_path / "empty", missing=tmp_path / "missing",
                       manifest=manifest, endpoints=endpoints, repeated=repeated,
                       tmp=tmp_path)
            for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")


def test_exhaustive_skip_is_quick(capsys):
    # 5^8 assignments are 4,687,500 sub-query expansions, over the cap:
    # skipped at once, where running them takes tens of seconds.
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--exhaustive", "--n", "3", "--k", "2",
                       "--t", "1", "--m", "2", "--q", "5")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert "exhaustive privacy skipped: 4687500 sub-query expansions" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["params", "--n", "4"])  # missing required flags
    assert exc.value.code == 2


def test_retrieve_takes_no_seed(capsys):
    # Query randomness comes from the OS CSPRNG: a seed a user picks is one
    # a server can search for from the sub-queries it holds.
    with pytest.raises(SystemExit) as exc:
        main(["retrieve", "--manifest", "m.json", "--endpoints", "127.0.0.1:1",
              "--i", "1", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_params_csv_quotes_lists(capsys):
    code, out, _ = run(capsys, "--format", "csv", "params", "--n", "4", "--k", "2", "--t", "1")
    assert code == 0
    (row,) = csv.DictReader(out.splitlines())
    assert None not in row  # no field past the header
    assert row["block_cols"] == "[2, 1, 3]"
    assert row["mu"] == "[4, 3, 2]"


@pytest.fixture
def deployment(tmp_path):
    """A data directory, its manifest and a (3,2,1) cluster serving it:
    (data dir, manifest path, endpoints)."""
    data = tmp_path / "data"
    data.mkdir()
    for name, content in FILES.items():
        (data / name).write_bytes(content)
    params, db, manifest = ingest.ingest_dir(str(data), n=3, k=2, t=1, q=257)
    ingest.write_manifest(str(tmp_path / "manifest.json"), manifest)
    V = default_encoding_matrix(params)
    servers = [net.serve("127.0.0.1", 0, db, params, V) for _ in range(params.n)]
    yield data, tmp_path / "manifest.json", ["%s:%d" % srv.server_address for srv in servers]
    for srv in servers:
        srv.shutdown()
        srv.server_close()


# Each command's arguments, and a key that every one of its records has.
COMMANDS = {
    "params": (["params", "--n", "4", "--k", "2", "--t", "1"], "block_cols"),
    "capacity": (["capacity", "--t", "1", "--k", "3"], "capacity_finite"),
    "demo": (["demo", "--example", "2"], "rate"),
    "verify": (["verify", "--n", "3", "--k", "2", "--t", "1", "--trials", "1"], "verdict"),
    "simulate": (["simulate", "--n", "3", "--k", "2", "--t", "1", "--reps", "5"],
                 "success_fraction"),
    "serve": (["serve", "--n", "3", "--k", "2", "--t", "1", "--listen", "127.0.0.1:0"],
              "listen"),
    "retrieve": (["retrieve", "--i", "2"], "outcomes"),
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json-lines"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_in_every_format(command, fmt, capsys, monkeypatch, request):
    argv, key = COMMANDS[command]
    if command == "serve":
        data, _, _ = request.getfixturevalue("deployment")
        argv = argv + ["--data-dir", str(data)]

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(net.PIRServer, "serve_forever", interrupted)
    if command == "retrieve":
        data, manifest, endpoints = request.getfixturevalue("deployment")
        out_path = data.parent / "out.bin"
        argv = argv + ["--manifest", str(manifest), "--endpoints", ",".join(endpoints),
                       "--out", str(out_path)]
    code, out, _ = run(capsys, "--format", fmt, *argv)
    assert code == 0
    if command == "retrieve":
        assert out_path.read_bytes() == FILES["b.txt"]
    if fmt == "json-lines":
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(key in rec for rec in records)
    elif fmt == "csv":
        header, *rows = csv.reader(out.splitlines())
        assert key in header
        assert rows and all(len(row) == len(header) for row in rows)
    else:
        assert out.strip()


def test_retrieve_record_names_a_refused_server(deployment, capsys):
    _, manifest, endpoints = deployment
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        closed = "127.0.0.1:%d" % probe.getsockname()[1]
    code, out, err = run(capsys, "--format", "json-lines", "retrieve",
                         "--manifest", str(manifest), "--i", "1",
                         "--endpoints", ",".join(endpoints[:2] + [closed]))
    assert code == 0
    assert out == FILES["a.txt"].decode()  # the file on stdout, the record on stderr
    (rec,) = map(json.loads, err.splitlines())
    assert rec["outcomes"] == {"1": "ok", "2": "ok", "3": "refused"}
    assert rec["realized_mu"] == 2
    assert rec["rate"] == "1/2"
    assert rec["file_bytes"] == len(FILES["a.txt"])


def test_closed_stdout_exits_without_a_traceback():
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity is fixed on this platform")
    read_fd, write_fd = os.pipe()
    # A one-page pipe: the command writes 11 KB, over twice that, so it is
    # still writing when the reader goes after one line (`| head -1`).
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    src = os.path.dirname(os.path.dirname(staircase_pir.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "staircase_pir.cli", "verify",
         "--n", "11", "--k", "10", "--t", "4", "--m", "1", "--trials", "1"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        assert reader.readline().strip()
    _, err = proc.communicate(timeout=60)
    assert b"Traceback" not in err
    assert proc.returncode == 1
