import math
import random

import pytest

from staircase_pir import ingest
from staircase_pir.protocol import (
    decode_file,
    default_encoding_matrix,
    local_responses,
    make_queries,
    plan_download,
)


@pytest.mark.parametrize("q,b", [
    (2**31 - 1, 30), (65537, 16), (257, 8), (131, 7), (5, 2), (3, 1), (2, 1)])
def test_bits_per_symbol(q, b):
    assert ingest.bits_per_symbol(q) == b


@pytest.mark.parametrize("q", [2**31 - 1, 65537, 257, 131, 17, 5, 3, 2])
def test_pack_unpack_roundtrip(q):
    rng = random.Random(q)
    for length in (0, 1, 2, 3, 7, 64, 255):
        data = bytes(rng.randrange(256) for _ in range(length))
        symbols = ingest.pack_bytes(data, q)
        assert len(symbols) == math.ceil(8 * length / ingest.bits_per_symbol(q))
        assert all(0 <= sym < q for sym in symbols)
        assert ingest.unpack_symbols(symbols, ingest.bits_per_symbol(q), length) == data


def test_pack_known_values():
    # 0xAB in 2-bit chunks, MSB first: 10 10 10 11.
    assert ingest.pack_bytes(b"\xab", 5) == [2, 2, 2, 3]
    # Trailing bits are zero-padded on the right.
    assert ingest.pack_bytes(b"\x80", 3) == [1, 0, 0, 0, 0, 0, 0, 0]
    assert ingest.pack_bytes(b"ab", 257) == [97, 98]


@pytest.mark.parametrize("q", [2**31 - 1, 65537, 257, 5])
def test_ingest_and_retrieve_byte_identical(q):
    rng = random.Random(q + 1)
    files = [
        ("a.bin", bytes(rng.randrange(256) for _ in range(40))),
        ("b.txt", b"hello, staircase"),
        ("empty", b""),
    ]
    params, db, manifest = ingest.ingest_files(files, n=4, k=2, t=1, q=q)
    V = default_encoding_matrix(params)
    for i, (name, data) in enumerate(files, start=1):
        assert manifest["files"][i - 1]["name"] == name
        queries = make_queries(params, V, i, seed=i)
        for mu in (2, 3, 4):
            plan = plan_download(params, list(range(1, mu + 1)))
            decoded = decode_file(params, V, plan, local_responses(db, queries, plan))
            assert ingest.restore_file(decoded, manifest, i) == data


def test_restore_reads_the_width_from_the_manifest():
    # A q=65537 manifest that records a byte a symbol, the width this
    # package once used there, still restores what was packed that way.
    data = b"staircase"
    manifest = {"q": 65537, "bits_per_symbol": 8,
                "files": [{"name": "a", "orig_len": len(data), "symbols": len(data)}]}
    assert ingest.restore_file(list(data) + [0, 0], manifest, 1) == data


def test_ingest_dir_and_manifest_roundtrip(tmp_path):
    (tmp_path / "one.bin").write_bytes(b"\x01\x02\x03")
    (tmp_path / "two.bin").write_bytes(b"\xff" * 10)
    params, db, manifest = ingest.ingest_dir(str(tmp_path), n=3, k=2, t=1, q=257)
    assert [f["name"] for f in manifest["files"]] == ["one.bin", "two.bin"]
    assert db.file_content(2)[:10] == [255] * 10

    path = tmp_path / "manifest.json"
    ingest.write_manifest(str(path), manifest)
    loaded = ingest.read_manifest(str(path))
    assert loaded == manifest
    assert ingest.params_from_manifest(loaded) == params


@pytest.mark.parametrize("bits,orig_len", [(0, 9), (9, 9), (8, 11), (8, 10**6)],
                         ids=["no-bits", "wider-than-q", "past-the-symbols", "far-past"])
def test_read_manifest_refuses_a_manifest_that_restores_wrong_bytes(tmp_path, bits, orig_len):
    # At q=257 a symbol holds 8 bits, and the 9 bytes below get a file of
    # 10 symbols: 9 bits would restore other bytes, 0 none, and a longer
    # orig_len would return the padding.
    _, _, manifest = ingest.ingest_files([("a", b"staircase")], n=3, k=2, t=1, q=257)
    path = str(tmp_path / "manifest.json")
    manifest["files"][0]["orig_len"] = 10  # every byte the symbols hold
    ingest.write_manifest(path, manifest)
    assert ingest.read_manifest(path) == manifest
    manifest["bits_per_symbol"] = bits
    manifest["files"][0]["orig_len"] = orig_len
    ingest.write_manifest(path, manifest)
    with pytest.raises(ValueError):
        ingest.read_manifest(path)


def test_explicit_batch_width_validated():
    with pytest.raises(ValueError):
        ingest.ingest_files([("big", b"x" * 100)], n=3, k=2, t=1, q=257, s=1)
    params, _, _ = ingest.ingest_files([("big", b"x" * 100)], n=3, k=2, t=1, q=257)
    assert params.s * params.alpha_prime >= 100


def test_ingest_requires_files():
    with pytest.raises(ValueError):
        ingest.ingest_files([], n=3, k=2, t=1, q=257)
