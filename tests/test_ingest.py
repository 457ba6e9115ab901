import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase_pir import ingest
from staircase_pir.errors import FileIndexOutOfRange
from staircase_pir.field import ints_from_bytes, ints_to_bytes
from staircase_pir.protocol import (
    Database,
    decode_file,
    default_encoding_matrix,
    local_responses,
    make_queries,
    plan_download,
)

# b = 1, 2 and 3 divide a byte or straddle bytes, 8 and 16 fill whole
# bytes, and 4, 9, 15 and 30 straddle them.
SPLIT_FIELDS = [2, 3, 5, 7, 11, 13, 17, 251, 257, 521, 65521, 65537, 2**31 - 1]
LANE_WIDTHS = [1, 2, 4, 8, 9, 12]


def pack_bytes(data, q):
    """The reference split, symbol by symbol: data as bits_per_symbol(q)-bit
    symbols, MSB first, the last zero-padded on the right."""
    b = ingest.bits_per_symbol(q)
    if b == 8:
        return list(data)
    symbols = []
    acc = 0
    nbits = 0
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= b:
            nbits -= b
            symbols.append(acc >> nbits)
            acc &= (1 << nbits) - 1
    if nbits:
        symbols.append(acc << (b - nbits))
    return symbols


def split(data, q, width=4):
    """data's symbols as lanes_from_bytes splits them, read back from its lanes."""
    b = ingest.bits_per_symbol(q)
    count = math.ceil(8 * len(data) / b)
    return list(ints_from_bytes(ingest.lanes_from_bytes(data, b, width, count), width, count))


@pytest.mark.parametrize("q,b", [
    (2**31 - 1, 30), (65537, 16), (257, 8), (131, 7), (5, 2), (3, 1), (2, 1)])
def test_bits_per_symbol(q, b):
    assert ingest.bits_per_symbol(q) == b


def test_bits_per_symbol_refuses_q_below_2():
    with pytest.raises(ValueError):
        ingest.bits_per_symbol(1)


@pytest.mark.parametrize("q", [2**31 - 1, 65537, 257, 131, 17, 5, 3, 2])
def test_pack_unpack_roundtrip(q):
    rng = random.Random(q)
    for length in (0, 1, 2, 3, 7, 64, 255):
        data = bytes(rng.randrange(256) for _ in range(length))
        symbols = split(data, q)
        assert len(symbols) == math.ceil(8 * length / ingest.bits_per_symbol(q))
        assert all(0 <= sym < q for sym in symbols)
        assert ingest.unpack_symbols(symbols, ingest.bits_per_symbol(q), length) == data


def test_pack_known_values():
    # 0xAB in 2-bit chunks, MSB first: 10 10 10 11.
    assert split(b"\xab", 5) == [2, 2, 2, 3]
    # Trailing bits are zero-padded on the right.
    assert split(b"\x80", 3) == [1, 0, 0, 0, 0, 0, 0, 0]
    assert split(b"ab", 257) == [97, 98]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lanes_from_bytes_matches_the_reference_split(data):
    q = data.draw(st.sampled_from(SPLIT_FIELDS))
    b = ingest.bits_per_symbol(q)
    width = data.draw(st.sampled_from([w for w in LANE_WIDTHS if 8 * w >= b]))
    raw = data.draw(st.binary(max_size=100))
    symbols = pack_bytes(raw, q)
    count = len(symbols) + data.draw(st.integers(0, 5))
    assert ingest.lanes_from_bytes(raw, b, width, count) == ints_to_bytes(
        symbols + [0] * (count - len(symbols)), width)


@pytest.mark.parametrize("q", SPLIT_FIELDS)
def test_lanes_from_bytes_refuses_too_few_lanes(q):
    b = ingest.bits_per_symbol(q)
    with pytest.raises(ValueError):
        ingest.lanes_from_bytes(b"staircase", b, 8, len(pack_bytes(b"staircase", q)) - 1)


@pytest.mark.parametrize("q", [2**31 - 1, 65537, 521, 257, 17, 5, 2])
def test_ingest_files_builds_the_slabs_of_the_reference_symbols(q):
    rng = random.Random(q + 2)
    files = [(f"f{length}", rng.randbytes(length)) for length in (0, 1, 7, 31, 64)]
    params, db, manifest = ingest.ingest_files(files, n=4, k=2, t=1, q=q)
    reference = [pack_bytes(data, q) for _, data in files]
    padded = [sym + [0] * (params.file_symbols - len(sym)) for sym in reference]
    assert db._slabs == Database.from_files(params, padded)._slabs
    assert [f["symbols"] for f in manifest["files"]] == [
        math.ceil(8 * len(data) / ingest.bits_per_symbol(q)) for _, data in files]


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


def test_restore_refuses_a_file_index_outside_the_manifest():
    _, _, manifest = ingest.ingest_files([("a", b"first"), ("b", b"second!")],
                                         n=3, k=2, t=1, q=257)
    symbols = list(b"second!")
    assert ingest.restore_file(symbols, manifest, 2) == b"second!"
    for i in (0, -1, 3):
        with pytest.raises(FileIndexOutOfRange):
            ingest.restore_file(symbols, manifest, i)


def test_ingest_dir_and_manifest_roundtrip(tmp_path):
    (tmp_path / "one.bin").write_bytes(b"\x01\x02\x03")
    (tmp_path / "two.bin").write_bytes(b"\xff" * 10)
    (tmp_path / "sub").mkdir()  # not a file: skipped
    (tmp_path / "sub" / "three.bin").write_bytes(b"\x00")
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
