"""Byte <-> field-symbol packing and directory ingestion.

Bytes are split into the widest b-bit chunks with 2^b <= q, MSB first,
so a symbol carries q.bit_length() - 1 bits: a byte for 257 <= q < 512,
16 bits for q = 65537. A manifest records original lengths and that
width so decoded files can be restored byte-identically.

Ingest makes no Python object per symbol. `lanes_from_bytes` turns a
file's bytes straight into the W-byte little-endian lanes a `Database`
cuts its slabs from: the bytes fall into groups of G = lcm(b, 8) / 8,
each holding 8G / b symbols, and each byte of each symbol's lane is one
or two `bytes.translate` passes over a byte plane `data[p::G]`, written
with one stride slice assignment. Restoring a retrieved file
(`restore_file`) still joins its symbols one by one, about 10 us a
retrieval at a byte a symbol.
"""

from __future__ import annotations

import json
import math
import os
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from .errors import FileIndexOutOfRange
from .params import SchemeParams
from .protocol import Database


def bits_per_symbol(q: int) -> int:
    """Widest chunk width b with all chunk values below q: 2**b <= q."""
    if q < 2:
        raise ValueError(f"q={q} too small to pack even 1-bit chunks")
    return q.bit_length() - 1


def _symbol_count(length: int, bits: int) -> int:
    """Symbols of `bits` bits that hold `length` bytes: ceil(8 * length / bits)."""
    return -(-8 * length // bits)


@lru_cache(maxsize=None)
def _split_plan(bits: int, width: int) -> Tuple[int, int, tuple]:
    """How lanes_from_bytes cuts `bits`-bit symbols into `width`-byte lanes:
    the bytes G in a group, the symbols a group holds, and for each lane
    byte that can be nonzero, its offset in a group's lanes with the
    (byte plane, translate table) pairs ORed into it."""
    group = math.lcm(bits, 8) // 8
    per_group = 8 * group // bits
    plan = []
    for j in range(per_group):
        end = (j + 1) * bits  # one past symbol j's last bit, counted from the group's MSB
        for lane in range(-(-bits // 8)):
            low, top = 8 * lane, min(8 * lane + 8, bits)  # value bits in this lane byte
            mask = (1 << (top - low)) - 1
            sources = []
            for p in range((end - top) // 8, (end - 1 - low) // 8 + 1):
                shift = end - 8 - 8 * p - low  # lane bit = bit of byte p + shift
                sources.append((p, bytes(
                    (v << shift if shift >= 0 else v >> -shift) & mask for v in range(256))))
            plan.append((j * width + lane, tuple(sources)))
    return group, per_group, tuple(plan)


def lanes_from_bytes(data: bytes, bits: int, width: int, count: int) -> bytes:
    """`count` lanes of `width` bytes, little-endian: the `bits`-bit symbols
    of data, MSB first with the last zero-padded on the right, then zero
    lanes. ValueError if the symbols need more than `count` lanes or more
    bits than a lane holds."""
    if 8 * width < bits or count < _symbol_count(len(data), bits):
        raise ValueError(f"{len(data)} bytes do not fit {count} lanes of {width} bytes")
    group, per_group, plan = _split_plan(bits, width)
    groups = -(-len(data) // group)
    data = data.ljust(groups * group, b"\0")
    planes = [data[p::group] for p in range(group)]
    stride = per_group * width
    out = bytearray(max(count, groups * per_group) * width)
    for offset, ((p, table), *rest) in plan:
        lane = planes[p].translate(table)
        for p, table in rest:  # the bits of a lane byte that straddles two bytes
            lane = (int.from_bytes(lane, "big")
                    | int.from_bytes(planes[p].translate(table), "big")).to_bytes(groups, "big")
        out[offset : groups * stride : stride] = lane
    del out[count * width :]
    return bytes(out)


def unpack_symbols(symbols: Sequence[int], bits: int, orig_len: int) -> bytes:
    """The first orig_len bytes of symbols of `bits` bits each, MSB first."""
    if bits == 8:
        return bytes(symbols[:orig_len])
    acc = 0
    nbits = 0
    out = bytearray()
    for sym in symbols:
        acc = (acc << bits) | sym
        nbits += bits
        while nbits >= 8:
            nbits -= 8
            out.append(acc >> nbits)
            acc &= (1 << nbits) - 1
    return bytes(out[:orig_len])


def ingest_files(
    named_contents: Sequence[Tuple[str, bytes]],
    n: int,
    k: int,
    t: int,
    q: int,
    s: int = None,
) -> Tuple[SchemeParams, Database, Dict]:
    """Pack files into a database, padding with zero symbols.

    Every file becomes alpha' * s symbols; s defaults to the smallest
    batch width that fits the largest file.
    """
    m = len(named_contents)
    if m < 1:
        raise ValueError("need at least one file")
    bits = bits_per_symbol(q)
    counts = [_symbol_count(len(data), bits) for _, data in named_contents]
    probe = SchemeParams(n=n, k=k, t=t, m=m, q=q, s=1)
    if s is None:
        s = max(1, math.ceil(max(counts) / probe.alpha_prime))
    params = SchemeParams(n=n, k=k, t=t, m=m, q=q, s=s)
    if max(counts) > params.file_symbols:
        raise ValueError(f"batch width s={s} too small for {max(counts)} symbols")
    width = Database.lane_width(params)
    db = Database.from_lanes(params, [
        lanes_from_bytes(data, bits, width, params.file_symbols) for _, data in named_contents])
    manifest = {
        "n": n,
        "k": k,
        "t": t,
        "m": m,
        "q": q,
        "s": s,
        "bits_per_symbol": bits,
        "files": [
            {"name": name, "orig_len": len(data), "symbols": count}
            for (name, data), count in zip(named_contents, counts)
        ],
    }
    return params, db, manifest


def ingest_dir(path: str, n: int, k: int, t: int, q: int, s: int = None):
    """ingest_files over the regular files directly in `path`, by sorted name."""
    with os.scandir(path) as entries:
        names = sorted(entry.name for entry in entries if entry.is_file())
    contents = []
    for name in names:
        with open(os.path.join(path, name), "rb") as fh:
            contents.append((name, fh.read()))
    return ingest_files(contents, n, k, t, q, s)


def restore_file(symbols: Sequence[int], manifest: Dict, i: int) -> bytes:
    """Rebuild file i (1-based, manifest order) from decoded symbols;
    FileIndexOutOfRange for i outside [1, m]."""
    files = manifest["files"]
    if not 1 <= i <= len(files):
        raise FileIndexOutOfRange(f"file index {i} outside [1, {len(files)}]")
    return unpack_symbols(symbols, manifest["bits_per_symbol"], files[i - 1]["orig_len"])


def params_from_manifest(manifest: Dict) -> SchemeParams:
    return SchemeParams(
        n=manifest["n"], k=manifest["k"], t=manifest["t"],
        m=manifest["m"], q=manifest["q"], s=manifest["s"],
    )


def write_manifest(path: str, manifest: Dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)


def read_manifest(path: str) -> Dict:
    """The manifest at `path`; ValueError unless it has integer n, k, t, m,
    q, s and bits_per_symbol, and m file entries, each with an integer
    orig_len >= 0, or the error SchemeParams raises for its scheme. It must
    also restore each file's own bytes: a symbol carries bits_per_symbol in
    [1, q.bit_length() - 1] bits, and no orig_len exceeds the bytes a
    file's symbols hold."""
    with open(path) as fh:
        manifest = json.load(fh)
    ints = ("n", "k", "t", "m", "q", "s", "bits_per_symbol")
    try:
        if (all(type(manifest[key]) is int for key in ints)
                and len(manifest["files"]) == manifest["m"]
                and 1 <= manifest["bits_per_symbol"] < manifest["q"].bit_length()):
            held = params_from_manifest(manifest).file_symbols * manifest["bits_per_symbol"] // 8
            if all(type(f["orig_len"]) is int and 0 <= f["orig_len"] <= held
                   for f in manifest["files"]):
                return manifest
    except (KeyError, TypeError):  # a key missing, or a value of the wrong kind
        pass
    raise ValueError(f"{path} is not a manifest of the form ingest writes")
