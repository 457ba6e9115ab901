"""Byte <-> field-symbol packing and directory ingestion.

Bytes are split into the widest b-bit chunks with 2^b <= q, MSB first,
so a symbol carries q.bit_length() - 1 bits: a byte for 257 <= q < 512,
16 bits for q = 65537. A manifest records original lengths and that
width so decoded files can be restored byte-identically.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Sequence, Tuple

from .params import SchemeParams
from .protocol import Database


def bits_per_symbol(q: int) -> int:
    """Widest chunk width b with all chunk values below q: 2**b <= q."""
    if q < 2:
        raise ValueError(f"q={q} too small to pack even 1-bit chunks")
    return q.bit_length() - 1


def pack_bytes(data: bytes, q: int) -> List[int]:
    b = bits_per_symbol(q)
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
    packed = [(name, pack_bytes(data, q), len(data)) for name, data in named_contents]
    probe = SchemeParams(n=n, k=k, t=t, m=m, q=q, s=1)
    alpha_prime = probe.alpha_prime
    max_symbols = max(len(sym) for _, sym, _ in packed)
    if s is None:
        s = max(1, math.ceil(max_symbols / alpha_prime))
    params = SchemeParams(n=n, k=k, t=t, m=m, q=q, s=s)
    target = params.file_symbols
    if max_symbols > target:
        raise ValueError(f"batch width s={s} too small for {max_symbols} symbols")
    files = [sym + [0] * (target - len(sym)) for _, sym, _ in packed]
    db = Database.from_files(params, files)
    manifest = {
        "n": n,
        "k": k,
        "t": t,
        "m": m,
        "q": q,
        "s": s,
        "bits_per_symbol": bits_per_symbol(q),
        "files": [
            {"name": name, "orig_len": orig, "symbols": len(sym)}
            for name, sym, orig in packed
        ],
    }
    return params, db, manifest


def ingest_dir(path: str, n: int, k: int, t: int, q: int, s: int = None):
    names = sorted(
        f for f in os.listdir(path) if os.path.isfile(os.path.join(path, f))
    )
    contents = []
    for name in names:
        with open(os.path.join(path, name), "rb") as fh:
            contents.append((name, fh.read()))
    return ingest_files(contents, n, k, t, q, s)


def restore_file(symbols: Sequence[int], manifest: Dict, i: int) -> bytes:
    """Rebuild file i (1-based, manifest order) from decoded symbols."""
    entry = manifest["files"][i - 1]
    return unpack_symbols(symbols, manifest["bits_per_symbol"], entry["orig_len"])


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
