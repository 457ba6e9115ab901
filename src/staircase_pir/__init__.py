"""Universally robust private information retrieval over replicated data.

A user queries n replicas of an m-file database and retrieves a file
from any mu in [k, n] responses at download rate 1 - t/mu, keeping the
requested index private against any t colluding servers. The package
also exposes the underlying communication-efficient secret sharing
codec, verification oracles for the privacy/robustness/rate claims, a
straggler simulator and a socket demo.
"""

from .errors import StaircasePIRError
from .field import Matrix, PrimeField, vandermonde
from .params import SchemeParams
from .protocol import (
    Database,
    DownloadPlan,
    capacity_asymptotic,
    capacity_finite,
    decode_file,
    default_encoding_matrix,
    local_responses,
    make_queries,
    plan_download,
    server_respond,
)
from .staircase import (
    MessageGrid,
    build_message_grid,
    encode_shares,
    generate_randomness,
    peel_decode,
    ss_reconstruct,
    ss_share,
    validate_encoding_matrix,
)

__all__ = [
    "Database",
    "DownloadPlan",
    "Matrix",
    "MessageGrid",
    "PrimeField",
    "SchemeParams",
    "StaircasePIRError",
    "build_message_grid",
    "capacity_asymptotic",
    "capacity_finite",
    "decode_file",
    "default_encoding_matrix",
    "encode_shares",
    "generate_randomness",
    "local_responses",
    "make_queries",
    "peel_decode",
    "plan_download",
    "server_respond",
    "ss_reconstruct",
    "ss_share",
    "validate_encoding_matrix",
    "vandermonde",
]

__version__ = "0.1.0"
