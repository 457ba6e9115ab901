"""The benchmark's workloads and the seeded inputs made from them."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    t: int
    q: int
    files: int
    file_bytes: int
    down: int = 0  # servers whose ports are closed before timing
    deadline_s: Optional[float] = None  # None: net.retrieve's default

    @property
    def expected_mu(self) -> int:
        return self.n - self.down


# Why each workload exists is written in run.py's docstring.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("small", n=4, k=2, t=1, q=5, files=8, file_bytes=24),
        Workload("bulk", n=4, k=2, t=1, q=257, files=64, file_bytes=384),
        Workload("degraded", n=4, k=2, t=1, q=257, files=64, file_bytes=384,
                 down=2, deadline_s=0.3),
    )
}


@dataclass
class Inputs:
    """Everything a run draws from its seed."""

    corpus: List[bytes]  # file i (1-based) is corpus[i - 1]
    down: List[int]  # 1-based ids of the servers that are down
    rng: random.Random  # draws the file index of each retrieval

    def next_index(self) -> int:
        return self.rng.randrange(1, len(self.corpus) + 1)


def make_inputs(w: Workload, seed: int) -> Inputs:
    corpus_rng = random.Random(f"{w.name}:{seed}:corpus")
    corpus = [corpus_rng.randbytes(w.file_bytes) for _ in range(w.files)]
    down = sorted(random.Random(f"{w.name}:{seed}:down").sample(range(1, w.n + 1), w.down))
    return Inputs(corpus, down, random.Random(f"{w.name}:{seed}:order"))


def write_corpus(directory: str, corpus: List[bytes]) -> None:
    """One file per entry; names sort in corpus order, as ingest_dir reads them."""
    for idx, data in enumerate(corpus):
        with open(os.path.join(directory, f"file{idx:04d}.bin"), "wb") as fh:
            fh.write(data)
