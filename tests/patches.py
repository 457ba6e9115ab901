"""Patches that tests apply to the package from outside it: a query
randomness draw fixed by a seed, and the mutation the privacy oracles
must catch."""

from contextlib import contextmanager

import pytest

from staircase_pir import staircase


def seed_every_draw(monkeypatch, seed):
    """Make every query's randomness the draw of `seed`, which
    net.retrieve, drawing from the OS, cannot be given."""
    draw = staircase.generate_randomness
    monkeypatch.setattr(staircase, "generate_randomness",
                        lambda params, _, width=None: draw(params, seed, width))


@contextmanager
def randomness_zeroed(u):
    """Within the block, staircase.query_matrix zeroes the coefficient of
    randomness vector u (0-based) in every sub-query: as if r_u were 0 in
    every assignment, and its column of randomness coefficients zero."""
    real = staircase.query_matrix

    def mutated(params, V):
        b = params.alpha_prime + u
        return tuple(tuple(sym[:b] + (0,) + sym[b + 1 :] for sym in row)
                     for row in real(params, V))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(staircase, "query_matrix", mutated)
        yield
