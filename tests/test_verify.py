import argparse
import itertools
import json
from contextlib import nullcontext

import pytest
from patches import randomness_zeroed

from staircase_pir import cli, protocol
from staircase_pir.errors import SearchSpaceTooLarge
from staircase_pir.examples import example1, example2
from staircase_pir.field import Matrix, PrimeField
from staircase_pir.params import RANDOMNESS_FIRST, SchemeParams
from staircase_pir.protocol import default_encoding_matrix
from staircase_pir.verify import (
    EXHAUSTIVE_CAP,
    exhaustive_space,
    exhaustive_work,
    verify_privacy_exhaustive,
    verify_privacy_rank,
    verify_rates,
    verify_robustness,
)


def small_instance():
    # Smallest nontrivial instance whose full randomness space (3^8 = 6561
    # assignments, 78,732 sub-query expansions) fits under the exhaustive cap.
    params = SchemeParams(n=3, k=2, t=1, m=2, q=3, row_order=RANDOMNESS_FIRST)
    V = Matrix(PrimeField(3), [[1, 0, 0], [1, 1, 0], [1, 2, 1]])
    return params, V


class TestExhaustivePrivacy:
    def test_passes(self):
        params, V = small_instance()
        report = verify_privacy_exhaustive(params, V)
        assert report.ok
        assert len(report.verdicts) == 3  # one per single-server subset
        # Each server's view is uniform: every observable equally likely.
        for subset, hists in report.histograms.items():
            for counter in hists.values():
                assert len(set(counter.values())) == 1

    def test_mutation_control_fails(self):
        # Zeroing one randomness vector leaks the index to some server.
        params, V = small_instance()
        with randomness_zeroed(0):
            report = verify_privacy_exhaustive(params, V)
        assert not report.ok

    def test_single_file_trivially_private(self):
        params = SchemeParams(n=3, k=2, t=1, m=1, q=3, row_order=RANDOMNESS_FIRST)
        _, V = small_instance()
        assert verify_privacy_exhaustive(params, V).ok

    def test_space_does_not_grow_with_s(self):
        # Queries have one coefficient per slab, so s=3 enumerates the same
        # 3^8 assignments as s=1 (per-symbol queries would need 3^24).
        base, V = small_instance()
        params = SchemeParams(n=3, k=2, t=1, m=2, q=3, s=3, row_order=RANDOMNESS_FIRST)
        assert exhaustive_space(params) == exhaustive_space(base) == 3**8
        assert verify_privacy_exhaustive(params, V).ok
        with randomness_zeroed(0):
            assert not verify_privacy_exhaustive(params, V).ok

    def test_cap_bounds_expansions_not_assignments(self):
        # Every assignment makes n servers * m * alpha = 12 expansions,
        # so 5^8 assignments, fewer than the cap, are 4.7 times its work.
        base, _ = small_instance()
        assert exhaustive_work(base) == 3**8 * 12 == 78_732 <= EXHAUSTIVE_CAP
        params = SchemeParams(n=3, k=2, t=1, m=2, q=5)
        assert exhaustive_space(params) == 5**8 < EXHAUSTIVE_CAP
        assert exhaustive_work(params) == 4_687_500 > EXHAUSTIVE_CAP
        with pytest.raises(SearchSpaceTooLarge):
            verify_privacy_exhaustive(params, default_encoding_matrix(params))

    def test_large_space_rejected(self):
        params, V = example2()
        assert params.q ** (params.randomness_count * params.x_length) > EXHAUSTIVE_CAP
        with pytest.raises(SearchSpaceTooLarge):
            verify_privacy_exhaustive(params, V)


class TestRankPrivacy:
    @pytest.mark.parametrize("nkt", [(3, 2, 1), (4, 2, 1), (4, 3, 1), (5, 3, 2), (6, 4, 2)])
    def test_default_matrix_passes(self, nkt):
        n, k, t = nkt
        params = SchemeParams(n=n, k=k, t=t, m=2, q=257)
        report = verify_privacy_rank(params, default_encoding_matrix(params))
        assert report.ok
        assert report.mode == "rank"

    def test_mutation_control_fails(self):
        params, V = example2()
        assert verify_privacy_rank(params, V).ok
        with randomness_zeroed(0):
            assert not verify_privacy_rank(params, V).ok

    @pytest.mark.parametrize("example", [example1, example2])
    def test_examples_are_private_in_their_own_row_order(self, example):
        # Example 1's lower-triangular V leaks the file to server 1 unless
        # randomness is above payload; its params say so.
        params, V = example()
        assert verify_privacy_rank(params, V).ok

    def test_agrees_with_exhaustive_oracle(self):
        # On the instance small enough to brute-force, both verdicts match,
        # with and without the mutation.
        params, V = small_instance()
        for mutation in (nullcontext(), randomness_zeroed(0), randomness_zeroed(1)):
            with mutation:
                rank_ok = verify_privacy_rank(params, V).ok
                exhaustive_ok = verify_privacy_exhaustive(params, V).ok
            assert rank_ok == exhaustive_ok


class TestRobustness:
    def test_example2_all_subsets(self):
        params, V = example2()
        report = verify_robustness(params, V, trials=3, seed=1)
        assert report.ok
        assert report.failures == []

    def test_trials_validated(self):
        params, V = example2()
        with pytest.raises(ValueError):
            verify_robustness(params, V, trials=0)


def test_a_wrong_decode_fails_robustness_for_every_subset_file_and_trial(
        monkeypatch, capsys):
    decode_file = protocol.decode_file

    def off_by_one(params, *args):
        decoded = decode_file(params, *args)
        decoded[0] = (decoded[0] + 1) % params.q
        return decoded

    monkeypatch.setattr(protocol, "decode_file", off_by_one)
    params = SchemeParams(n=4, k=2, t=1, m=2, q=5)
    V = default_encoding_matrix(params)
    report = verify_robustness(params, V, trials=2, seed=1)
    subsets = [subset for size in (2, 3, 4)
               for subset in itertools.combinations(range(1, 5), size)]
    assert report.failures == [
        (subset, i, trial) for trial in (0, 1) for i in (1, 2) for subset in subsets]
    code = cli.main(["--format", "json-lines", "verify", "--n", "4", "--k", "2", "--t", "1",
                     "--m", "2", "--q", "5", "--trials", "1"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert [rec["subset"] for rec in records
            if rec["mode"] == "robustness" and rec["verdict"] == "FAIL"] == [
        "all-subsets>=k", *("+".join(map(str, subset)) for i in (1, 2) for subset in subsets)]


def test_rates_table():
    params, _ = example2()
    rows = verify_rates(params)
    assert [(mu, sym, str(rate)) for mu, sym, rate, _, _ in rows] == [
        (2, 12, "1/2"),
        (3, 9, "2/3"),
        (4, 8, "3/4"),
    ]
    assert all(match for *_, match in rows)


def test_report_rendering(capsys):
    # A report's records, as `staircase-pir verify` writes them.
    params, V = small_instance()
    report = verify_privacy_exhaustive(params, V)
    rows = cli._privacy_records(report)
    cli._emit(argparse.Namespace(format="text"), rows, cli._verify_text)
    text = capsys.readouterr().out
    assert "pass" in text and "FAIL" not in text
    cli._emit(argparse.Namespace(format="csv"), rows)
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0] == "subset,mode,verdict"
    assert len(csv_out.splitlines()) == 1 + len(rows)
