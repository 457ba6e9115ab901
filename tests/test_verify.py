import pytest

from staircase_pir.errors import SearchSpaceTooLarge
from staircase_pir.examples import example2
from staircase_pir.field import Matrix, PrimeField
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import default_encoding_matrix
from staircase_pir.staircase import RANDOMNESS_FIRST
from staircase_pir.verify import (
    EXHAUSTIVE_CAP,
    exhaustive_space,
    report_csv,
    report_text,
    verify_privacy_exhaustive,
    verify_privacy_rank,
    verify_rates,
    verify_robustness,
)


def small_instance():
    # Smallest nontrivial instance whose full randomness space (3^8 = 6561
    # assignments) fits under the exhaustive cap.
    params = SchemeParams(n=3, k=2, t=1, m=2, q=3)
    V = Matrix(PrimeField(3), [[1, 0, 0], [1, 1, 0], [1, 2, 1]])
    return params, V


class TestExhaustivePrivacy:
    def test_passes(self):
        params, V = small_instance()
        report = verify_privacy_exhaustive(params, V, RANDOMNESS_FIRST)
        assert report.ok
        assert len(report.verdicts) == 3  # one per single-server subset
        # Each server's view is uniform: every observable equally likely.
        for subset, hists in report.histograms.items():
            for counter in hists.values():
                assert len(set(counter.values())) == 1

    def test_mutation_control_fails(self):
        # Zeroing one randomness vector leaks the index to some server.
        params, V = small_instance()
        report = verify_privacy_exhaustive(
            params, V, RANDOMNESS_FIRST, mutate_zero_randomness=0
        )
        assert not report.ok

    def test_single_file_trivially_private(self):
        params = SchemeParams(n=3, k=2, t=1, m=1, q=3)
        _, V = small_instance()
        assert verify_privacy_exhaustive(params, V, RANDOMNESS_FIRST).ok

    def test_space_does_not_grow_with_s(self):
        # Queries have one coefficient per slab, so s=3 enumerates the same
        # 3^8 assignments as s=1 (per-symbol queries would need 3^24).
        base, V = small_instance()
        params = SchemeParams(n=3, k=2, t=1, m=2, q=3, s=3)
        assert exhaustive_space(params) == exhaustive_space(base) == 3**8
        assert verify_privacy_exhaustive(params, V, RANDOMNESS_FIRST).ok
        assert not verify_privacy_exhaustive(
            params, V, RANDOMNESS_FIRST, mutate_zero_randomness=0
        ).ok

    def test_large_space_rejected(self):
        params, V, _ = example2()
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
        params, V, order = example2()
        assert verify_privacy_rank(params, V, order).ok
        assert not verify_privacy_rank(params, V, order, mutate_zero_randomness=0).ok

    def test_agrees_with_exhaustive_oracle(self):
        # On the instance small enough to brute-force, both verdicts match,
        # with and without the mutation.
        params, V = small_instance()
        for mutation in (None, 0, 1):
            rank_ok = verify_privacy_rank(
                params, V, RANDOMNESS_FIRST, mutate_zero_randomness=mutation
            ).ok
            exhaustive_ok = verify_privacy_exhaustive(
                params, V, RANDOMNESS_FIRST, mutate_zero_randomness=mutation
            ).ok
            assert rank_ok == exhaustive_ok


class TestRobustness:
    def test_example2_all_subsets(self):
        params, V, order = example2()
        report = verify_robustness(params, V, trials=3, seed=1, row_order=order)
        assert report.ok
        assert report.subsets_checked == 11  # C(4,2)+C(4,3)+C(4,4)
        assert report.failures == []

    def test_trials_validated(self):
        params, V, order = example2()
        with pytest.raises(ValueError):
            verify_robustness(params, V, trials=0, row_order=order)


def test_rates_table():
    params, _, _ = example2()
    rows = verify_rates(params)
    assert [(mu, sym, str(rate)) for mu, sym, rate, _, _ in rows] == [
        (2, 12, "1/2"),
        (3, 9, "2/3"),
        (4, 8, "3/4"),
    ]
    assert all(match for *_, match in rows)


def test_report_rendering():
    params, V = small_instance()
    report = verify_privacy_exhaustive(params, V, RANDOMNESS_FIRST)
    rows = report.rows()
    text = report_text(rows)
    assert "pass" in text and "FAIL" not in text
    csv_out = report_csv(rows)
    assert csv_out.splitlines()[0] == "subset,mode,verdict"
    assert len(csv_out.splitlines()) == 1 + len(rows)
