import math

import pytest

from staircase_pir import protocol
from staircase_pir.cli import main
from staircase_pir.params import SchemeParams
from staircase_pir.sim import LatencyModel, SimConfig, run_simulation, sweep

SWEEP_HEADER = [
    "config_id",
    "wait_for",
    "deadline_ms",
    "repetitions",
    "mean_wait_ms",
    "mean_symbols",
    "rate",
    "success_fraction",
]


def params421():
    return SchemeParams(n=4, k=2, t=1, m=2, q=257)


def det_latencies(*delays_ms):
    return tuple(LatencyModel.deterministic(d) for d in delays_ms)


class TestLatencyModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel.deterministic(0)
        with pytest.raises(ValueError):
            LatencyModel.exponential(-1)
        with pytest.raises(ValueError):
            LatencyModel.unresponsive(1.5, LatencyModel.deterministic(1))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_latency_must_be_finite(self, value):
        with pytest.raises(ValueError):
            LatencyModel.deterministic(value)
        with pytest.raises(ValueError):
            LatencyModel.exponential(value)

    def test_deterministic_sample(self):
        import random

        model = LatencyModel.deterministic(2.5)
        assert model.sample_us(random.Random(0)) == 2500

    def test_unresponsive_extremes(self):
        import random

        rng = random.Random(0)
        always = LatencyModel.unresponsive(1.0, LatencyModel.deterministic(1))
        never = LatencyModel.unresponsive(0.0, LatencyModel.deterministic(1))
        assert math.isinf(always.sample_us(rng))
        assert never.sample_us(rng) == 1000


class TestWaitForStrategy:
    def test_waits_for_third_fastest(self):
        config = SimConfig(
            params=params421(),
            latencies=det_latencies(1, 2, 3, 4),
            wait_for=3,
            repetitions=2,
        )
        for m in run_simulation(config):
            assert m.success
            assert m.realized_mu == 3
            assert m.wait_us == 3000  # third server answers at 3 ms
            assert str(m.rate) == "2/3"
            assert m.symbols == 9

    def test_unresponsive_servers_fail_run(self):
        dead = LatencyModel.unresponsive(1.0, LatencyModel.deterministic(1))
        config = SimConfig(
            params=params421(),
            latencies=(LatencyModel.deterministic(1), dead, dead, dead),
            wait_for=2,
        )
        (m,) = run_simulation(config)
        assert not m.success
        assert m.realized_mu == 1
        assert math.isinf(m.wait_us)

    def test_wait_for_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(
                params=params421(),
                latencies=det_latencies(1, 1, 1, 1),
                wait_for=1,
            )


class TestDeadlineStrategy:
    def test_cutoff_selects_responders(self):
        config = SimConfig(
            params=params421(),
            latencies=det_latencies(1, 2, 3, 4),
            deadline_ms=2.5,
        )
        (m,) = run_simulation(config)
        assert m.success
        assert m.realized_mu == 2
        assert str(m.rate) == "1/2"

    def test_never_decodes_below_k(self):
        config = SimConfig(
            params=params421(),
            latencies=det_latencies(1, 5, 5, 5),
            deadline_ms=2,
        )
        (m,) = run_simulation(config)
        assert not m.success
        assert m.symbols == 0
        assert m.rate is None


class TestExponential:
    def test_wait_grows_with_wait_for_and_decodes_always(self):
        params = params421()
        means = []
        for wf in (2, 3, 4):
            config = SimConfig(
                params=params,
                latencies=tuple(LatencyModel.exponential(10) for _ in range(4)),
                wait_for=wf,
                seed=42,
                repetitions=100,
            )
            metrics = run_simulation(config)
            assert all(m.success for m in metrics)
            assert all(m.rate == m.capacity for m in metrics)
            means.append(sum(m.wait_us for m in metrics) / len(metrics))
        assert means[0] < means[1] < means[2]


class TestSweep:
    def make_configs(self):
        params = params421()
        lat = tuple(LatencyModel.exponential(5) for _ in range(4))
        return [
            SimConfig(params=params, latencies=lat, wait_for=wf, seed=7, repetitions=20)
            for wf in (2, 3, 4)
        ]

    def test_deterministic_and_shaped(self):
        rows1 = sweep(self.make_configs())
        rows2 = sweep(self.make_configs())
        assert rows1 == rows2
        assert all(list(row) == SWEEP_HEADER for row in rows1)
        assert len(rows1) == 3
        rates = [row["rate"] for row in rows1]
        assert rates == ["1/2", "2/3", "3/4"]
        assert all(row["success_fraction"] == 1.0 for row in rows1)

    def test_a_config_that_never_decodes_has_no_wait_or_rate(self):
        config = SimConfig(params=params421(), latencies=det_latencies(1, 5, 5, 5),
                           deadline_ms=2, repetitions=3)
        (row,) = sweep([config])
        assert row["success_fraction"] == 0.0
        assert row["mean_wait_ms"] is None and row["rate"] is None

    def test_csv_rendering(self, capsys):
        # A sweep like make_configs', through `staircase-pir --format csv simulate`.
        assert main(["--format", "csv", "simulate", "--n", "4", "--k", "2", "--t", "1",
                     "--m", "2", "--latency-ms", "5", "--reps", "20", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 4


class TestResponderPolicy:
    def test_deadline_wait_ends_when_every_server_answered(self):
        config = SimConfig(
            params=params421(),
            latencies=det_latencies(1, 2, 3, 4),
            deadline_ms=10,
        )
        (m,) = run_simulation(config)
        assert m.success
        assert m.realized_mu == 4
        assert m.wait_us == 4000  # the last settle, not the 10 ms cutoff

    def test_deadline_wait_runs_out_with_a_silent_server(self):
        dead = LatencyModel.unresponsive(1.0, LatencyModel.deterministic(1))
        config = SimConfig(
            params=params421(),
            latencies=det_latencies(1, 2, 3) + (dead,),
            deadline_ms=10,
        )
        (m,) = run_simulation(config)
        assert m.success
        assert m.realized_mu == 3
        assert m.wait_us == 10000

    def test_wait_for_with_a_deadline_stops_at_the_deadline(self):
        # Waits for 3, but no longer than 2.5 ms: decodes from the 2 in by then.
        config = SimConfig(
            params=params421(),
            latencies=det_latencies(1, 2, 3, 4),
            wait_for=3,
            deadline_ms=2.5,
        )
        (m,) = run_simulation(config)
        assert m.success
        assert m.wait_us == 2500
        assert m.realized_mu == 2
        assert str(m.rate) == "1/2"

    def test_no_wait_for_and_no_deadline_waits_for_all_n(self):
        config = SimConfig(params=params421(), latencies=det_latencies(4, 3, 2, 1))
        (m,) = run_simulation(config)
        assert m.success
        assert m.realized_mu == 4
        assert m.wait_us == 4000
        assert str(m.rate) == "3/4"

    def test_wait_for_that_never_ends_fails_run(self):
        # Two servers answer, but the client waits for 3 with no deadline.
        dead = LatencyModel.unresponsive(1.0, LatencyModel.deterministic(1))
        config = SimConfig(
            params=params421(),
            latencies=det_latencies(1, 2) + (dead, dead),
            wait_for=3,
        )
        (m,) = run_simulation(config)
        assert not m.success
        assert m.realized_mu == 2
        assert math.isinf(m.wait_us)

    def test_one_database_per_config(self, monkeypatch):
        built = []
        database = protocol.Database

        def counting(*args, **kwargs):
            built.append(args)
            return database(*args, **kwargs)

        monkeypatch.setattr(protocol, "Database", counting)
        config = SimConfig(
            params=params421(),
            latencies=det_latencies(1, 2, 3, 4),
            wait_for=2,
            repetitions=5,
        )
        metrics = run_simulation(config)
        assert len(metrics) == 5 and all(m.success for m in metrics)
        assert len(built) == 1
