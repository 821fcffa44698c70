"""Experiment harness: plans, rows, table rendering, duration format."""
import concurrent.futures

import pytest

from vsbgraph import (
    ExperimentPlan,
    ExperimentRow,
    InstanceSpec,
    emit_table,
    format_duration,
    harness,
    run_experiment,
)

CSV_HEADER = "n,m_input,seed,algo1_time_ms,algo1_edges,algo2_time_ms,algo2_edges"


def sample_row() -> ExperimentRow:
    return ExperimentRow(
        n=10, m_input=83, seed=1,
        algo1_time_ms=2000.0, algo1_edges=32,
        algo2_time_ms=1000.0, algo2_edges=33,
    )


class TestPlanValidation:
    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(sizes=())

    @pytest.mark.parametrize("counts, message", [
        ({"seeds_per_size": 0}, "seeds_per_size"),
        ({"multiplier": 0}, "multiplier"),
    ])
    def test_zero_counts_rejected(self, counts, message):
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(sizes=(10,), **counts)

    def test_small_size_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(sizes=(3,))

    def test_sizes_checked_against_instance_spec(self):
        with pytest.raises(ValueError, match="generator limit"):
            ExperimentPlan(sizes=(10, 2000))
        with pytest.raises(ValueError, match="impossible"):
            ExperimentPlan(sizes=(8,), multiplier=8)
        plan = ExperimentPlan(sizes=(8,), seeds_per_size=1, multiplier=None)
        assert plan._specs() == [InstanceSpec(8, 56, 1)]

    def test_defaults(self):
        # the generator's default density, as in bench without --mult
        plan = ExperimentPlan(sizes=(8, 10))
        assert plan.seeds_per_size == 3
        assert plan.multiplier is None
        assert plan._specs()[0] == InstanceSpec(8, 56, 1)
        assert plan._specs()[-1] == InstanceSpec(10, 80, 3)

    def test_row_limit(self, monkeypatch):
        def no_specs(self):
            raise AssertionError("an oversized plan must not build its specs")

        monkeypatch.setattr(ExperimentPlan, "_specs", no_specs)
        with pytest.raises(ValueError, match="limit of 10000"):
            ExperimentPlan(sizes=(10,), seeds_per_size=10**9)
        with pytest.raises(ValueError, match="10002 rows"):
            ExperimentPlan(sizes=(10, 20), seeds_per_size=5001)
        monkeypatch.undo()
        plan = ExperimentPlan(sizes=(10, 20), seeds_per_size=5000)
        assert len(plan._specs()) == 10_000


    def test_specs_built_once_per_row(self, monkeypatch):
        # construction validates every row's spec and run_experiment reuses
        # them, so a plan of R rows builds exactly R specs in all
        built = []

        class CountingSpec(InstanceSpec):
            def __post_init__(self):
                built.append((self.n, self.seed))
                super().__post_init__()

        monkeypatch.setattr(harness, "InstanceSpec", CountingSpec)
        monkeypatch.setattr(harness, "_run_row", lambda spec: spec)
        plan = ExperimentPlan(sizes=(8, 10), seeds_per_size=3)
        assert len(built) == 6
        specs = run_experiment(plan)
        assert built == [(n, seed) for n in (8, 10) for seed in (1, 2, 3)]
        assert [(spec.n, spec.seed) for spec in specs] == built


class TestRowValidation:
    def test_output_above_input_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRow(10, 83, 1, 1.0, 90, 1.0, 33)

    def test_output_below_degree_bound_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRow(10, 83, 1, 1.0, 29, 1.0, 33)


class TestEmitTable:
    def test_csv_single_row(self):
        # integer times still print with three decimals
        for row in (sample_row(), ExperimentRow(10, 83, 1, 2000, 32, 1000, 33)):
            lines = emit_table([row], "csv").splitlines()
            assert lines[0] == CSV_HEADER
            assert lines[1] == "10,83,1,2000.000,32,1000.000,33"

    def test_csv_empty(self):
        assert emit_table([], "csv") == CSV_HEADER + "\n"

    def test_markdown_layout(self):
        text = emit_table([sample_row()], "md")
        lines = text.splitlines()
        assert lines[0].count("|") == 6  # five columns
        assert "(10, 83)" in lines[2]
        assert "| 2 s |" in lines[2]
        assert "| 1 s |" in lines[2]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table([], "html")

    def test_bad_format_rejected(self):
        for fmt in ("xml", "markdown"):
            with pytest.raises(ValueError):
                emit_table([sample_row()], fmt)


class TestFormatDuration:
    def test_minute_split(self):
        assert format_duration(73_000) == "1 m 13 s"

    def test_plain_seconds(self):
        assert format_duration(2_000) == "2 s"

    def test_hours(self):
        assert format_duration(5_368_000) == "1 h 29 m 28 s"

    def test_sub_second(self):
        assert format_duration(420) == "420.000 ms"
        assert format_duration(0.4) == "0.400 ms"
        assert format_duration(2.18) == "2.180 ms"
        assert format_duration(600) == "600.000 ms"
        assert format_duration(999.9) == "999.900 ms"

    def test_seconds_round_half_up(self):
        assert format_duration(999.9996) == "1 s"
        assert format_duration(1_000) == "1 s"
        assert format_duration(1_499) == "1 s"
        assert format_duration(1_500) == "2 s"
        assert format_duration(2_500) == "3 s"
        assert format_duration(59_500) == "1 m 0 s"


class TestRunExperiment:
    def test_row_contract(self):
        plan = ExperimentPlan(sizes=(10,), seeds_per_size=2)
        rows = run_experiment(plan)
        assert len(rows) == 2
        assert [r.seed for r in rows] == [1, 2]
        for row in rows:
            assert row.n == 10
            assert row.algo1_edges <= row.m_input
            assert row.algo2_edges <= row.m_input
            assert row.algo1_edges >= 30
            assert row.algo2_edges >= 30

    def test_csv_stable_except_times(self):
        plan = ExperimentPlan(sizes=(10,), seeds_per_size=2)
        first = emit_table(run_experiment(plan), "csv")
        second = emit_table(run_experiment(plan), "csv")
        assert _mask_times(first) == _mask_times(second)

    def test_parallel_rows_match_sequential(self):
        plan = ExperimentPlan(sizes=(10,), seeds_per_size=2)
        sequential = run_experiment(plan)
        parallel = run_experiment(plan, workers=2)
        key = lambda r: (r.n, r.m_input, r.seed, r.algo1_edges, r.algo2_edges)
        assert [key(r) for r in sequential] == [key(r) for r in parallel]

    def test_huge_worker_count_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-row plan must not start a pool")

        # run_experiment imports the pool class only when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        plan = ExperimentPlan(sizes=(10,), seeds_per_size=1)
        assert len(run_experiment(plan, workers=10**9)) == 1


class TestPoolSize:
    def test_clamped_to_rows_and_cpus(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        assert harness._pool_size(10**9, 3) == 3
        assert harness._pool_size(10**9, 100) == 4
        assert harness._pool_size(2, 100) == 2

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._pool_size(8, 8) == 1

    def test_non_positive_request_stays_sequential(self):
        assert harness._pool_size(0, 5) <= 1
        assert harness._pool_size(-3, 5) <= 1


def _mask_times(csv_text: str) -> list[str]:
    masked = []
    for line in csv_text.splitlines()[1:]:
        parts = line.split(",")
        parts[3] = parts[5] = "_"
        masked.append(",".join(parts))
    return masked
