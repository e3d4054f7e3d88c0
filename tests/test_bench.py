import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from oomid import bench
from oomid.bench import (
    ExperimentResult,
    _nearest_rank,
    run_experiment,
    sample_errors,
    summarize,
    write_results_csv,
    write_summary_csv,
)
from oomid.convert import ConversionConfig, convert
from oomid.diagram import UtilityFunction, wildcatter
from oomid.exact import PolicyEvaluator, solve_exact
from oomid.generator import GeneratorParams
from oomid.oom_solve import elim_oom_id


def quick_params(utility_class="P"):
    return GeneratorParams(
        n_c=9, n_d=3, k=2, p=2, r=3, a=3, utility_class=utility_class
    )


class TestProtocolOnWildcatter:
    def test_two_samples_cover_both_policies(self):
        d = wildcatter()
        v = solve_exact(d).meu
        oom = convert(d, ConversionConfig(0.1))
        solution = elim_oom_id(oom)
        assert solution.policies.count() == 2
        policies, replaced = solution.policies.sample(2, seed=0)
        assert not replaced
        evaluator = PolicyEvaluator(d)
        utilities = sorted(evaluator.evaluate(p) for p in policies)
        assert utilities == pytest.approx([20.0, 42.75], abs=1e-9)
        v_max = utilities[-1]
        assert abs((v - v_max) / v) == pytest.approx(0.0, abs=1e-12)


class TestRunExperiment:
    def test_shape_and_determinism(self):
        results = run_experiment(
            quick_params(), epsilons=[0.5, 0.05], s=4, instances=2, seed=5
        )
        assert len(results) == 4  # instances x epsilons
        again = run_experiment(
            quick_params(), epsilons=[0.5, 0.05], s=4, instances=2, seed=5
        )
        assert results == again
        assert {r.n for r in results} == {12}
        assert all(r.sample_count == 4 for r in results)

    def test_single_sample_medians_equal_max(self):
        results = run_experiment(
            quick_params(), epsilons=[0.5], s=1, instances=2, seed=1
        )
        for r in results:
            assert r.v_med == r.v_max
            assert r.eta_med == r.eta_max

    def test_eta_ordering_for_positive_utilities(self):
        results = run_experiment(
            quick_params("P"), epsilons=[0.5, 0.005], s=6, instances=3, seed=2
        )
        for r in results:
            assert r.eta_max <= r.eta_med + 1e-12
            assert r.v_max >= r.v_med

    def test_rejects_empty_runs(self):
        with pytest.raises(ValueError):
            run_experiment(quick_params(), [0.5], s=0, instances=1)
        with pytest.raises(ValueError):
            run_experiment(quick_params(), [0.5], s=1, instances=0)
        with pytest.raises(ValueError):
            run_experiment(quick_params(), [], s=1, instances=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be at least 0, not -1$"):
            run_experiment(quick_params(), [0.5], s=1, instances=1, seed=-1)


class TestStatistics:
    def test_median_low_is_lower_middle(self):
        # the 50th nearest-rank percentile, which ``sample_errors`` takes as v_med
        assert _nearest_rank([1.0, 2.0], 50) == 1.0
        assert _nearest_rank([1.0, 2.0, 3.0], 50) == 2.0
        assert _nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_errors_relative_unless_meu_is_zero(self):
        assert sample_errors(2.0, [1.0, 3.0]) == (1.0, 3.0, 0.5, 0.5)
        assert sample_errors(-2.0, [-3.0, -1.0]) == (-3.0, -1.0, 0.5, 0.5)
        assert sample_errors(0.0, [-2.0, 1.0, 3.0]) == (1.0, 3.0, 1.0, 3.0)

    def test_nearest_rank(self):
        values = sorted([0.1, 0.2, 0.3, 0.4])
        assert _nearest_rank(values, 25) == 0.1
        assert _nearest_rank(values, 50) == 0.2
        assert _nearest_rank(values, 75) == 0.3

    def test_identical_values_give_flat_percentiles(self):
        base = dict(
            instance_id=0,
            n=10,
            utility_class="P",
            epsilon=0.5,
            v=1.0,
            v_med=0.9,
            v_max=1.0,
            eta_med=0.25,
            eta_max=0.25,
            policy_count=4,
            flags=(),
            seed=0,
            sample_count=3,
        )
        results = [
            ExperimentResult(**{**base, "instance_id": i}) for i in range(30)
        ]
        rows = summarize(results)
        assert len(rows) == 2  # one per metric for the single group
        for row in rows:
            assert row.p25 == row.p50 == row.p75 == 0.25
            assert row.instances == 30

    def test_groups_partition_rows(self):
        results = run_experiment(
            quick_params(), epsilons=[0.5, 0.05], s=2, instances=2, seed=0
        )
        rows = summarize(results)
        assert {(r.epsilon, r.metric) for r in rows} == {
            (0.5, "eta_med"),
            (0.5, "eta_max"),
            (0.05, "eta_med"),
            (0.05, "eta_max"),
        }


class TestCsv:
    def test_round_trip_files(self, tmp_path):
        results = run_experiment(
            quick_params(), epsilons=[0.5], s=2, instances=2, seed=0
        )
        out = tmp_path / "results.csv"
        write_results_csv(results, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "instance_id,n,class,epsilon,v,v_med,v_max,eta_med,eta_max,"
            "policy_count,flags"
        )
        assert len(lines) == 1 + len(results)

        summary = tmp_path / "summary.csv"
        write_summary_csv(summarize(results), summary)
        s_lines = summary.read_text().strip().splitlines()
        assert s_lines[0] == "n,class,epsilon,metric,p25,p50,p75,instances"
        assert len(s_lines) == 3

    def test_flags_column(self, tmp_path, monkeypatch):
        # all-zero utilities: the MEU is 0, so errors are absolute, and every
        # action ties, so the 2 * 2**6 wildcatter policies are fewer than
        # the 200 samples
        w = wildcatter()
        zero = tuple(UtilityFunction(u.scope, (0.0,) * len(u.table)) for u in w.utilities)
        monkeypatch.setattr(bench, "generate", lambda params: replace(w, utilities=zero))
        results = run_experiment(quick_params(), epsilons=[0.1], s=200, instances=1)
        assert results[0].policy_count == 128
        assert results[0].flags == ("sampled_with_replacement", "absolute_error")
        out = tmp_path / "results.csv"
        write_results_csv(results, out)
        row = out.read_text().strip().splitlines()[1]
        assert row.endswith(",128,sampled_with_replacement;absolute_error")

    def test_deterministic_bytes(self, tmp_path):
        results = run_experiment(
            quick_params(), epsilons=[0.5], s=2, instances=1, seed=9
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(results, a)
        write_results_csv(results, b)
        assert a.read_bytes() == b.read_bytes()

    def test_small_grid_bytes_pinned(self, tmp_path):
        # P/M x n = 25 x eps 0.5/0.05/0.005, 2 instances, 100 samples, seed 0:
        # sampling, decoding and scoring must not change a byte of the CSV
        results = []
        for cls in "PM":
            params = GeneratorParams(
                n_c=20, n_d=5, k=2, p=2, r=5, a=5, utility_class=cls
            )
            results.extend(
                run_experiment(params, [0.5, 0.05, 0.005], s=100, instances=2, seed=0)
            )
        out = tmp_path / "grid.csv"
        write_results_csv(results, out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7945bfb194cbfc0f34df8a332dd66231eddb52a621f66fec821c92d927b804e0"
        )


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()


@pytest.mark.parametrize(
    "path, attr",
    [(path, attr) for path, attr, _ in TRACING.SPANS + TRACING.COUNTS],
    ids=lambda x: x,
)
def test_traced_names_exist(path, attr):
    # the traced benchmark run replaces each of these names in its owner's
    # namespace and fails outright when one has gone
    assert attr in TRACING._resolve(path).__dict__
