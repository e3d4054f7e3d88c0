"""Policy-quality experiments on random influence diagrams.

For each instance: solve the numeric diagram exactly (``v``), quantize it
at each epsilon, solve the qualitative version, sample policies from its
optimal policy set uniformly at random, and score every sample in the
numeric diagram.  ``v_med``/``v_max`` are the median and best sampled
scores; the relative errors ``eta_med``/``eta_max`` measure how much the
qualitative abstraction loses.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .convert import ConversionConfig, convert
from .exact import PolicyEvaluator, solve_exact
from .generator import GeneratorParams, generate
from .oom_solve import elim_oom_id


@dataclass(frozen=True)
class ExperimentResult:
    instance_id: int
    n: int
    utility_class: str
    epsilon: float
    v: float
    v_med: float
    v_max: float
    eta_med: float
    eta_max: float
    policy_count: int
    flags: tuple[str, ...]
    seed: int
    sample_count: int


def sample_errors(
    v: float, utilities: Sequence[float]
) -> tuple[float, float, float, float]:
    """``v_med``, ``v_max``, ``eta_med`` and ``eta_max`` of sorted sampled
    utilities against the MEU ``v``.

    The errors are relative, except when ``v`` is zero: the relative error
    is undefined there, so the absolute error is reported instead.
    """
    v_med = _nearest_rank(utilities, 50)  # the lower middle for an even count
    v_max = utilities[-1]
    if v == 0.0:
        return v_med, v_max, abs(v - v_med), abs(v - v_max)
    return v_med, v_max, abs((v - v_med) / v), abs((v - v_max) / v)


def run_experiment(
    params: GeneratorParams,
    epsilons: Sequence[float],
    s: int,
    instances: int,
    seed: int = 0,
) -> list[ExperimentResult]:
    if instances < 1 or s < 1 or not epsilons:
        raise ValueError("need at least one instance, sample and epsilon")
    results: list[ExperimentResult] = []
    n = params.n_c + params.n_d
    for i in range(instances):
        instance_seed = seed * 1_000_003 + i
        diagram = generate(replace(params, seed=instance_seed))
        v = solve_exact(diagram).meu
        evaluator = PolicyEvaluator(diagram)
        for j, eps in enumerate(epsilons):
            oom = convert(diagram, ConversionConfig(eps))
            solution = elim_oom_id(oom)
            count = solution.policies.count()
            policies, replaced = solution.policies.sample(
                s, seed=instance_seed * 31 + j
            )
            utilities = sorted(evaluator.evaluate_many(policies))
            v_med, v_max, eta_med, eta_max = sample_errors(v, utilities)
            flags: list[str] = []
            if replaced:
                flags.append("sampled_with_replacement")
            if v == 0.0:
                flags.append("absolute_error")
            results.append(
                ExperimentResult(
                    instance_id=i,
                    n=n,
                    utility_class=params.utility_class,
                    epsilon=eps,
                    v=v,
                    v_med=v_med,
                    v_max=v_max,
                    eta_med=eta_med,
                    eta_max=eta_max,
                    policy_count=count,
                    flags=tuple(flags),
                    seed=instance_seed,
                    sample_count=len(policies),
                )
            )
    return results


@dataclass(frozen=True)
class SummaryRow:
    n: int
    utility_class: str
    epsilon: float
    metric: str
    p25: float
    p50: float
    p75: float
    instances: int


def _nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(results: Iterable[ExperimentResult]) -> list[SummaryRow]:
    """25th/50th/75th percentile rows per size, class, epsilon and metric."""
    groups: dict[tuple[int, str, float], list[ExperimentResult]] = {}
    for r in results:
        groups.setdefault((r.n, r.utility_class, r.epsilon), []).append(r)
    rows: list[SummaryRow] = []
    for (n, klass, eps), group in sorted(groups.items()):
        for metric in ("eta_med", "eta_max"):
            values = sorted(getattr(r, metric) for r in group)
            rows.append(
                SummaryRow(
                    n=n,
                    utility_class=klass,
                    epsilon=eps,
                    metric=metric,
                    p25=_nearest_rank(values, 25),
                    p50=_nearest_rank(values, 50),
                    p75=_nearest_rank(values, 75),
                    instances=len(values),
                )
            )
    return rows


RESULT_COLUMNS = [
    "instance_id",
    "n",
    "class",
    "epsilon",
    "v",
    "v_med",
    "v_max",
    "eta_med",
    "eta_max",
    "policy_count",
    "flags",
]


def write_results_csv(results: Iterable[ExperimentResult], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in results:
            writer.writerow(
                [
                    r.instance_id,
                    r.n,
                    r.utility_class,
                    f"{r.epsilon:g}",
                    f"{r.v:.6f}",
                    f"{r.v_med:.6f}",
                    f"{r.v_max:.6f}",
                    f"{r.eta_med:.6f}",
                    f"{r.eta_max:.6f}",
                    r.policy_count,
                    ";".join(r.flags),
                ]
            )


def write_summary_csv(rows: Iterable[SummaryRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "class", "epsilon", "metric", "p25", "p50", "p75", "instances"])
        for r in rows:
            writer.writerow(
                [
                    r.n,
                    r.utility_class,
                    f"{r.epsilon:g}",
                    r.metric,
                    f"{r.p25:.6f}",
                    f"{r.p50:.6f}",
                    f"{r.p75:.6f}",
                    r.instances,
                ]
            )
