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
from .diagram import InfluenceDiagram
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


def score_epsilon(
    diagram: InfluenceDiagram,
    evaluator: PolicyEvaluator,
    v: float,
    eps: float,
    s: int,
    seed: int,
) -> tuple[list[float], tuple[float, float, float, float], int, bool]:
    """One epsilon of an experiment: quantize ``diagram`` at ``eps``, solve
    it qualitatively, sample ``s`` policies of its optimal set with
    ``seed`` and score them with ``evaluator``.  Returns the sorted sampled
    utilities, their ``sample_errors`` against the MEU ``v``, the size of
    the policy set and whether the draw was with replacement."""
    solution = elim_oom_id(convert(diagram, ConversionConfig(eps)))
    count = solution.policies.count()
    policies, replaced = solution.policies.sample(s, seed=seed)
    utilities = sorted(evaluator.evaluate_many(policies))
    return utilities, sample_errors(v, utilities), count, replaced


def run_experiment(
    params: GeneratorParams,
    epsilons: Sequence[float],
    s: int,
    instances: int,
    seed: int = 0,
) -> list[ExperimentResult]:
    if instances < 1 or s < 1 or not epsilons:
        raise ValueError("need at least one instance, sample and epsilon")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, not {seed}")
    results: list[ExperimentResult] = []
    n = params.n_c + params.n_d
    for i in range(instances):
        instance_seed = seed * 1_000_003 + i
        diagram = generate(replace(params, seed=instance_seed))
        v = solve_exact(diagram).meu
        evaluator = PolicyEvaluator(diagram)
        for j, eps in enumerate(epsilons):
            utilities, errors, count, replaced = score_epsilon(
                diagram, evaluator, v, eps, s, seed=instance_seed * 31 + j
            )
            flags: list[str] = []
            if replaced:
                flags.append("sampled_with_replacement")
            if v == 0.0:
                flags.append("absolute_error")
            results.append(
                ExperimentResult(
                    i, n, params.utility_class, eps, v, *errors,
                    policy_count=count,
                    flags=tuple(flags),
                    seed=instance_seed,
                    sample_count=len(utilities),
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


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(results: Iterable[ExperimentResult], path: str | Path) -> None:
    rows = (
        [r.instance_id, r.n, r.utility_class, f"{r.epsilon:g}",
         *(f"{x:.6f}" for x in (r.v, r.v_med, r.v_max, r.eta_med, r.eta_max)),
         r.policy_count, ";".join(r.flags)]
        for r in results
    )
    _write_csv(path, RESULT_COLUMNS, rows)


def write_summary_csv(rows: Iterable[SummaryRow], path: str | Path) -> None:
    header = ["n", "class", "epsilon", "metric", "p25", "p50", "p75", "instances"]
    cells = (
        [r.n, r.utility_class, f"{r.epsilon:g}", r.metric,
         *(f"{x:.6f}" for x in (r.p25, r.p50, r.p75)), r.instances]
        for r in rows
    )
    _write_csv(path, header, cells)
