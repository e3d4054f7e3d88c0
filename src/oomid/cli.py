"""Command line interface.

Exit codes: 0 success, 2 bad input (parse, validation, option values),
3 I/O failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from .bench import (
    run_experiment,
    score_epsilon,
    summarize,
    write_results_csv,
    write_summary_csv,
)
from .convert import ConversionConfig, convert
from .diagram import (
    DiagramError,
    InfluenceDiagram,
    OOMInfluenceDiagram,
    load,
    save,
    validate,
)
from .exact import PolicyEvaluator, solve_exact
from .generator import GeneratorParams
from .oom_solve import elim_oom_id


def _print_rule(diagram: InfluenceDiagram, d: str, scope, entries) -> None:
    """One line per configuration of ``scope``, entries in row-major order."""
    if not scope:
        print(f"  {d}: {entries[0]}")
        return
    labels = [diagram.domain(v) for v in scope]
    for cfg, entry in zip(itertools.product(*labels), entries):
        ctx = ", ".join(f"{v}={val}" for v, val in zip(scope, cfg))
        print(f"  {d} | {ctx}: {entry}")


def _print_policy(diagram: InfluenceDiagram, policy) -> None:
    print("policy:")
    for d in diagram.decision_order:
        rule = policy.rules[d]
        domain = diagram.domain(d)
        _print_rule(diagram, d, rule.scope, [domain[a] for a in rule.actions])


def _cmd_validate(args) -> int:
    problems = validate(load(args.diagram))
    if problems:
        raise DiagramError("; ".join(problems))
    print("valid")
    return 0


def _cmd_solve_exact(args) -> int:
    diagram = load(args.diagram)
    solution = solve_exact(diagram)
    print(f"MEU = {solution.meu:.6f}")
    _print_policy(diagram, solution.policy)
    return 0


def _cmd_convert(args) -> int:
    oom = convert(load(args.diagram), ConversionConfig(args.epsilon))
    save(oom, args.out)
    print(f"wrote {args.out}")
    return 0


def _solve_oom_diagram(args) -> OOMInfluenceDiagram:
    diagram = load(args.diagram)
    if isinstance(diagram, OOMInfluenceDiagram):
        if args.epsilon is not None:
            raise DiagramError("--epsilon applies only to numeric diagrams")
        return diagram
    if args.epsilon is None:
        raise DiagramError("--epsilon is required for a numeric diagram")
    return convert(diagram, ConversionConfig(args.epsilon))


def _cmd_solve_oom(args) -> int:
    oom = _solve_oom_diagram(args)
    solution = elim_oom_id(oom)
    policies = solution.policies
    print(f"MEU = {solution.meu}")
    print(f"policies = {policies.count()}")
    for d in policies.decisions:
        domain = oom.domain(d)
        cells = [
            "{" + ",".join(domain[i] for i in sorted(cell)) + "}"
            for cell in policies.cells[d]
        ]
        _print_rule(oom, d, policies.scopes[d], cells)
    return 0


def _cmd_compare(args) -> int:
    diagram = load(args.diagram)
    v = solve_exact(diagram).meu  # checks the diagram first
    utilities, errors, count, replaced = score_epsilon(
        diagram, PolicyEvaluator(diagram), v, args.epsilon, args.samples, args.seed
    )
    for name, x in zip(("v", "v_med", "v_max", "eta_med", "eta_max"), (v, *errors)):
        print(f"{name} = {x:.6f}")
    print(f"policies = {count}")
    if replaced:
        print("note: sampled with replacement (policy set smaller than sample size)")
    print("sampled utilities: " + " ".join(f"{u:.6f}" for u in utilities))
    return 0


def _cmd_bench(args) -> int:
    sizes = [int(x) for x in args.n.split(",") if x]
    if not sizes or min(sizes) < 10:
        raise ValueError(f"--n needs sizes of 10 or more (5 decisions, 5+ chance), not {args.n!r}")
    epsilons = [float(x) for x in args.epsilons.split(",") if x]
    for eps in epsilons:
        ConversionConfig(eps)  # range check up front
    results = []
    for n in sizes:
        params = GeneratorParams(
            n_c=n - 5, n_d=5, k=2, p=2, r=5, a=5, utility_class=args.utility_class
        )
        results.extend(
            run_experiment(params, epsilons, args.samples, args.instances, seed=args.seed)
        )
    write_results_csv(results, args.out)
    print(f"wrote {args.out} ({len(results)} rows)")
    if args.summary_out:
        write_summary_csv(summarize(results), args.summary_out)
        print(f"wrote {args.summary_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oomid",
        description="Exact and order-of-magnitude influence diagram solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a numeric or qualitative diagram file")
    p.add_argument("diagram")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("solve-exact", help="maximum expected utility and policy")
    p.add_argument("diagram")
    p.set_defaults(fn=_cmd_solve_exact)

    p = sub.add_parser("convert", help="quantize a numeric diagram")
    p.add_argument("diagram")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("solve-oom", help="qualitative MEU and optimal policy set")
    p.add_argument("diagram")
    p.add_argument("--epsilon", type=float, help="required for a numeric diagram")
    p.set_defaults(fn=_cmd_solve_oom)

    p = sub.add_parser("compare", help="score sampled qualitative policies")
    p.add_argument("diagram")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("bench", help="random-diagram policy quality experiment")
    p.add_argument("--class", dest="utility_class", choices=("P", "M"), default="P")
    p.add_argument("--n", default="25,35,45", help="comma-separated total sizes")
    p.add_argument("--epsilons", default="0.5,0.05,0.005")
    p.add_argument("--instances", type=int, default=30)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--summary-out", default=None)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # DiagramError and option range errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
