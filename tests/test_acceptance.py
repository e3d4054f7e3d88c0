"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time

from oomid.bench import run_experiment, summarize
from oomid.convert import ConversionConfig, convert
from oomid.diagram import Policy, PolicyRule, to_dict, wildcatter
from oomid.exact import brute_force_meu, evaluate_policy, solve_exact
from oomid.generator import GeneratorParams, generate
from oomid.oom_solve import brute_force_oom, elim_oom_id
from oomid.sets import (
    OOMSet,
    canonicalize,
    convex_closure_bounded,
    equiv,
    max_sets,
    scale,
    sum_sets,
)
from oomid.values import (
    ZERO,
    OOMValue,
    Sign,
    add,
    dominates,
    maximal_set,
    mul,
)


def v(sign: str, order) -> OOMValue:
    return OOMValue({"+": Sign.PLUS, "-": Sign.MINUS, "+-": Sign.PLUSMINUS}[sign], order)


def report(capsys, num: int, checks: list[tuple[bool, str]], detail: str = "") -> None:
    failed = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    lines = [f"ACCEPTANCE {num}: {status}{suffix}"] + [f"  - {m}" for m in failed]
    with capsys.disabled():  # one visible line per criterion, capture or not
        for line in lines:
            print(line)
    assert not failed, f"criterion {num}: " + "; ".join(failed)


WINDOW = [
    OOMValue(s, o)
    for s in (Sign.PLUS, Sign.MINUS, Sign.PLUSMINUS)
    for o in range(-4, 5)
] + [ZERO]


def test_criterion_1_wildcatter_meu(capsys):
    start = time.perf_counter()
    meu = solve_exact(wildcatter()).meu
    elapsed = time.perf_counter() - start
    checks = [
        (abs(meu - 42.75) <= 1e-9, f"exact MEU {meu!r} differs from 42.75"),
        (elapsed < 1.0, f"solve took {elapsed:.3f}s, expected < 1s"),
    ]
    report(capsys, 1, checks, f"meu={meu:.9f}, {elapsed * 1000:.0f}ms")


def known_policies():
    d = wildcatter()
    scope = d.information_sets["Drill"]  # (Test, Seismic)
    delta1 = Policy(
        rules={
            "Test": PolicyRule("Test", (), (0,)),
            "Drill": PolicyRule("Drill", scope, (0, 0, 1, 0, 0, 0)),
        }
    )
    delta2 = Policy(
        rules={
            "Test": PolicyRule("Test", (), (1,)),
            "Drill": PolicyRule("Drill", scope, (0, 0, 0, 0, 0, 0)),
        }
    )
    return d, delta1, delta2


def test_criterion_2_known_policy_values(capsys):
    d, delta1, delta2 = known_policies()
    u1 = evaluate_policy(d, delta1)
    u2 = evaluate_policy(d, delta2)
    checks = [
        (abs(u1 - 42.75) <= 1e-9, f"test-then-drill policy scored {u1!r}, not 42.75"),
        (abs(u2 - 20.0) <= 1e-9, f"always-drill policy scored {u2!r}, not 20.00"),
    ]
    report(capsys, 2, checks, f"{u1:.6f} / {u2:.6f}")


TABLE_CELLS = {
    0.1: {
        ("closed", "yes"): {"yes"},
        ("open", "yes"): {"yes"},
        ("diffuse", "yes"): {"no"},
        ("closed", "no"): {"yes"},
        ("open", "no"): {"yes"},
        ("diffuse", "no"): {"yes"},
    },
    0.01: {
        ("closed", "yes"): {"yes"},
        ("open", "yes"): {"yes"},
        ("diffuse", "yes"): {"yes", "no"},
        ("closed", "no"): {"yes"},
        ("open", "no"): {"yes"},
        ("diffuse", "no"): {"yes"},
    },
    0.001: {
        pair: {"yes", "no"}
        for pair in itertools.product(("closed", "open", "diffuse"), ("yes", "no"))
    },
}

# Known red: the calculus computes {(+,-2)} at eps 0.1 and {(+,-1)} at eps
# 0.01, one order above each pin, because the soaking branch (probability
# 0.2, payoff 200) carries a product, of order -2 at eps 0.1, that nothing
# in the tables cancels.  The computed values are checked in
# test_oom_solve.py::TestWildcatterPolicySets::test_computed_meus.
PINNED_MEUS = {0.1: "{(+,-1)}", 0.01: "{(+,0)}", 0.001: "{(+-,0),(+-,inf)}"}
PINNED_COUNTS = {0.1: 2, 0.01: 4, 0.001: 128}


def test_criterion_3_policy_table_reproduction(capsys):
    d = wildcatter()
    checks = []
    start = time.perf_counter()
    for eps in (0.1, 0.01, 0.001):
        solution = elim_oom_id(convert(d, ConversionConfig(eps)))
        ps = solution.policies
        checks.append(
            (
                str(solution.meu) == PINNED_MEUS[eps],
                f"eps={eps}: qualitative MEU computed {solution.meu}, pinned {PINNED_MEUS[eps]}",
            )
        )
        checks.append(
            (
                ps.count() == PINNED_COUNTS[eps],
                f"eps={eps}: {ps.count()} optimal policies, pinned {PINNED_COUNTS[eps]}",
            )
        )
        checks.append(
            (
                ps.cells["Test"][0] == frozenset({0, 1}),
                f"eps={eps}: first-decision cell should keep both actions",
            )
        )
        scope = ps.scopes["Drill"]
        labels = [d.domain(x) for x in scope]
        for cfg, cell in zip(itertools.product(*labels), ps.cells["Drill"]):
            assignment = dict(zip(scope, cfg))
            key = (assignment["Seismic"], assignment["Test"])
            got = {d.domain("Drill")[i] for i in cell}
            checks.append(
                (
                    got == TABLE_CELLS[eps][key],
                    f"eps={eps}: drill cell {key} kept {sorted(got)}, expected"
                    f" {sorted(TABLE_CELLS[eps][key])}",
                )
            )
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 1.0, f"took {elapsed:.3f}s, expected < 1s"))
    report(capsys, 3, checks, f"{elapsed * 1000:.0f}ms")


FIG2 = {
    "seismic": {
        ("dry", "yes"): ["(+,2)", "(+,1)", "(+,0)"],
        ("dry", "no"): ["(+,0)", "(+,0)", "(+,0)"],
        ("wet", "yes"): ["(+,1)", "(+,0)", "(+,1)"],
        ("wet", "no"): ["(+,0)", "(+,0)", "(+,0)"],
        ("soaking", "yes"): ["(+,0)", "(+,1)", "(+,2)"],
        ("soaking", "no"): ["(+,0)", "(+,0)", "(+,0)"],
    },
    "oil": ["(+,0)", "(+,0)", "(+,0)"],
    "test_payoff": ["{(-,-1)}", "{(+-,inf)}"],
    "drill_payoff": [
        "{(-,-1)}",
        "{(+-,inf)}",
        "{(+,-1)}",
        "{(+-,inf)}",
        "{(+,-2)}",
        "{(+-,inf)}",
    ],
}


def test_criterion_4_conversion_table(capsys):
    # the tables as the file format prints them
    o = to_dict(convert(wildcatter(), ConversionConfig(0.1)))
    cpts = {c["child"]: c["table"] for c in o["cpts"]}
    utilities = {tuple(u["scope"]): u["table"] for u in o["utilities"]}
    checks = []
    seismic = cpts["Seismic"]
    idx = 0
    for oil in ("dry", "wet", "soaking"):
        for t in ("yes", "no"):
            got = seismic[idx : idx + 3]
            expected = FIG2["seismic"][(oil, t)]
            checks.append(
                (got == expected, f"seismic row ({oil},{t}): {got} != {expected}")
            )
            idx += 3
    checks.append((cpts["Oil"] == FIG2["oil"], "oil prior quantization mismatch"))
    checks.append(
        (
            utilities[("Test",)] == FIG2["test_payoff"],
            "test payoff quantization mismatch",
        )
    )
    checks.append(
        (
            utilities[("Oil", "Drill")] == FIG2["drill_payoff"],
            "drill payoff quantization mismatch",
        )
    )
    report(capsys, 4, checks, "29 table entries")


def test_criterion_5_split_factor_counterexample(capsys):
    q1, q2 = v("+", 2), v("+", 3)
    a = [v("+-", 1), v("+-", 4)]
    lhs_raw = {mul(add(q1, q2), x) for x in a}
    rhs_raw = {add(mul(q1, x), mul(q2, y)) for x in a for y in a}
    checks = [
        (lhs_raw == {v("+-", 3), v("+-", 6)}, f"combined-factor side gave {lhs_raw}"),
        (
            rhs_raw == {v("+-", 3), v("+-", 4), v("+-", 6)},
            f"distributed side gave {rhs_raw}",
        ),
        (
            equiv(canonicalize(lhs_raw), canonicalize(rhs_raw)),
            "sides are not equivalent after canonicalization",
        ),
    ]
    report(capsys, 5, checks)


def test_criterion_6_two_set_example(capsys):
    a1 = OOMSet((v("+-", 3), v("+-", 4)))
    a2 = OOMSet((v("+-", 3), v("+-", 6)))
    got_max = max_sets(a1, a2)
    got_sum = sum_sets(a1, a2)
    checks = [
        (
            got_max == OOMSet((v("+-", 3), v("+-", 6))),
            f"maximization gave {got_max}",
        ),
        (
            got_sum == OOMSet((v("+-", 3), v("+-", 4))),
            f"summation gave {got_sum}",
        ),
    ]
    report(capsys, 6, checks)


def test_criterion_7_property_suites(capsys):
    start = time.perf_counter()
    checks = []

    # value laws, exhaustive over the window
    assoc = comm = dist = True
    for a, b, c in itertools.product(WINDOW, repeat=3):
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            assoc = False
        if add(add(a, b), c) != add(a, add(b, c)):
            assoc = False
        if mul(add(a, b), c) != add(mul(a, c), mul(b, c)):
            dist = False
    for a, b in itertools.product(WINDOW, repeat=2):
        if mul(a, b) != mul(b, a) or add(a, b) != add(b, a):
            comm = False
    checks.append((assoc, "associativity failed on the order window"))
    checks.append((comm, "commutativity failed on the order window"))
    checks.append((dist, "distributivity failed on the order window"))

    # monotonicity, exhaustive (up to the unordered unknown-sign diagonal)
    mono = True
    for a, b, c in itertools.product(WINDOW, repeat=3):
        if dominates(a, b):
            ac, bc = add(a, c), add(b, c)
            if not (dominates(ac, bc) or ac == bc):
                mono = False
            if c.is_positive and not dominates(mul(a, c), mul(b, c)):
                mono = False
    checks.append((mono, "monotonicity failed on the order window"))

    # partial-order axioms, exhaustive
    order_ok = True
    for a in WINDOW:
        if a.sign is Sign.PLUSMINUS:
            if dominates(a, a):
                order_ok = False
        elif not dominates(a, a):
            order_ok = False
    for a, b in itertools.product(WINDOW, repeat=2):
        if dominates(a, b) and dominates(b, a) and a != b:
            order_ok = False
    for a, b, c in itertools.product(WINDOW, repeat=3):
        if dominates(a, b) and dominates(b, c) and not dominates(a, c):
            order_ok = False
    checks.append((order_ok, "dominance is not a partial order on the window"))

    # canonical-form law, 1000 random sets against the closure oracle
    rng = random.Random(20240)
    def closure_maximal(values):
        closure = convex_closure_bounded(list(values), 9)
        clipped = {x for x in closure if x.order <= 4 or x.is_zero}
        return frozenset(maximal_set(clipped))

    thm1_shape = thm1_equiv = True
    for _ in range(1000):
        values = [rng.choice(WINDOW) for _ in range(rng.randint(1, 6))]
        result = canonicalize(values)
        if len(result.elements) > 2:
            thm1_shape = False
        if closure_maximal(values) != closure_maximal(result.elements):
            thm1_equiv = False
    checks.append((thm1_shape, "canonicalize produced more than two elements"))
    checks.append((thm1_equiv, "canonicalize is not equivalence-preserving"))

    # distributivity of the three set operations, 1000 random cases each
    def rand_set():
        return canonicalize([rng.choice(WINDOW) for _ in range(rng.randint(1, 4))])

    d1 = d2 = d3 = True
    for _ in range(1000):
        q = OOMValue(Sign.PLUS, rng.randint(-4, 4))
        q2 = OOMValue(Sign.PLUS, rng.randint(-4, 4))
        a, b, c = rand_set(), rand_set(), rand_set()
        if not equiv(scale(q, sum_sets(a, b)), sum_sets(scale(q, a), scale(q, b))):
            d1 = False
        if not equiv(scale(add(q, q2), a), sum_sets(scale(q, a), scale(q2, a))):
            d2 = False
        if not equiv(
            sum_sets(max_sets(a, b), c), max_sets(sum_sets(a, c), sum_sets(b, c))
        ):
            d3 = False
    checks.append((d1, "scaling does not distribute over summation"))
    checks.append((d2, "split factors do not distribute over summation"))
    checks.append((d3, "summation does not distribute over maximization"))

    elapsed = time.perf_counter() - start
    checks.append((elapsed < 120.0, f"took {elapsed:.1f}s, expected < 2min"))
    report(capsys, 7, checks, f"{elapsed:.1f}s")


def _oracle_params(i: int) -> GeneratorParams:
    shapes = [
        dict(n_c=4, n_d=2, k=2, p=1, r=2, a=3),
        dict(n_c=6, n_d=1, k=2, p=2, r=3, a=4),
        dict(n_c=5, n_d=2, k=2, p=1, r=3, a=3),
        dict(n_c=6, n_d=2, k=2, p=1, r=2, a=4),
        dict(n_c=5, n_d=1, k=3, p=1, r=2, a=2),
    ]
    return GeneratorParams(
        seed=4000 + i, utility_class="PM"[i % 2], **shapes[i % len(shapes)]
    )


def test_criterion_8_solver_oracle_equivalence(capsys):
    start = time.perf_counter()
    checks = []
    for i in range(30):
        d = generate(_oracle_params(i))
        sol = solve_exact(d)
        meu, _ = brute_force_meu(d, guard=200_000)
        scale_tol = 1e-9 * max(1.0, abs(meu))
        checks.append(
            (
                abs(sol.meu - meu) <= scale_tol,
                f"instance {i}: exact {sol.meu!r} vs enumerated {meu!r}",
            )
        )
        eps = [0.5, 0.1, 0.01][i % 3]
        o = convert(d, ConversionConfig(eps))
        qual = elim_oom_id(o)
        oracle = brute_force_oom(o)
        checks.append(
            (
                equiv(qual.meu, oracle.meu),
                f"instance {i}: qualitative MEU {qual.meu} vs oracle {oracle.meu}",
            )
        )
        checks.append(
            (
                qual.policies == oracle.policies,
                f"instance {i}: policy sets differ",
            )
        )
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 120.0, f"took {elapsed:.1f}s, expected < 2min"))
    report(capsys, 8, checks, f"30 instances, {elapsed:.1f}s")


def test_criterion_9_policy_quality_trend(capsys):
    start = time.perf_counter()
    epsilons = [0.5, 0.05, 0.005]
    checks = []
    for n in (25, 35):
        params = GeneratorParams(
            n_c=n - 5, n_d=5, k=2, p=2, r=5, a=5, utility_class="P"
        )
        results = run_experiment(params, epsilons, s=100, instances=30, seed=0)
        rows = {
            (r.epsilon, r.metric): r for r in summarize(results)
        }
        for eps in epsilons:
            p50_max = rows[(eps, "eta_max")].p50
            checks.append(
                (
                    p50_max <= 0.01,
                    f"n={n} eps={eps}: median eta_max {p50_max:.4f} > 0.01",
                )
            )
        med_coarse = rows[(0.5, "eta_med")].p50
        med_fine = rows[(0.005, "eta_med")].p50
        checks.append(
            (
                med_coarse <= 0.10,
                f"n={n}: median eta_med at eps=0.5 is {med_coarse:.4f} > 0.10",
            )
        )
        checks.append(
            (
                med_coarse < med_fine,
                f"n={n}: eta_med should grow as eps shrinks"
                f" ({med_coarse:.4f} vs {med_fine:.4f})",
            )
        )
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 600.0, f"took {elapsed:.1f}s, expected < 10min"))
    report(capsys, 9, checks, f"{elapsed:.1f}s")
