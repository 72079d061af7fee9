"""Smoke test of the benchmark on tiny inputs, with negative controls.

    python3 bench/selftest.py

Runs each workload's ops on small instances and checks that they pass, then
checks that a broken witness, a wrong pinned value and an exception each
count as a failed op, that the known complete-lexicographic defect is
reported as a failed op matched to its record, and that self time is
duration minus child spans.  Exits 1 on the first unmet expectation.
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path

import harness
from harness import Op, Tracer, run_pass, tally

harness.bootstrap()

from mcgraph.families import cycle_graph  # noqa: E402
from mcgraph.mc import EdgeColoring, spanning_tree_coloring  # noqa: E402

import workloads as wl  # noqa: E402

CHECKS = 0


def expect(condition: bool, message: str) -> None:
    global CHECKS
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    CHECKS += 1


def outcome(ops: list[Op]):
    results = run_pass(Tracer(), ops, 0, traced=False).results
    failed, unexplained = tally(results, wl.KNOWN_DEFECTS)
    return results, failed, unexplained


def tags(result) -> set[str]:
    return {tag for tag, _ in result.report.problems}


def break_witness(coloring: EdgeColoring) -> EdgeColoring:
    """Move one edge of a multi-edge color class into a single-edge class.

    The color ids stay contiguous and the count is unchanged, so only the
    connectivity check can notice.
    """
    colors = list(coloring.colors)
    sizes = {c: colors.count(c) for c in set(colors)}
    tree_edge = next(i for i, c in enumerate(colors) if sizes[c] > 1)
    colors[tree_edge] = next(c for c in colors if sizes[c] == 1)
    return EdgeColoring(coloring.host, tuple(colors))


def main() -> int:
    scratch_parent = harness.ROOT / ".bench_out"
    scratch_parent.mkdir(exist_ok=True)
    small = [p for p in wl.PRODUCTS if p[0] in ("lex_P2_C5", "cartesian_C3_C4")]

    # exact-products: canonical and relabeled inputs keep their pinned values
    for relabel in (False, True):
        prep = wl.setup_exact_products(Tracer(), 3, relabel, products=small)
        results, failed, _ = outcome(prep.ops)
        expect(len(results) == 2 and not failed, f"exact-products relabel={relabel}: {failed}")
        expect(all((i["relabel_seed"] is not None) == relabel for i in prep.instances),
               "relabel seeds recorded")

    # negative control: a wrong pinned value is a failed op
    name, kind, a, b, pinned, budget = small[1]
    wrong = wl.setup_exact_products(
        Tracer(), 0, products=[(name, kind, a, b, pinned + 1, budget)]
    )
    _, failed, unexplained = outcome(wrong.ops)
    expect(len(failed) == 1 and tags(failed[0]) == {"wrong-value"}, "wrong pin must fail")
    expect(unexplained == failed, "a wrong pin is not a known defect")

    # negative control: a witness with one edge recoloured is a failed op
    g = cycle_graph(5)
    broken = break_witness(spanning_tree_coloring(g))

    def broken_op(tr, rep):
        wl.check_witness(tr, rep, g, broken, g.m - g.n + 2, "recoloured witness")

    _, failed, _ = outcome([Op("broken-witness", broken_op)])
    expect(len(failed) == 1 and tags(failed[0]) == {"invalid-witness"}, "broken witness must fail")

    def broken_exact_op(tr, rep):
        result = wl.solve_exact(tr, rep, g, wl.MAX_NODES)
        bad = type(result)(result.value, break_witness(result.witness), result.method, result.bounds)
        wl.check_exact(tr, rep, g, bad, "mc_exact", result.value, [])

    _, failed, _ = outcome([Op("broken-exact", broken_exact_op)])
    expect(len(failed) == 1 and tags(failed[0]) == {"invalid-witness"}, "broken exact witness")

    # negative control: an op that raises is a failed op, not a crash
    def raising_op(tr, rep):
        raise ValueError("boom")

    _, failed, _ = outcome([Op("raises", raising_op)])
    expect(len(failed) == 1 and tags(failed[0]) == {"exception"}, "exception must fail the op")

    # oracle-sweep on graphs up to 4 vertices plus the 7-vertex graphs with m = 9
    prep = wl.setup_oracle_sweep(Tracer(), 5, max_n=4)
    ops = [op for op in prep.ops if op.name.startswith("corpus") or "m=9" in op.name]
    results, failed, _ = outcome(ops)
    expect(len(results) > 10 and not failed, f"oracle-sweep: {failed}")
    again = wl.setup_oracle_sweep(Tracer(), 5, max_n=4)
    expect(again.instances == prep.instances, "the same seed gives the same inputs")

    # network-families: the known defect fails, is named, and does not
    # count as unexplained; a clean instance passes
    tiny = [n for n in wl.NETWORKS if n[0] in ("hyper_petersen", "lex_torus") and n[4] <= 20]
    with tempfile.TemporaryDirectory(dir=scratch_parent) as tmp:
        prep = wl.setup_network_families(Tracer(), 0, Path(tmp), networks=tiny)
        ops = [op for op in prep.ops if op.name != "proposition_report"]
        results, failed, unexplained = outcome(ops)
    expect(len(results) == 2, "two tiny network instances")
    expect([r.name for r in failed] == ["lex_torus 3 3"], f"known defect shows: {failed}")
    expect(tags(failed[0]) == {"bounds-containment"}, "the defect is a containment failure")
    expect("excludes the checked all-distinct coloring with 36 colors"
           in failed[0].report.problems[0][1], "the message names the witness")
    expect(not unexplained, "the known defect is matched to its record")

    # self time is a span's duration minus its children's
    tr = Tracer()
    tr.enabled = True
    with tr.span("outer"):
        tr.call("inner", time.sleep, 0.02)
        sum(random.random() for _ in range(10000))
    totals = tr.layer_totals(passes=1)
    inner, outer = totals["inner"], totals["outer"]
    expect(inner["calls"] == 1 and inner["self_s"] == inner["busy_s"] >= 0.02, "leaf span")
    expect(abs(outer["self_s"] - (outer["busy_s"] - inner["busy_s"])) < 1e-9, "self time")

    print(f"selftest: {CHECKS} checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
