"""Rewrite the reference files in bench/reference/ from the current engine.

    python3 bench/capture_reference.py [--route-order]

Run it only when a change to jetcalc is meant to change an answer; the
benchmark's correctness checks compare against these files byte for byte.
With --route-order it also re-ranks the route_agreement universe by measured
cost (a few minutes); the ranking only shapes which operators a seed draws.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from jetcalc import corpus_names  # noqa: E402

import workloads  # noqa: E402


# a medium-cost universe operator, timed right after each one to rank them
ROUTE_REFERENCE_OP = 449


def route_order():
    """Universe indices sorted by cost, each case timed against the reference
    operator run straight after it, so slow drifts in machine speed cancel."""
    from jetcalc import JetSpace

    space = JetSpace.create(["x"], ["u"])
    universe = workloads.route_universe(space)
    check = workloads.route_checker(space)

    def seconds(op):
        start = time.perf_counter()
        verdicts = check(op)
        if verdicts[0] != verdicts[1]:
            raise SystemExit("route disagreement while ranking the universe")
        return time.perf_counter() - start

    cost = [0.0] * len(universe)
    for _ in range(2):
        for k, op in enumerate(universe):
            cost[k] += seconds(op) / seconds(universe[ROUTE_REFERENCE_OP])
    return sorted(range(len(universe)), key=lambda k: (cost[k], k))


def main():
    corpus_dir = workloads.REFERENCE / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for name in corpus_names():
        code, text = workloads.corpus_report(name)
        if code != 0:
            raise SystemExit(f"corpus problem {name} exits with {code}")
        (corpus_dir / f"{name}.json").write_text(text)
    solves = {label: workloads.solve_case(label)() for label in workloads.SOLVES}
    (workloads.REFERENCE / "solve.json").write_text(json.dumps(solves, indent=1) + "\n")
    for label, basis in solves.items():
        print(f"{label}: dimension {len(basis)}")
    if "--route-order" in sys.argv[1:]:
        order = route_order()
        (workloads.REFERENCE / "route_order.json").write_text(json.dumps(order) + "\n")


if __name__ == "__main__":
    main()
