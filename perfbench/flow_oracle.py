"""Independent check of exact W1 costs with networkx, one instance per line.

Reads JSON lines {"space", "p", "q", "cost"} on stdin, where p and q are
[[point text, weight], ...] and cost is the solver's answer ("inf" or a
rational).  Costs are recomputed from the points (L1 over coordinates; on
rinf-grid, d(inf, inf) = 0 and d(x, inf) = inf), and masses and finite costs
are scaled to integers.  A maximum flow over the finite-cost edges decides
whether a finite plan exists; if one does, networkx.min_cost_flow_cost gives
the exact optimum.  Prints the number of disagreeing instances last.

    python3 perfbench/flow_oracle.py < instances.jsonl
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import networkx as nx


def _point(text):
    return None if text == "inf" else tuple(Fraction(c) for c in text.split(","))


def _dist(a, b):
    if a is None or b is None:
        return Fraction(0) if a is b else None
    return sum(abs(s - t) for s, t in zip(a, b))


def expected_cost(p, q):
    xs = [(_point(t), Fraction(w)) for t, w in p]
    ys = [(_point(t), Fraction(w)) for t, w in q]
    mass_scale = math.lcm(*(w.denominator for _, w in xs + ys))
    costs = {(i, j): _dist(x, y) for i, (x, _) in enumerate(xs) for j, (y, _) in enumerate(ys)}
    finite = {k: c for k, c in costs.items() if c is not None}
    cost_scale = math.lcm(1, *(c.denominator for c in finite.values()))

    g = nx.DiGraph()
    for i, (_, w) in enumerate(xs):
        g.add_node(("x", i), demand=-int(w * mass_scale))
        g.add_edge("s", ("x", i), capacity=int(w * mass_scale))
    for j, (_, w) in enumerate(ys):
        g.add_node(("y", j), demand=int(w * mass_scale))
        g.add_edge(("y", j), "t", capacity=int(w * mass_scale))
    for (i, j), c in finite.items():
        g.add_edge(("x", i), ("y", j), weight=int(c * cost_scale))
    if nx.maximum_flow_value(g, "s", "t") < mass_scale:
        return "inf"
    g.remove_nodes_from(["s", "t"])
    total = nx.min_cost_flow_cost(g)
    return str(Fraction(total, mass_scale * cost_scale))


def main():
    bad = 0
    for line in sys.stdin:
        inst = json.loads(line)
        want = expected_cost(inst["p"], inst["q"])
        if want != inst["cost"]:
            bad += 1
            print(f"{inst['space']}: solver {inst['cost']}, oracle {want}", file=sys.stderr)
    print(bad)


if __name__ == "__main__":
    main()
