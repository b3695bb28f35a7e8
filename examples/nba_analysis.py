"""Scouting NBA player seasons with prioritized skylines (Figure 6 data).

Uses the NBA-style simulated data set (21,959 player seasons over 14
stats, larger is better) and contrasts three scouting philosophies:

* a plain skyline over the five core stats -- hundreds of candidates;
* "scoring first": points dominate, the rest is tie-breaking;
* "two-way player": defense (steals * blocks) and offense (points)
  equally important, both above playmaking.

Also demonstrates the output-size estimator (Section 8 / future work)
and the planner's per-query algorithm choice built on it.

Usage::

    python examples/nba_analysis.py [rows]
"""

import sys

import numpy as np

from repro import Relation, Stats, highest
from repro.data.nba import NBA_ATTRIBUTES, nba_dataset
from repro.estimation import estimate_pskyline_size
from repro.core.parser import parse
from repro.core.pgraph import PGraph
from repro.planner import Planner


def main() -> None:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 21_959
    data = nba_dataset(rows)
    schema = [highest(name) for name in NBA_ATTRIBUTES]
    seasons = Relation.from_records(
        [dict(zip(NBA_ATTRIBUTES, row)) for row in data], schema)
    print(f"data set: {seasons}")

    queries = {
        "plain skyline (five core stats)":
            "pts * reb * asts * stl * blk",
        "scoring first, then boards, then the rest":
            "pts & reb & (asts * stl * blk)",
        "two-way player":
            "((stl * blk) & pf) * (pts & fga)",
        "minutes-weighted veteran":
            "(gp & minutes) * (pts & (reb * asts))",
    }

    rng = np.random.default_rng(0)
    planner = Planner(sample_size=128, rng=rng)
    for description, text in queries.items():
        expr = parse(text)
        graph = PGraph.from_expression(expr)
        names = list(expr.attributes())
        ranks = -data[:, [NBA_ATTRIBUTES.index(n) for n in names]]
        estimate = estimate_pskyline_size(ranks, graph, rng,
                                          sample_size=128)
        plan = planner.plan(ranks, graph)
        stats = Stats()
        result = seasons.take(plan.execute(ranks, graph, stats=stats))
        print(f"\n{description}")
        print(f"  pi            = {expr}")
        print(f"  estimated v   ~ {estimate:8.1f}")
        print(f"  chosen algo   = {plan.algorithm} ({plan.reason})")
        print(f"  actual v      = {len(result)}  "
              f"({100 * len(result) / rows:.2f}% of seasons)")
        best = max(result.to_records(), key=lambda r: r["pts"])
        print(f"  top scorer in answer: {best['pts']:.0f} pts, "
              f"{best['reb']:.0f} reb, {best['asts']:.0f} ast")


if __name__ == "__main__":
    main()
