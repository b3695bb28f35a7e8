"""repro: output-sensitive evaluation of prioritized skyline queries.

A complete reproduction of Meneghetti, Mindolin, Ciaccia and Chomicki,
*"Output-sensitive Evaluation of Prioritized Skyline Queries"*,
SIGMOD 2015 -- the OSDC algorithm, its p-screening machinery, scan-based
baselines (BNL / SFS / LESS / SALSA), the uniform p-expression sampling
framework, the equicorrelated synthetic data generator, and a benchmark
harness regenerating every figure of the paper's evaluation.

Quick start::

    import numpy as np
    from repro import Relation, lowest, highest, p_skyline

    cars = Relation.from_records(
        [{"price": 11500, "mileage": 50000, "hp": 190}, ...],
        [lowest("price"), lowest("mileage"), highest("hp")],
    )
    best = p_skyline(cars, "(price & hp) * mileage")
"""

from .algorithms import REGISTRY, Stats, get_algorithm
from .core import (Att, Attribute, Direction, Dominance, ExtensionOrder,
                   ParseError, Pareto, PExpr, PGraph, Prioritized, Relation,
                   highest, lex, lowest, pareto, parse, prioritized, ranked,
                   sky)
from .core.preferring import (PreferringClause, evaluate_preferring,
                              parse_preferring)
from .core.query import p_skyline, p_skyline_batch, skyline
from .core.sharding import (ShardMap, ShardSnapshot, ShardedRelation,
                            sharded_pskyline)
from .core.checks import VerificationError, verify_pskyline
from .core.explain import PairExplanation, explain_not_maximal, explain_pair
from .core.semantics import equivalent, normal_form, refines, to_dot
from .core.serialize import (expression_from_json, expression_to_json,
                             load_relation, pgraph_from_json,
                             pgraph_to_json, save_relation)
from .engine import (CancellationToken, CompiledPreference, EngineError,
                     ExecutionContext, MemoryBudgetExceeded,
                     PreferenceCache, QueryCancelled, QueryTimeout,
                     TraceBuffer, TraceEvent, compile_preference,
                     default_cache)
from .planner import Plan, Planner

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # query API
    "p_skyline",
    "p_skyline_batch",
    "skyline",
    "parse_preferring",
    "evaluate_preferring",
    "PreferringClause",
    # preference model
    "Attribute",
    "Direction",
    "lowest",
    "highest",
    "ranked",
    "Att",
    "PExpr",
    "Pareto",
    "Prioritized",
    "pareto",
    "prioritized",
    "sky",
    "lex",
    "parse",
    "ParseError",
    "equivalent",
    "refines",
    "normal_form",
    "to_dot",
    "PGraph",
    "Dominance",
    "ExtensionOrder",
    "Relation",
    # sharded storage
    "ShardMap",
    "ShardSnapshot",
    "ShardedRelation",
    "sharded_pskyline",
    # algorithms
    "REGISTRY",
    "Stats",
    "get_algorithm",
    "Planner",
    "Plan",
    # engine
    "ExecutionContext",
    "CancellationToken",
    "CompiledPreference",
    "PreferenceCache",
    "compile_preference",
    "default_cache",
    "TraceBuffer",
    "TraceEvent",
    "EngineError",
    "QueryTimeout",
    "QueryCancelled",
    "MemoryBudgetExceeded",
    "verify_pskyline",
    "explain_pair",
    "explain_not_maximal",
    "PairExplanation",
    "VerificationError",
    "expression_to_json",
    "expression_from_json",
    "pgraph_to_json",
    "pgraph_from_json",
    "save_relation",
    "load_relation",
]
