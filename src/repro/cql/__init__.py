"""A CQL-subset continuous query compiler.

The paper expresses every ESP stage it deploys as a declarative continuous
query in CQL [6]. This subpackage implements the subset of CQL those
queries need, compiled onto :mod:`repro.streams` operators:

- windowed stream references — ``FROM s [Range By '5 sec']``,
  ``[Range By 'NOW']``, ``[Rows N]``;
- SELECT lists with expressions, aliases, literals and aggregate calls
  (including ``count(distinct x)``);
- WHERE / GROUP BY / HAVING, including the correlated
  ``HAVING count(*) >= ALL(SELECT ...)`` pattern of the paper's Query 3;
- subqueries and self-joins in FROM (the paper's Query 5 and Query 6);
- UNION [ALL] of selects;
- scalar functions (``coalesce``, ``abs``, ...) and user-registered UDFs.

Entry points:

- :func:`parse` — CQL text to AST.
- :func:`compile_query` — CQL text to a :class:`repro.cql.planner.CompiledQuery`,
  a plan whose operators wire into an ESP pipeline's or any Fjord's DAG.
"""

from repro.cql.functions import get_function, register_function
from repro.cql.parser import parse
from repro.cql.planner import CompiledQuery, compile_query

__all__ = [
    "CompiledQuery",
    "compile_query",
    "get_function",
    "parse",
    "register_function",
]
