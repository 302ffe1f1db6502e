"""Built-in domain checkers — importing this package registers them all.

Registration order below fixes report ordering; new checkers ship one
module per invariant and one ``RPRx0x`` code block per domain (1xx
determinism, 2xx error taxonomy, 3xx lock discipline, 4xx async
hygiene, 5xx broad excepts, 7xx interprocedural
dataflow over the project call graph, 8xx monolithic-assembly bans,
9xx timing discipline).
"""

from repro.analysis.checkers import (  # noqa: F401
    determinism,
    error_taxonomy,
    lock_discipline,
    async_hygiene,
    broad_except,
    transitive_blocking,
    lock_order,
    error_flow,
    determinism_taint,
    monolith_assembly,
    timing,
)
