"""Static contract checkers for the :mod:`repro` codebase.

The repo's headline guarantees — exact serial == parallel output,
bit-identical crash replay, typed wire errors, fsync-before-truncate
durability — are *invariants of the source*, not just of any one test
run.  This package enforces them on every file with a pluggable
AST-walking framework (stdlib :mod:`ast`, no third-party deps):

* a checker registry (:func:`repro.analysis.base.register_checker`)
  mapping ``RPRxxx`` rule codes to domain checkers;
* inline suppressions — ``# repro: ignore[RPR501] - reason`` on (or
  immediately above) the offending line;
* a committed baseline file freezing pre-existing debt so *new*
  violations fail CI while old ones are burned down deliberately;
* a project tier: one pass builds a
  :class:`~repro.analysis.project.ProjectGraph` (imports, classes, a
  conservative call graph with per-function summaries) over which
  :class:`~repro.analysis.base.ProjectChecker` rules run
  interprocedural dataflow checks, accelerated by a content-hash
  incremental cache and a ``--jobs`` parallel parse stage.

Shipped checkers (one module each under ``checkers/``):

=========  ==========================================================
``RPR1xx`` determinism: no wall-clock/global-RNG calls outside
           :mod:`repro.rng`; no iteration over unordered sets feeding
           output
``RPR2xx`` error taxonomy: every ``raise`` uses a
           :class:`~repro.errors.ReproError` subclass; the wire
           protocol's code map is total over :mod:`repro.errors`
``RPR3xx`` lock discipline: session-manager state mutated only under
           its locks; ``*_locked`` helpers called only from locked
           scopes
``RPR4xx`` async hygiene: no blocking calls (fsync, ``np.load``,
           LP solves...) directly inside ``async def`` bodies
``RPR5xx`` broad excepts: ``except Exception`` must re-raise or carry
           a suppression naming why swallowing is intentional
``RPR7xx`` interprocedural dataflow: transitive async blocking
           (RPR701), lock-order cycles (RPR702), wire error-code
           totality vs reachable raises (RPR703), determinism taint
           closure (RPR704)
=========  ==========================================================

Run it as ``repro-igp lint`` (see the README's "Static analysis"
section) or programmatically via :func:`analyze_paths` /
:func:`analyze_source` / :func:`analyze_project_sources`.
"""

from repro.analysis.base import (
    Checker,
    ModuleContext,
    ProjectChecker,
    all_checkers,
    all_project_checkers,
    register_checker,
    register_project_checker,
    rule_index,
)
from repro.analysis.baseline import Baseline
from repro.analysis.cache import AnalysisCache
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectGraph, build_project_graph
from repro.analysis.runner import (
    AnalysisReport,
    analyze_paths,
    analyze_project_sources,
    analyze_source,
    default_package_root,
)

__all__ = [
    "AnalysisCache",
    "AnalysisReport",
    "Baseline",
    "Checker",
    "Finding",
    "ModuleContext",
    "ProjectChecker",
    "ProjectGraph",
    "all_checkers",
    "all_project_checkers",
    "analyze_paths",
    "analyze_project_sources",
    "analyze_source",
    "build_project_graph",
    "default_package_root",
    "register_checker",
    "register_project_checker",
    "rule_index",
]
