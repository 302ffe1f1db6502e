"""Tests for the repro.analysis static-contract checker suite.

Each checker gets positive fixtures (replicas of the real violation
class it was built to catch) and negative fixtures (the idiomatic
compliant spelling).  The framework pieces — suppressions, baseline,
JSON report, CLI exit codes — are exercised end to end, and a tier-1
self-check asserts the shipped package stays clean under its own
analyzer.
"""

from __future__ import annotations

import json

import pytest

import repro.errors as errors_mod
from repro.analysis import (
    Baseline,
    all_checkers,
    analyze_paths,
    analyze_source,
    default_package_root,
)
from repro.analysis.checkers.error_taxonomy import check_error_code_totality
from repro.analysis.findings import Finding
from repro.cli import main
from repro.errors import (
    AnalysisError,
    APIUsageError,
    CommunicatorError,
    EdgeNotFoundError,
    RankIndexError,
    ReproError,
    UnknownBackendError,
    ValidationError,
)
from repro.service.protocol import ERROR_CODES


def codes_of(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# RPR1xx — determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_time_time_flagged(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert "RPR101" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_random_import_flagged(self):
        src = "import random\n"
        assert "RPR101" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_np_default_rng_flagged(self):
        src = (
            "import numpy as np\n\n"
            "def f():\n    return np.random.default_rng()\n"
        )
        assert "RPR101" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_make_rng_clean(self):
        src = (
            "from repro.rng import make_rng\n\n"
            "def f(seed):\n    return make_rng(seed).standard_normal(3)\n"
        )
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_rng_module_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert codes_of(analyze_source(src, "repro/rng.py")) == []

    def test_bench_exempt_from_wallclock(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert codes_of(analyze_source(src, "repro/bench/harness.py")) == []

    def test_set_iteration_flagged(self):
        src = "for x in {3, 1, 2}:\n    print(x)\n"
        assert "RPR102" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_set_call_iteration_flagged(self):
        src = "out = [v for v in set(items)]\n"
        assert "RPR102" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_sorted_set_clean(self):
        src = "out = [v for v in sorted(set(items))]\n"
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []


# ----------------------------------------------------------------------
# RPR2xx — error taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_stdlib_raise_flagged(self):
        src = "def f(x):\n    raise ValueError('bad')\n"
        assert "RPR201" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_typed_raise_clean(self):
        src = (
            "from repro.errors import ValidationError\n\n"
            "def f(x):\n    raise ValidationError('bad')\n"
        )
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_bare_reraise_clean(self):
        src = (
            "def f():\n"
            "    try:\n        g()\n"
            "    except KeyError:\n        raise\n"
        )
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_getattr_attributeerror_clean(self):
        src = (
            "class C:\n"
            "    def __getattr__(self, name):\n"
            "        raise AttributeError(name)\n"
        )
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_attributeerror_elsewhere_flagged(self):
        src = "def f(name):\n    raise AttributeError(name)\n"
        assert "RPR201" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_assertion_error_is_invariant_not_api(self):
        src = "def f():\n    raise AssertionError('unreachable')\n"
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_errors_module_exempt(self):
        src = "def f():\n    raise ValueError('bootstrap')\n"
        assert codes_of(analyze_source(src, "repro/errors.py")) == []

    def test_totality_over_real_taxonomy(self):
        assert check_error_code_totality(errors_mod, ERROR_CODES) == []

    def test_totality_catches_unmapped_family(self):
        class Fake:
            class ReproError(Exception):
                pass

            class OrphanError(ReproError):
                pass

        findings = check_error_code_totality(
            Fake, [(Fake.ReproError, "repro")]
        )
        assert codes_of(findings) == ["RPR202"]
        assert "OrphanError" in findings[0].message


# ----------------------------------------------------------------------
# RPR3xx — lock discipline
# ----------------------------------------------------------------------
class TestLockDiscipline:
    def test_locked_helper_outside_lock_flagged(self):
        src = (
            "def close(self, name):\n"
            "    self._checkpoint_locked(self._slot(name))\n"
        )
        assert "RPR301" in codes_of(analyze_source(src, "repro/service/x.py"))

    def test_locked_helper_under_with_lock_clean(self):
        src = (
            "def close(self, name):\n"
            "    with ms.lock:\n"
            "        self._checkpoint_locked(ms)\n"
        )
        assert codes_of(analyze_source(src, "repro/service/x.py")) == []

    def test_locked_helper_from_locked_helper_clean(self):
        src = (
            "def _evict_locked(self, ms):\n"
            "    self._checkpoint_locked(ms)\n"
        )
        assert codes_of(analyze_source(src, "repro/service/x.py")) == []

    def test_acquire_release_pattern_clean(self):
        src = (
            "def sweep(self, ms):\n"
            "    if not ms.lock.acquire(blocking=False):\n"
            "        return\n"
            "    try:\n"
            "        self._checkpoint_locked(ms)\n"
            "    finally:\n"
            "        ms.lock.release()\n"
        )
        assert codes_of(analyze_source(src, "repro/service/x.py")) == []

    def test_nested_def_does_not_inherit_with_lock(self):
        src = (
            "def outer(self, ms):\n"
            "    with ms.lock:\n"
            "        def cb():\n"
            "            self._checkpoint_locked(ms)\n"
            "        return cb\n"
        )
        assert "RPR301" in codes_of(analyze_source(src, "repro/service/x.py"))

    def test_guarded_mutation_outside_lock_flagged(self):
        src = (
            "def evict(self, ms):\n"
            "    ms.session = None\n"
            "    ms.dirty = False\n"
        )
        found = analyze_source(src, "repro/service/manager.py")
        assert codes_of(found) == ["RPR302", "RPR302"]

    def test_registry_mutation_outside_lock_flagged(self):
        src = "def drop(self, name):\n    self._registry.pop(name, None)\n"
        assert "RPR302" in codes_of(
            analyze_source(src, "repro/service/manager.py")
        )

    def test_guarded_mutation_under_lock_clean(self):
        src = (
            "def evict(self, ms):\n"
            "    with ms.lock:\n"
            "        ms.session = None\n"
            "    with self._lock:\n"
            "        del self._registry[ms.name]\n"
        )
        assert codes_of(analyze_source(src, "repro/service/manager.py")) == []

    def test_constructor_mutation_clean(self):
        src = (
            "class M:\n"
            "    def __init__(self):\n"
            "        self._registry = {}\n"
            "        self.dirty = False\n"
        )
        assert codes_of(analyze_source(src, "repro/service/manager.py")) == []

    def test_mutation_rule_scoped_to_manager(self):
        src = "def f(ms):\n    ms.dirty = True\n"
        assert codes_of(analyze_source(src, "repro/service/other.py")) == []


# ----------------------------------------------------------------------
# RPR4xx — async hygiene
# ----------------------------------------------------------------------
class TestAsyncHygiene:
    def test_blocking_call_in_async_flagged(self):
        src = (
            "async def handler(self, name):\n"
            "    return self.manager.repartition(name)\n"
        )
        assert "RPR401" in codes_of(analyze_source(src, "repro/service/x.py"))

    def test_time_sleep_in_async_flagged(self):
        src = "import time\n\nasync def f():\n    time.sleep(1)\n"
        assert "RPR401" in codes_of(analyze_source(src, "repro/service/x.py"))

    def test_open_in_async_flagged(self):
        src = "async def f(p):\n    return open(p).name\n"
        assert "RPR401" in codes_of(analyze_source(src, "repro/service/x.py"))

    def test_run_in_executor_clean(self):
        src = (
            "import asyncio\n\n"
            "async def handler(self, name):\n"
            "    loop = asyncio.get_running_loop()\n"
            "    return await loop.run_in_executor(\n"
            "        None, self.manager.repartition, name\n"
            "    )\n"
        )
        assert codes_of(analyze_source(src, "repro/service/x.py")) == []

    def test_nested_sync_def_suspends_rule(self):
        src = (
            "async def handler(self):\n"
            "    def blocking():\n"
            "        return self.manager.solve()\n"
            "    return blocking\n"
        )
        assert codes_of(analyze_source(src, "repro/service/x.py")) == []

    def test_sync_code_not_flagged(self):
        src = "def f(self, name):\n    return self.manager.solve()\n"
        assert codes_of(analyze_source(src, "repro/service/x.py")) == []


# ----------------------------------------------------------------------
# RPR5xx — broad except
# ----------------------------------------------------------------------
class TestBroadExcept:
    def test_swallowing_broad_except_flagged(self):
        src = (
            "def f():\n"
            "    try:\n        g()\n"
            "    except Exception:\n        pass\n"
        )
        assert "RPR501" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_bare_except_flagged(self):
        src = "def f():\n    try:\n        g()\n    except:\n        pass\n"
        assert "RPR501" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_cleanup_and_reraise_clean(self):
        src = (
            "def f(lock):\n"
            "    lock.acquire()\n"
            "    try:\n        g()\n"
            "    except BaseException:\n"
            "        lock.release()\n        raise\n"
        )
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_narrow_except_clean(self):
        src = (
            "def f():\n"
            "    try:\n        g()\n"
            "    except (KeyError, ValueError):\n        pass\n"
        )
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_suppression_with_rationale_accepted(self):
        src = (
            "def f():\n"
            "    try:\n        g()\n"
            "    # repro: ignore[RPR501] - best-effort cache warm-up\n"
            "    except Exception:\n        pass\n"
        )
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []


# ----------------------------------------------------------------------
# The engine classes' canonical spellings stay clean under every checker.
# ----------------------------------------------------------------------
class TestDeprecation:
    def test_canonical_import_clean(self):
        src = "from repro.core import IncrementalGraphPartitioner\n"
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_package_init_exempt(self):
        src = "IncrementalGraphPartitioner = None\n"
        assert codes_of(analyze_source(src, "repro/__init__.py")) == []


# ----------------------------------------------------------------------
# RPR9xx — timing discipline
# ----------------------------------------------------------------------
class TestTiming:
    def test_perf_counter_call_flagged(self):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert "RPR901" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_monotonic_ns_call_flagged(self):
        src = "import time\n\nt0 = time.monotonic_ns()\n"
        assert "RPR901" in codes_of(analyze_source(src, "repro/service/x.py"))

    def test_from_import_flagged(self):
        src = "from time import perf_counter\n"
        assert "RPR901" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_obs_clock_alias_clean(self):
        src = (
            "from repro.obs import clock\n\n"
            "def f():\n    return clock.monotonic()\n"
        )
        assert codes_of(analyze_source(src, "repro/gateway/x.py")) == []

    def test_span_timing_clean(self):
        src = (
            "from repro.obs import get_tracer\n\n"
            "def f():\n"
            "    with get_tracer().span('op') as sp:\n"
            "        pass\n"
            "    return sp.duration_s\n"
        )
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_obs_package_exempt(self):
        src = "import time\n\nt0 = time.perf_counter()\n"
        assert codes_of(analyze_source(src, "repro/obs/tracer.py")) == []

    def test_wall_clock_stays_banned_in_obs(self):
        # the carve-out is for *monotonic* clocks only: RPR101 still
        # owns wall-clock determinism, including inside repro/obs/
        src = "import time\n\nt = time.time()\n"
        assert "RPR101" in codes_of(
            analyze_source(src, "repro/obs/tracer.py")
        )

    def test_bench_exempt(self):
        src = "from time import perf_counter\n"
        assert codes_of(analyze_source(src, "repro/bench/harness.py")) == []

    def test_time_sleep_not_flagged(self):
        # RPR901 bans ad-hoc *measurement*, not the time module wholesale
        src = "import time\n\ndef f():\n    time.sleep(0.1)\n"
        assert "RPR901" not in codes_of(
            analyze_source(src, "repro/service/x.py")
        )

    def test_inline_suppression(self):
        src = (
            "import time\n\n"
            "t0 = time.monotonic()  # repro: ignore[RPR901] - injectable test clock\n"
        )
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []


# ----------------------------------------------------------------------
# Framework: suppressions, baseline, report, CLI
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_same_line(self):
        src = "import random  # repro: ignore[RPR101] - fixture\n"
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_comment_line_above(self):
        src = (
            "# repro: ignore[RPR101] - fixture needs the real module\n"
            "import random\n"
        )
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_wildcard(self):
        src = "import random  # repro: ignore[*] - anything goes here\n"
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_wrong_code_does_not_suppress(self):
        src = "import random  # repro: ignore[RPR999] - wrong code\n"
        assert "RPR101" in codes_of(analyze_source(src, "repro/core/x.py"))


class TestBaseline:
    def _tree(self, tmp_path, body):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "mod.py").write_text(body)
        return pkg

    def test_roundtrip_waives_then_reports_regressions(self, tmp_path):
        pkg = self._tree(tmp_path, "import random\n")
        report = analyze_paths([pkg], project_checks=False)
        assert codes_of(report.findings) == ["RPR101"]

        bl_path = tmp_path / "baseline.json"
        Baseline.from_findings(report.findings).dump(bl_path)
        baseline = Baseline.load(bl_path)

        clean = analyze_paths([pkg], baseline=baseline, project_checks=False)
        assert clean.ok and clean.baseline_waived == 1

        (pkg / "mod.py").write_text("import random\nimport secrets\n")
        regressed = analyze_paths(
            [pkg], baseline=baseline, project_checks=False
        )
        # Count exceeded: the whole (path, code) group is reported.
        assert codes_of(regressed.findings) == ["RPR101", "RPR101"]

    def test_stale_entries_reported(self, tmp_path):
        pkg = self._tree(tmp_path, "x = 1\n")
        baseline = Baseline.from_findings(
            [Finding("repro/mod.py", 1, 1, "RPR101", "gone")]
        )
        report = analyze_paths([pkg], baseline=baseline, project_checks=False)
        assert report.ok
        assert report.baseline_stale == [("repro/mod.py", "RPR101", 1)]

    def test_corrupt_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        with pytest.raises(AnalysisError):
            Baseline.load(bad)


class TestReportAndCLI:
    def _write_pkg(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "mod.py").write_text("import random\n")
        return pkg

    def test_json_schema(self, tmp_path, capsys):
        pkg = self._write_pkg(tmp_path)
        assert main(["lint", str(pkg), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.analysis-report/1"
        assert payload["ok"] is False
        assert payload["counts"] == {"RPR101": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {
            "path", "line", "col", "code", "message", "checker",
        }
        assert finding["code"] == "RPR101"
        assert finding["path"] == "repro/mod.py"

    def test_exit_codes(self, tmp_path, capsys):
        pkg = self._write_pkg(tmp_path)
        assert main(["lint", str(pkg)]) == 1
        assert main(["lint", str(tmp_path / "missing.txt")]) == 2
        assert main(["lint", str(pkg), "--select", "RPR999"]) == 2
        (pkg / "mod.py").write_text("x = 1\n")
        assert main(["lint", str(pkg)]) == 0
        capsys.readouterr()

    def test_select_narrowing(self, tmp_path, capsys):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            "import random\n\n"
            "def f():\n"
            "    try:\n        g()\n"
            "    except Exception:\n        pass\n"
        )
        assert main(["lint", str(pkg), "--select", "RPR5"]) == 1
        out = capsys.readouterr().out
        assert "RPR501" in out and "RPR101" not in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        pkg = self._write_pkg(tmp_path)
        bl = tmp_path / "bl.json"
        assert main(
            ["lint", str(pkg), "--baseline", str(bl), "--write-baseline"]
        ) == 0
        assert main(["lint", str(pkg), "--baseline", str(bl)]) == 0
        capsys.readouterr()


# ----------------------------------------------------------------------
# The taxonomy the checkers enforce
# ----------------------------------------------------------------------
class TestDualInheritance:
    @pytest.mark.parametrize(
        "cls,stdlib",
        [
            (ValidationError, ValueError),
            (APIUsageError, TypeError),
            (EdgeNotFoundError, KeyError),
            (UnknownBackendError, KeyError),
            (RankIndexError, IndexError),
        ],
    )
    def test_typed_errors_keep_stdlib_contract(self, cls, stdlib):
        assert issubclass(cls, ReproError) and issubclass(cls, stdlib)

    def test_migrated_raises_still_catchable_as_stdlib(self):
        from repro.graph.generators import path_graph
        from repro.lp.backends import get_backend_spec

        with pytest.raises(KeyError):
            get_backend_spec("no-such-backend")
        with pytest.raises(ValueError):
            from repro.bench.workloads import make_stream

            make_stream("no-such-source", 1.0, 1, 0)
        with pytest.raises(KeyError):
            path_graph(3).edge_weight(0, 2)

    def test_communicator_error_from_collectives(self):
        from repro.parallel.collectives import alltoall

        class FakeComm:
            size, rank = 2, 0

        with pytest.raises(CommunicatorError):
            alltoall(FakeComm(), [1], tag=0)


# ----------------------------------------------------------------------
# Tier-1 self-check: the package passes its own analyzer
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_registry_is_complete(self):
        names = {c.name for c in all_checkers()}
        assert names == {
            "determinism",
            "error-taxonomy",
            "lock-discipline",
            "async-hygiene",
            "broad-except",
            "monolith-assembly",
            "timing",
        }
        from repro.analysis import all_project_checkers

        project_names = {c.name for c in all_project_checkers()}
        assert project_names == {
            "transitive-blocking",
            "lock-order",
            "error-flow",
            "determinism-taint",
        }

    def test_package_is_clean_under_own_analyzer(self):
        report = analyze_paths([default_package_root()])
        assert report.findings == [], report.to_text()
