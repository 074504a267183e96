"""Tests for the whole-program graph builder and the content-hash cache."""

import textwrap
import time

import pytest

import repro
from pathlib import Path

from repro.exceptions import ToolingError
from repro.tooling.project import (
    AnalysisCache,
    Project,
    build_project,
    collect_aliases,
    content_hash,
    module_name_for,
    normalize_module,
    resolve_relative_base,
    summarize_module,
)

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def summarize(module_path, source):
    return summarize_module(module_path, textwrap.dedent(source))


class TestModuleNames:
    def test_module_name_keeps_init(self):
        assert module_name_for("src/repro/camera/__init__.py") == (
            "repro.camera.__init__"
        )

    def test_module_name_outside_repro_is_empty(self):
        assert module_name_for("/tmp/scratch/fixture.py") == ""

    def test_normalize_strips_init(self):
        assert normalize_module("repro.camera.__init__") == "repro.camera"
        assert normalize_module("repro.camera.sensor") == "repro.camera.sensor"

    def test_relative_base_resolution(self):
        assert resolve_relative_base("repro.camera.sensor", 1) == "repro.camera"
        assert resolve_relative_base("repro.camera.sensor", 2) == "repro"
        assert resolve_relative_base("repro.camera.sensor", 3) is None
        assert resolve_relative_base("", 1) is None


class TestAliases:
    def test_relative_import_resolves_against_module(self):
        tree_src = textwrap.dedent(
            """
            from . import sensor
            from ..phy import bands
            from .timing import RollingShutter
            """
        )
        import ast

        aliases = collect_aliases(ast.parse(tree_src), "repro.camera.model")
        assert aliases["sensor"] == "repro.camera.sensor"
        assert aliases["bands"] == "repro.phy.bands"
        assert aliases["RollingShutter"] == "repro.camera.timing.RollingShutter"


class TestSummaries:
    def test_function_qualnames_are_single_depth(self):
        summary = summarize(
            "pkg/repro/link/mod.py",
            '''
            """F."""
            def outer():
                def inner():
                    return 1
                return inner

            class Box:
                def method(self):
                    return 2
            ''',
        )
        names = {fn.qualname for fn in summary.functions}
        assert names == {
            "repro.link.mod.<module>",
            "repro.link.mod.outer",
            "repro.link.mod.outer.inner",
            "repro.link.mod.Box.method",
        }
        by_name = {fn.qualname: fn for fn in summary.functions}
        assert by_name["repro.link.mod.outer.inner"].nested
        assert not by_name["repro.link.mod.outer"].nested
        assert not by_name["repro.link.mod.Box.method"].nested

    def test_calls_resolve_through_imports(self):
        summary = summarize(
            "pkg/repro/link/mod.py",
            '''
            """F."""
            import time
            from repro.util.rng import make_rng

            def go():
                make_rng(7)
                return time.time()
            ''',
        )
        fn = {f.qualname: f for f in summary.functions}["repro.link.mod.go"]
        targets = {c.target for c in fn.calls}
        assert "repro.util.rng.make_rng" in targets
        assert "time.time" in targets

    def test_raise_targets(self):
        summary = summarize(
            "pkg/repro/rx/mod.py",
            '''
            """F."""
            from repro.exceptions import LinkError

            def go(exc):
                try:
                    raise LinkError("x")
                except LinkError as caught:
                    raise
                raise RuntimeError("y")
            ''',
        )
        targets = [r.target for r in summary.raises]
        assert "repro.exceptions.LinkError" in targets
        assert None in targets  # the bare re-raise
        assert "RuntimeError" in targets

    def test_set_iteration_detected(self):
        summary = summarize(
            "pkg/repro/link/mod.py",
            '''
            """F."""
            def go(items):
                for x in {1, 2, 3}:
                    pass
                return [y for y in set(items)]
            ''',
        )
        assert len(summary.set_iterations) == 2

    def test_sorted_set_not_flagged(self):
        summary = summarize(
            "pkg/repro/link/mod.py",
            '''
            """F."""
            def go(items):
                for x in sorted(set(items)):
                    pass
            ''',
        )
        assert summary.set_iterations == ()

    def test_syntax_error_raises_tooling_error(self):
        with pytest.raises(ToolingError, match="cannot summarize"):
            summarize_module("pkg/repro/link/bad.py", "def broken(:\n")

    def test_dataclass_fields_extracted(self):
        summary = summarize(
            "pkg/repro/link/mod.py",
            '''
            """F."""
            from dataclasses import dataclass
            from typing import Callable, Tuple

            @dataclass
            class Spec:
                seed: int
                hook: Callable
            ''',
        )
        cls = summary.classes[0]
        assert cls.is_dataclass
        fields = {f.name: f for f in cls.fields}
        assert "typing.Callable" in fields["hook"].annotation_names


class TestProjectResolution:
    def test_reexport_resolves_through_package_init(self):
        init = summarize(
            "pkg/repro/faults/__init__.py",
            '''
            """F."""
            from repro.faults.base import FaultInjector
            ''',
        )
        base = summarize(
            "pkg/repro/faults/base.py",
            '''
            """F."""
            class FaultInjector:
                pass
            ''',
        )
        project = Project([init, base])
        assert project.resolve("repro.faults.FaultInjector") == (
            "repro.faults.base.FaultInjector"
        )

    def test_unknown_names_come_back_unchanged(self):
        project = Project([])
        assert project.resolve("numpy.zeros") == "numpy.zeros"
        assert project.resolve(None) is None

    def test_real_tree_indexes_key_symbols(self):
        project = build_project(PACKAGE_ROOT, cache=AnalysisCache())
        assert "repro.perf.runtime.run_specs_resilient" in project.functions
        assert project.resolve("repro.link.simulator.RunSpec") in project.classes


class TestAnalysisCache:
    def test_summary_hit_and_miss_counters(self):
        cache = AnalysisCache()
        src = '"""F."""\nX = 1\n'
        cache.summary("pkg/repro/util/mod.py", src)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.summary("pkg/repro/util/mod.py", src)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_content_change_invalidates(self):
        cache = AnalysisCache()
        cache.summary("pkg/repro/util/mod.py", '"""F."""\nX = 1\n')
        cache.summary("pkg/repro/util/mod.py", '"""F."""\nX = 2\n')
        assert cache.misses == 2

    def test_findings_keyed_by_rule_signature(self):
        cache = AnalysisCache()
        digest = content_hash("x")
        cache.store_findings("p.py", digest, [], signature="a,b")
        assert cache.findings("p.py", digest, signature="a,b") == ()
        assert cache.findings("p.py", digest, signature="<all>") is None

    def test_clear_resets_everything(self):
        cache = AnalysisCache()
        cache.summary("pkg/repro/util/mod.py", '"""F."""\n')
        cache.clear()
        assert (cache.hits, cache.misses) == (0, 0)
        cache.summary("pkg/repro/util/mod.py", '"""F."""\n')
        assert cache.misses == 1


class TestCacheSpeedup:
    def test_warm_build_is_at_least_3x_faster_than_cold(self):
        # Mirrors the PR 5 overhead test style: a pinned, generous bound so
        # the assertion survives noisy CI boxes while still proving the
        # cache skips re-parsing.  Cold parses ~90 files; warm is pure
        # dict lookups and must beat it by far more than 3x.
        cache = AnalysisCache()
        t0 = time.perf_counter()
        build_project(PACKAGE_ROOT, cache=cache)
        cold = time.perf_counter() - t0
        misses_after_cold = cache.misses
        t1 = time.perf_counter()
        build_project(PACKAGE_ROOT, cache=cache)
        warm = time.perf_counter() - t1
        assert cache.misses == misses_after_cold, "warm build re-parsed files"
        assert cache.hits >= misses_after_cold
        assert warm * 3 <= cold, (
            f"warm build not >=3x faster: cold={cold:.4f}s warm={warm:.4f}s"
        )
