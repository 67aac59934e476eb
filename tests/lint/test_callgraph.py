"""Call-graph construction: indexing, alias and method resolution.

The deep pass is only as good as its resolver — a call edge it cannot
see is a taint it cannot propagate — so these tests pin the resolution
cases the RP4xx/RP5xx rules depend on: same-module helpers, import
aliases (plain, ``from``-renamed, relative), ``self.``/``cls.`` method
dispatch through base classes across modules, and constructor calls.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.flow import build_call_graph


def write_tree(tmp_path, files: dict[str, str]):
    for name, body in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body))
    return tmp_path


def edges_of(graph, qualname):
    return [
        (site.callee, site.external)
        for site in graph.functions[qualname].calls
    ]


class TestIndexing:
    def test_functions_classes_and_methods_collected(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                def helper():
                    pass

                class Thing:
                    def method(self):
                        pass
                """
            },
        )
        graph = build_call_graph([str(tmp_path)])
        assert "mod.helper" in graph.functions
        assert "mod.Thing.method" in graph.functions
        assert graph.functions["mod.Thing.method"].class_name == "Thing"

    def test_package_modules_get_dotted_names(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/inner.py": "def f():\n    pass\n",
            },
        )
        graph = build_call_graph([str(tmp_path)])
        assert "pkg.inner.f" in graph.functions

    def test_mutable_globals_detected(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                CACHE = {}
                ITEMS = []
                SEEN = set()
                FROZEN = (1, 2)
                NAME = "x"
                """
            },
        )
        graph = build_call_graph([str(tmp_path)])
        index = graph.modules["mod"]
        assert index.mutable_globals == {"CACHE", "ITEMS", "SEEN"}

    def test_syntax_error_files_are_skipped(self, tmp_path):
        write_tree(
            tmp_path,
            {"bad.py": "def f(:\n", "good.py": "def g():\n    pass\n"},
        )
        graph = build_call_graph([str(tmp_path)])
        assert "good.g" in graph.functions
        assert not any(q.startswith("bad.") for q in graph.functions)


class TestResolution:
    def test_same_module_helper(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                def helper():
                    pass

                def caller():
                    helper()
                """
            },
        )
        graph = build_call_graph([str(tmp_path)])
        assert ("mod.helper", False) in edges_of(graph, "mod.caller")

    def test_import_alias_resolves_to_external_dotted(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                import random as r
                from time import time as now

                def f():
                    r.choice([1])
                    now()
                """
            },
        )
        graph = build_call_graph([str(tmp_path)])
        edges = edges_of(graph, "mod.f")
        assert ("random.choice", True) in edges
        assert ("time.time", True) in edges

    def test_cross_module_from_import(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def util():\n    pass\n",
                "pkg/b.py": """
                from pkg.a import util

                def f():
                    util()
                """,
            },
        )
        graph = build_call_graph([str(tmp_path)])
        assert ("pkg.a.util", False) in edges_of(graph, "pkg.b.f")

    @pytest.mark.parametrize(
        "init",
        [
            "from pkg.a import util\n",
            '_EXPORTS = {"pkg.a": ("util",)}\n',
        ],
        ids=["import", "export-table"],
    )
    def test_call_through_a_package_level_name(self, tmp_path, init):
        """A name the package re-exports, by import or by the lazy
        ``_EXPORTS`` table, resolves to its definition."""
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": init,
                "pkg/a.py": "def util():\n    pass\n",
                "pkg/b.py": """
                from pkg import util

                def f():
                    util()
                """,
            },
        )
        graph = build_call_graph([str(tmp_path)])
        assert ("pkg.a.util", False) in edges_of(graph, "pkg.b.f")

    def test_self_dispatch_within_class(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                class C:
                    def a(self):
                        self.b()

                    def b(self):
                        pass
                """
            },
        )
        graph = build_call_graph([str(tmp_path)])
        assert ("mod.C.b", False) in edges_of(graph, "mod.C.a")

    def test_self_dispatch_through_base_class_across_modules(
        self, tmp_path
    ):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/base.py": """
                class Base:
                    def inherited(self):
                        pass
                """,
                "pkg/sub.py": """
                from pkg.base import Base

                class Sub(Base):
                    def caller(self):
                        self.inherited()
                """,
            },
        )
        graph = build_call_graph([str(tmp_path)])
        assert ("pkg.base.Base.inherited", False) in edges_of(
            graph, "pkg.sub.Sub.caller"
        )

    def test_constructor_resolves_to_init(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                class C:
                    def __init__(self):
                        pass

                def f():
                    C()
                """
            },
        )
        graph = build_call_graph([str(tmp_path)])
        assert ("mod.C.__init__", False) in edges_of(graph, "mod.f")

    def test_unknown_names_stay_external(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                def f(x):
                    mystery(x)
                    x.frobnicate()
                """
            },
        )
        graph = build_call_graph([str(tmp_path)])
        edges = edges_of(graph, "mod.f")
        assert ("mystery", True) in edges
        assert ("x.frobnicate", True) in edges

    def test_generator_functions_marked(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                def gen():
                    yield 1

                def plain():
                    return [x for x in gen()]
                """
            },
        )
        graph = build_call_graph([str(tmp_path)])
        assert graph.functions["mod.gen"].is_generator
        assert not graph.functions["mod.plain"].is_generator
