"""Meta-tests: public-API conventions hold across the whole package.

Deliverable-level guarantees: every public module, class and function is
documented; every package re-exports exactly what its ``__all__``
declares; the version string is sane; a study imports only what it runs.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.coevolution",
    "repro.corpus",
    "repro.diff",
    "repro.heartbeat",
    "repro.io",
    "repro.migrate",
    "repro.mining",
    "repro.obs",
    "repro.perf",
    "repro.pipeline",
    "repro.querydep",
    "repro.report",
    "repro.schema",
    "repro.smo",
    "repro.sqlparser",
    "repro.stats",
    "repro.taxa",
    "repro.vcs",
]


def all_modules():
    names = set(PACKAGES)
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                names.add(f"{package_name}.{info.name}")
    return sorted(names)


class TestDocstrings:
    @pytest.mark.parametrize("module_name", all_modules())
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_symbols_documented(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in getattr(package, "__all__", []):
            symbol = getattr(package, name)
            if inspect.isclass(symbol) or inspect.isfunction(symbol):
                if not inspect.getdoc(symbol):
                    undocumented.append(name)
        assert not undocumented, (
            f"{package_name}: undocumented public symbols {undocumented}"
        )


class TestAllExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_no_duplicate_all_entries(self, package_name):
        package = importlib.import_module(package_name)
        exported = list(getattr(package, "__all__", []))
        assert len(exported) == len(set(exported)), package_name


class TestVersion:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)


class TestImportBudget:
    def test_study_and_report_load_no_scipy_or_networkx(self, tmp_path):
        """The study path imports neither scipy nor networkx.

        scipy serves only ``compare_studies`` and networkx only the
        ``querydep`` dependency graph.  A fresh interpreter with networkx
        blocked, as on a host without it, imports the pipeline, runs a
        12-project study and its report, and must have loaded neither.
        """
        script = textwrap.dedent("""
            import sys
            sys.modules["networkx"] = None
            from repro.pipeline.graph import Pipeline
            from repro.pipeline.store import DirStore
            pipe = Pipeline(seed=1952023, projects=12,
                            store=DirStore(sys.argv[1]))
            pipe.study()
            pipe.report()
            print(sorted(
                name for name, module in sys.modules.items()
                if module is not None
                and name.split(".")[0] in ("scipy", "networkx")
            ))
        """)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_STORE_DIR", None)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
