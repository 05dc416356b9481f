"""Meta-tests: public-API conventions hold across the whole package.

Deliverable-level guarantees: every public module, class and function is
documented; every package re-exports exactly what its ``__all__``
declares; the version string is sane.
"""

import importlib
import inspect
import pkgutil

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
