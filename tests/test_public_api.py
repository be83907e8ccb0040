"""Public API surface tests: every exported name resolves and is documented."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.isa",
    "repro.workloads",
    "repro.dataflow",
    "repro.core",
    "repro.uarch",
    "repro.sim",
    "repro.analysis",
    "repro.harness",
]


@pytest.mark.parametrize("package", PACKAGES)
class TestExports:
    def test_imports(self, package):
        module = importlib.import_module(package)
        assert module is not None

    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_module_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} lacks a docstring"


class TestPublicCallablesDocumented:
    @pytest.mark.parametrize("package", PACKAGES[1:])
    def test_exported_callables_have_docstrings(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if callable(obj) and not isinstance(obj, type):
                if not getattr(obj, "__doc__", None):
                    undocumented.append(name)
        assert not undocumented, f"{package}: {undocumented}"

    @pytest.mark.parametrize("package", PACKAGES[1:])
    def test_exported_classes_have_docstrings(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if isinstance(obj, type) and not obj.__doc__:
                undocumented.append(name)
        assert not undocumented, f"{package}: {undocumented}"


class TestVersion:
    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2


def fresh_python(script: str) -> str:
    """Run ``script`` in a fresh interpreter on this tree; its stdout.

    A fresh interpreter keeps the test suite's own imports out of what
    the script observes in ``sys.modules``."""
    source = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return completed.stdout


class TestNoUndeclaredDependency:
    def test_no_module_imports_numpy(self):
        # pyproject.toml declares no runtime dependency, so importing
        # every module of the package must pull in no numpy.
        script = (
            "import importlib, pkgutil, sys, repro\n"
            "names = [m.name for m in pkgutil.walk_packages("
            "repro.__path__, 'repro.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "print(len(names), 'numpy' in sys.modules)\n"
        )
        modules, numpy_loaded = fresh_python(script).split()
        assert int(modules) > 50
        assert numpy_loaded == "False"

    def test_service_imports_no_simulator(self):
        # The job store, its journal and the service CLI read and write
        # the journal only: loading them must not load the harness, the
        # simulator, the braid compiler or the workloads.
        script = (
            "import sys, repro.service, repro.service.cli\n"
            "print(' '.join(sorted(m for m in sys.modules"
            " if m.startswith('repro'))))\n"
        )
        loaded = fresh_python(script).split()
        assert "repro.service.jobstore" in loaded
        heavy = ("repro.harness", "repro.sim", "repro.core",
                 "repro.workloads")
        assert [name for name in loaded
                if ".".join(name.split(".")[:2]) in heavy] == []
