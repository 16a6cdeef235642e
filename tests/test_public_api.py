"""Public-API hygiene: exports resolve, docstrings exist, version sane."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro


class TestTopLevelExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_quickstart_surface(self):
        # The API the README's first snippet relies on.
        from repro import GPUSystem, TxScheme, make_app, table1_config

        assert callable(GPUSystem)
        assert callable(make_app)
        assert TxScheme.ICACHE_LDS.value == "icache+lds"
        assert table1_config().gpu.num_cus == 8

    def test_simulates_with_no_third_party_packages(self):
        # pyproject declares no runtime dependencies; a simulation and an
        # analytical estimate must run with numpy unimportable.
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.cli import main\n"
            "assert main(['run', 'NW', '--scale', '0.02']) == 0\n"
            "assert main(['estimate', 'table2', '--compare', '--scale', "
            "'0.02', '--apps', 'NW']) == 0\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


def _walk_modules():
    return [
        name
        for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not name.endswith("__main__")
    ]


class TestModuleHygiene:
    @pytest.mark.parametrize("module_name", _walk_modules())
    def test_module_imports_and_is_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_every_subpackage_reachable(self):
        names = set(_walk_modules())
        for expected in (
            "repro.core.translation",
            "repro.pagetable.iommu",
            "repro.workloads.registry",
            "repro.experiments.report",
            "repro.analysis.summary",
            "repro.gpu.command_processor",
        ):
            assert expected in names


class TestPublicDocstrings:
    @pytest.mark.parametrize(
        "cls_path",
        [
            "repro.system.GPUSystem",
            "repro.core.translation.TranslationService",
            "repro.core.reconfig_lds.LDSTxCache",
            "repro.core.reconfig_icache.ReconfigurableICache",
            "repro.core.fill_flow.VictimFillFlow",
            "repro.pagetable.iommu.IOMMU",
            "repro.gpu.lds.LocalDataShare",
            "repro.gpu.icache.InstructionCache",
            "repro.baselines.ducati.DucatiStore",
        ],
    )
    def test_core_classes_documented(self, cls_path):
        module_name, _, cls_name = cls_path.rpartition(".")
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert cls.__doc__ and len(cls.__doc__) > 20

    def test_public_methods_documented(self):
        from repro.core.translation import TranslationService
        from repro.system import GPUSystem

        for cls in (TranslationService, GPUSystem):
            for name, member in vars(cls).items():
                if callable(member) and not name.startswith("_"):
                    assert member.__doc__, f"{cls.__name__}.{name} undocumented"
