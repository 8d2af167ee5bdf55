"""What a process imports: only ``repro`` and the standard library, and
only the subsystems it calls.

Package ``__init__``\\ s resolve their exported names on first use
(``repro._exports``), so a fully cached ``campaign run`` never loads the
simulator, the batch engine or ``multiprocessing``.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Every subpackage's ``__init__`` is a lazy export table, except
#: ``repro.telemetry``'s, which holds the switch every path calls.
LAZY_PACKAGES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg and info.name != "repro.telemetry"
)

#: What a run that executes no trial must never load.
TRIAL_MACHINERY = (
    "repro.uarch.core",
    "repro.memory.mmu",
    "repro.sim.machine",
    "repro.runtime.batch",
    "repro.whisper.attacks",
    "multiprocessing",
)


def _python(code: str, *args: str) -> str:
    """Run *code* in a fresh interpreter with ``src`` importable."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout


# multiprocessing aliases ``__main__`` as ``__mp_main__``; that is not an
# import.  Resolving every export reaches every module a package names,
# not just the few the entry points load on their own.
PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import repro, repro.cli, repro.campaign, repro.distrib, repro.runtime.batch, repro.sim.tracing
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.ispkg:
        package = importlib.import_module(info.name)
        for name in package.__all__:
            getattr(package, name)
new = [name for name in set(sys.modules) - before if sys.modules[name] is not sys.modules["__main__"]]
print("\\n".join(sorted({name.split(".")[0] for name in new})))
"""


@pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"), reason="needs Python 3.10+")
def test_entry_points_load_only_stdlib_and_repro():
    loaded = _python(PROBE).split()
    assert "repro" in loaded
    foreign = [name for name in loaded if name != "repro" and name not in sys.stdlib_module_names]
    assert foreign == []


# Every submodule is imported before any name is looked up: a submodule
# binds itself as a package attribute when it loads, so an export that
# shares its module's name (``repro.defend.calibrate``) must still come
# out as the exported object, not the module.
EXPORTS_PROBE = """
import importlib, pkgutil, sys, types
package = importlib.import_module(sys.argv[1])
assert "__getattr__" in vars(package), "not a lazy export table"
assert set(package.__all__) <= set(dir(package)), "dir() misses unresolved names"
for info in pkgutil.iter_modules(package.__path__):
    importlib.import_module(f"{package.__name__}.{info.name}")
names = package.__all__
assert len(set(names)) == len(names), "a name is exported twice"
for name in names:
    assert not isinstance(getattr(package, name), types.ModuleType), name
namespace = {}
exec(f"from {package.__name__} import *", namespace)
assert set(names) <= set(namespace), set(names) - set(namespace)
try:
    package.no_such_export
except AttributeError:
    print("ok")
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports(package):
    """Every ``__all__`` name is in ``dir()`` and resolves (once, never
    to a module), ``from package import *`` works, and an unknown name raises
    ``AttributeError`` -- so a typo in an export table fails here, not
    in a user's import."""
    assert _python(EXPORTS_PROBE, package).split() == ["ok"]


LOADED = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def _cli_modules(*argv: str) -> set:
    """The modules a fresh ``repro`` process holds after running *argv*
    (which must exit 0)."""
    code, *modules = _python(LOADED, *argv).split()
    assert code == "0"
    return set(modules)


def test_campaign_run_without_trace_out_skips_the_exporters(tmp_path):
    """The progress line loads ``repro.telemetry.live``, never the
    exporters behind ``--trace-out`` and ``repro obs``."""
    loaded = _cli_modules("campaign", "run", "ci-smoke", "--store", str(tmp_path))
    assert "repro.telemetry.live" in loaded
    assert "repro.telemetry.export" not in loaded


def test_cached_rerun_and_status_load_no_simulator(tmp_path):
    store = str(tmp_path)
    _cli_modules("campaign", "run", "ci-smoke", "--store", store)
    for argv in (
        ("campaign", "run", "ci-smoke", "--store", store, "--require-cached", "1.0"),
        ("campaign", "status", "ci-smoke", "--store", store),
    ):
        loaded = _cli_modules(*argv)
        assert "repro.campaign.report" in loaded
        assert [name for name in TRIAL_MACHINERY if name in loaded] == [], argv


def test_cold_in_process_lanes_run_loads_no_multiprocessing(tmp_path):
    loaded = _cli_modules(
        "campaign", "run", "ci-smoke", "--store", str(tmp_path), "--lanes", "4"
    )
    assert "repro.runtime.batch" in loaded
    assert "multiprocessing" not in loaded


def test_shard_worker_loads_no_asyncio(tmp_path):
    loaded = _cli_modules(
        "campaign", "shard", "ci-smoke", "--index", "0", "--of", "2",
        "--store", str(tmp_path),
    )
    assert "repro.distrib.shard" in loaded
    assert "asyncio" not in loaded


KASLR_TRIAL = """
import sys
from repro.kernel.layout import slot_base
from repro.runtime.spec import MachineSpec
from repro.runtime.tasks import KaslrTrial, run_trial
trial = KaslrTrial(MachineSpec("i7-7700", seed=3, kpti=True), slot_base(7), False, 0)
print(run_trial(trial).cycles > 0, "repro.whisper.attacks" in sys.modules)
"""


def test_kaslr_trial_loads_no_attack_classes():
    """A worker runs a KASLR trial from its kind's schedule and the probe
    program; the attack classes, which import ``repro.runtime.tasks``
    themselves, stay unloaded."""
    assert _python(KASLR_TRIAL).split() == ["True", "False"]
