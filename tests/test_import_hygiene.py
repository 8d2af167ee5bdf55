"""Importing the entry points loads only ``repro`` and the standard library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
# multiprocessing aliases ``__main__`` as ``__mp_main__``; that is not an import.
PROBE = """
import sys
before = set(sys.modules)
import repro.cli, repro.campaign, repro.distrib, repro.runtime.batch, repro.sim.tracing
new = [name for name in set(sys.modules) - before if sys.modules[name] is not sys.modules["__main__"]]
print("\\n".join(sorted({name.split(".")[0] for name in new})))
"""


@pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"), reason="needs Python 3.10+")
def test_entry_points_load_only_stdlib_and_repro():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "repro" in loaded
    foreign = [name for name in loaded if name != "repro" and name not in sys.stdlib_module_names]
    assert foreign == []


RUN_PROBE = """
import sys
from repro.cli import main
main(["campaign", "run", "ci-smoke", "--store", sys.argv[1]])
print("repro.telemetry.export" in sys.modules)
"""


def test_campaign_run_without_trace_out_skips_the_exporters(tmp_path):
    """The progress line loads ``repro.telemetry.live``, never the
    exporters behind ``--trace-out`` and ``repro obs``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    stdout = subprocess.run(
        [sys.executable, "-c", RUN_PROBE, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert stdout.splitlines()[-1] == "False"
