"""Byte pins for the built-in campaigns: spec digests, and the report
artifacts a fresh in-process run writes.

A report is a function of its spec alone, so these digests move only
when a change means to move them.  CI pins some of the same files from
the command line; these run in the test suite.  Every built-in campaign
and every ``ledger/specs.py`` generator is also built and counted here.
"""

import hashlib
import importlib.util
from functools import partial
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignRunner,
    ResultStore,
    builtin_campaign,
    builtin_names,
    spec_digest,
)

LEDGER_SPECS = Path(__file__).resolve().parent.parent / "ledger" / "specs.py"

SPEC_DIGESTS = {
    "ci-smoke": "c2d55f491aaae6a9b3a385fb6f3716aeca3f387da1b183e46d49bba1cf00a125",
    "e11-detect": "b12cb3b05b11dbbe8149373fc06681e91933cf9c8b44e98ec9d8c90e8134f217",
    "e3-matrix": "2d23cb1feff4eaa53f6754266686839b7d3a4f92e58bf6f6800258bc5236b572",
    "e8-throughput": "8d98f853b025b7116e3fd6399aec129109a8067b8459dfb83ff06bed13f361c3",
    "e9-kaslr": "9022c74d9bc3ea8e1e765b2588831eecb5f41e4199b4b55c193ca37ba45ae9f3",
}

#: sha256 of ``report.json`` and ``report.txt`` from a fresh store.
REPORT_DIGESTS = {
    "ci-smoke": (
        "a7dfca0953dc5f03bd2e365560aee1b86ea5f8fcbff324d20caa76de2b949f66",
        "8511a923e00c69346ac3a6f5cdabe24141f18c6f9e5fcaf813be18c459acbfe1",
    ),
    "e9-kaslr": (
        "6b7d1755f3a06f8ef5702cccd429eec1c0d7f2d7a9faa17b4b6a7d02dad8686f",
        "0a578f9fcdb597e1a13b77b443ca533cfe49764fe7bb994166c227a8f1674484",
    ),
    "e11-detect": (
        "8c33d776211c05d8ae9260e0f1cdf33b9ba2ce77f8045a75f2b443bdf2914ca1",
        "f75b2d58e459bca96101a3f2c1eb1ccf80cc1b6be9d92d5c717ae0f42eef787b",
    ),
    "e3-matrix": (
        "f0887dbcb461e15af04cabff21a7b57143439251d1a246cba8511817126cd73a",
        "a3d69ab7dbb3ef1755454b0ad2f047214ba23f37f9ab41bd4ed690f2ded9eee9",
    ),
}

#: sha256 of ci-smoke's ``results.jsonl`` in a fresh store.
CI_SMOKE_RESULTS = "db40513b5d583fc64b353b3eb8978bbf2576ff2a806365cb9c92633b7b18f1d7"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ledger_specs():
    found = importlib.util.spec_from_file_location("ledger_specs", LEDGER_SPECS)
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    return module


def _every_spec():
    """A factory for every built-in and ledger spec (seeds 1-3)."""
    specs = [
        pytest.param(partial(builtin_campaign, name), id=name)
        for name in builtin_names()
    ]
    ledger = _ledger_specs()
    for kind, generator in ledger.GENERATORS.items():
        for seed in (1, 2, 3):
            name = ledger.spec_name(kind, seed)
            specs.append(pytest.param(partial(generator, seed), id=name))
    return specs


def test_builtin_spec_digests():
    assert {name: spec_digest(builtin_campaign(name)) for name in builtin_names()} == (
        SPEC_DIGESTS
    )


@pytest.mark.parametrize("factory", _every_spec())
def test_spec_builds_and_counts_its_expansion(factory):
    """Every built-in and ledger spec still builds (its cells pass their
    constructors' checks), and ``trial_count`` says what ``expand`` yields."""
    spec = factory()
    assert spec.trial_count() == len(spec.expand()) > 0


@pytest.mark.parametrize(
    "name",
    ["ci-smoke", "e9-kaslr", "e11-detect", pytest.param("e3-matrix", marks=pytest.mark.slow)],
)
def test_report_bytes(name, tmp_path):
    report, _ = CampaignRunner(
        builtin_campaign(name), store=ResultStore(str(tmp_path / "store"))
    ).run()
    report.write_json(str(tmp_path / "report.json"))
    report.write_text(str(tmp_path / "report.txt"))
    assert (_sha256(tmp_path / "report.json"), _sha256(tmp_path / "report.txt")) == (
        REPORT_DIGESTS[name]
    )
    if name == "ci-smoke":
        assert _sha256(tmp_path / "store" / "results.jsonl") == CI_SMOKE_RESULTS
