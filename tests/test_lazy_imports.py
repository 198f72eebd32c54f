"""What ``import repro.experiments`` loads, and the lazy re-exports.

The benchmark's ``setup_s`` clock starts with a fresh interpreter
importing ``repro.experiments``; it must load the campaign stack and
nothing a campaign never runs (DESIGN.md §12.4).  The packages that
re-export off-path submodules do so lazily (PEP 562); these tests pin
that every exported name still resolves to its defining object.
Each check runs in a fresh interpreter, since by the time a test runs
the suite has usually imported every submodule already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CAMPAIGN_STACK = [
    "repro.experiments.runner",
    "repro.experiments.scenarios",
    "repro.core.pipeline",
    "repro.traces.columnar",
    "repro.traces.cache",
    "repro.faults.attacks",
    "repro.faults.errors",
    "repro.faults.injector",
]

OFF_PATH = [
    "repro.experiments.figures",
    "repro.experiments.tables",
    "repro.experiments.ablations",
    "repro.experiments.journal",
    "repro.baselines",
    "repro.hmm",
    "repro.resilience.chaos",
    "repro.resilience.checkpoint",
    "repro.resilience.fuzz",
    "repro.resilience.supervisor",
    "repro.analysis.serialization",
    "repro.sensornet.simulator",
    "repro.sensornet.network",
]

LAZY_PACKAGES = [
    "repro.experiments",
    "repro.analysis",
    "repro.resilience",
    "repro.sensornet",
    "repro.traces",
]


def _fresh_python(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_the_campaign_stack_only():
    loaded = _fresh_python(
        "import json, sys\n"
        "import repro.experiments\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    missing = [name for name in CAMPAIGN_STACK if name not in loaded]
    stray = [name for name in OFF_PATH if name in loaded]
    assert missing == []
    assert stray == []


_CHECK_PACKAGE = """
import importlib, json, pkgutil
package = importlib.import_module(PACKAGE)
names = list(package.__all__)
listed = dir(package)
values = {name: getattr(package, name) for name in names}
# Only now load every submodule and find who holds each name.
submodules = [info.name for info in pkgutil.iter_modules(package.__path__)]
modules = [importlib.import_module(PACKAGE + "." + sub) for sub in submodules]
mismatched, orphans = [], []
for name, value in values.items():
    holders = [m for m in modules if name in vars(m)]
    if not holders:
        # Defined in the package itself (``cached_scenario``).
        if getattr(value, "__module__", None) != PACKAGE:
            orphans.append(name)
    elif any(vars(m)[name] is not value for m in holders):
        mismatched.append(name)
star = {}
exec("from " + PACKAGE + " import *", star)
print(json.dumps({
    "undirred": [n for n in names if n not in listed],
    "mismatched": mismatched,
    "orphans": orphans,
    "unbound": [n for n in names if n not in star],
    "shadowing": sorted(set(names) & set(submodules)),
    "duplicates": len(names) - len(set(names)),
}))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_are_the_defining_objects(package):
    found = _fresh_python(f"PACKAGE = {package!r}\n" + _CHECK_PACKAGE)
    # dir() lists every export; each resolves to the very object its
    # submodule holds; a star import binds them all; and no export is
    # named like a submodule (importing it would rebind the name).
    assert found == {
        "undirred": [],
        "mismatched": [],
        "orphans": [],
        "unbound": [],
        "shadowing": [],
        "duplicates": 0,
    }


def test_unknown_name_raises_attribute_error():
    import repro.experiments

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.experiments.no_such_name


def test_lazy_submodule_reads_as_attribute():
    import repro.analysis
    import repro.analysis.serialization as serialization

    assert repro.analysis.serialization is serialization
