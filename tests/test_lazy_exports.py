"""Package exports resolve lazily, and the job path loads only what it runs.

Every ``repro`` package declares its public names in ``__all__`` and
imports the submodule behind a name on first access (``repro._lazy``).
These tests pin both halves of that contract: every exported name still
resolves, and a fresh process that runs one cold job per solver never
imports the editor, the daemon, the static analyzer, the bench-trend
code, the parallel transports or the stdlib network stack.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)

#: modules a serial cold job must never load
NOT_ON_JOB_PATH = (
    "repro.editor",
    "repro.server",
    "repro.analysis.engine",
    "repro.obs.alerts",
    "repro.obs.stats",
    "repro.service.shm",
    "repro.service.sweep",
    "repro.codegen.asmtext",
    "xml.sax",
    "http.client",
    "email",
    "ssl",
)

JOB_SCRIPT = """
import json, sys
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.runner import BatchRunner

cache = ProgramCache()
ok = []
for method in ("jacobi", "rb-gs", "rb-sor"):
    job = SimJob.from_dict({"method": method, "shape": [4, 4, 4],
                            "eps": 1e-3, "max_sweeps": 200,
                            "backend": "fast"})
    records, _summary = BatchRunner(workers=1, cache=cache).run([job])
    ok.append(records[0]["ok"])
print(json.dumps({"ok": ok, "modules": sorted(sys.modules)}))
"""

IMPORT_SCRIPT = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


PARSER_SCRIPT = """
import json, sys
from repro.cli import build_parser
build_parser()
print(json.dumps(sorted(sys.modules)))
"""


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_every_package_loads_no_submodule():
    assert {"repro.sim", "repro.service", "repro.editor"} <= set(PACKAGES)
    loaded = _run(IMPORT_SCRIPT, *PACKAGES)
    assert set(loaded) == set(PACKAGES) | {"repro._lazy"}


def test_job_path_import_footprint():
    result = _run(JOB_SCRIPT)
    assert result["ok"] == [True, True, True]
    loaded = set(result["modules"])
    assert "repro.service.runner" in loaded
    assert sorted(loaded & set(NOT_ON_JOB_PATH)) == []


def test_cli_parser_loads_neither_bench_nor_simulator():
    """``nsc-vpe info`` builds the whole parser: its choices come from
    :mod:`repro.choices`, not from the modules that use them."""
    loaded = set(_run(PARSER_SCRIPT))
    assert "repro.cli" in loaded
    assert sorted(loaded & {"repro.bench", "repro.sim.fastpath"}) == []


def test_cli_choices_are_the_modules_own():
    from repro import bench, choices
    from repro.sim import fastpath

    assert choices.SCENARIOS == bench.SCENARIOS
    assert choices.BACKENDS == fastpath.BACKENDS


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        namespace = {}
        exec(f"from {package} import {name}", namespace)
        assert namespace[name] is getattr(module, name)
    assert set(exported) <= set(dir(module))
    star = {}
    exec(f"from {package} import *", star)
    assert set(star) - {"__builtins__"} == set(exported)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
