"""The disk cache is shared across processes: entries must load by value.

Endpoints cache their hash, and a ``str`` hash differs between processes
with different ``PYTHONHASHSEED`` values.  An endpoint that carried its
writer's hash into a pickle would make every wiring lookup in the loading
process miss, so a disk-cached program would look unwired.  This test
writes a compiled Jacobi program to a :class:`ProgramCache` directory in
one process and reads it back in another with a different hash seed,
which must see the writer's microword fields and fingerprint.

The plain enums on the compile path hash by identity, which differs
between processes too: dicts and sets keyed by their members must load
by value in a process with another hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

WRITER = """
import json, sys
from repro.arch.node import NodeConfig
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program
from repro.service.cache import ProgramCache

node = NodeConfig()
setup = build_jacobi_program(node, (6, 6, 6), eps=1e-4, max_iterations=50)
program = MicrocodeGenerator(node).generate(setup.program)
ProgramCache(sys.argv[1]).get_or_compile("jacobi6", lambda: (setup, program))
print(json.dumps({
    "fields": [image.microword.nonzero_fields() for image in program.images],
    "fingerprint": program.fingerprint(),
}))
"""

READER = """
import json, sys
from repro.arch.node import NodeConfig
from repro.arch.switch import DeviceKind, Endpoint, fu_in
from repro.checker.checker import Checker
from repro.service.cache import ProgramCache

def not_cached():
    raise SystemExit("disk entry missing")

cache = ProgramCache(sys.argv[1])
setup, program = cache.get_or_compile("jacobi6", not_cached)
drivers = found = 0
for diagram in setup.program.pipelines:
    for source, sink in diagram.connections:
        if sink.kind is DeviceKind.FU:
            drivers += 1
            found += diagram.driver_of(fu_in(sink.device, sink.port)) == source
reads = hits = 0
for image in program.images:
    for ep in image.read_programs:
        reads += 1
        hits += Endpoint(ep.kind, ep.device, ep.port) in image.read_programs
report = Checker(NodeConfig()).check_program(setup.program)
print(json.dumps({
    "disk_hits": cache.stats.disk_hits,
    "drivers": drivers, "found": found, "reads": reads, "hits": hits,
    "errors": len(report.errors),
    "fields": [image.microword.nonzero_fields() for image in program.images],
    "fingerprint": program.fingerprint(),
}))
"""


def _run(script: str, seed: int, cache_dir: Path) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, str(cache_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_disk_entry_loads_under_another_hash_seed(tmp_path):
    written = json.loads(_run(WRITER, 1, tmp_path).splitlines()[-1])
    result = json.loads(_run(READER, 2, tmp_path).splitlines()[-1])
    assert result["disk_hits"] == 1
    assert result["drivers"] > 0 and result["found"] == result["drivers"]
    assert result["reads"] > 0 and result["hits"] == result["reads"]
    assert result["errors"] == 0
    assert all(written["fields"])
    assert result["fields"] == written["fields"]
    assert result["fingerprint"] == written["fingerprint"]


ENUMS = """
from repro.arch.als import ALSKind
from repro.arch.dma import Direction
from repro.arch.funcunit import Opcode
from repro.arch.interrupts import InterruptKind
from repro.arch.switch import DeviceKind
from repro.checker.diagnostics import Severity
from repro.diagram.pipeline import InputModKind

ENUMS = (Opcode, DeviceKind, InputModKind, ALSKind, Direction, Severity,
         InterruptKind)
"""

ENUM_WRITER = ENUMS + """
import json, pickle, sys
keyed = {cls.__name__: ({m: m.value for m in cls}, set(cls)) for cls in ENUMS}
with open(sys.argv[1] + "/enums.pkl", "wb") as fh:
    pickle.dump(keyed, fh)
print(json.dumps({name: list(d.values()) for name, (d, _s) in keyed.items()}))
"""

ENUM_READER = ENUMS + """
import json, pickle, sys
with open(sys.argv[1] + "/enums.pkl", "rb") as fh:
    keyed = pickle.load(fh)
report = {}
for cls in ENUMS:
    by_member, members = keyed[cls.__name__]
    report[cls.__name__] = {
        "identity_hash": cls.__hash__ is object.__hash__,
        "lookups": all(by_member[m] == m.value for m in cls),
        "members": all(m in members for m in cls) and members == set(cls),
        "keys_are_members": all(cls(k.value) is k for k in by_member),
        "values": [by_member[m] for m in cls],
    }
print(json.dumps(report))
"""


def test_enum_keyed_maps_load_under_another_hash_seed(tmp_path):
    written = json.loads(_run(ENUM_WRITER, 1, tmp_path).splitlines()[-1])
    report = json.loads(_run(ENUM_READER, 2, tmp_path).splitlines()[-1])
    assert set(report) == set(written) and len(report) == 7
    for name, facts in report.items():
        assert facts["identity_hash"], name
        assert facts["lookups"] and facts["members"], name
        assert facts["keys_are_members"], name
        assert facts["values"] == written[name], name
