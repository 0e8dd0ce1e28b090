"""Every shipped example must run cleanly (smoke, small sizes)."""

import re
import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestExamples:
    def test_quickstart(self):
        proc = _run("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "saxpy result verified" in proc.stdout
        assert "checker: clean" in proc.stdout

    def test_jacobi3d(self):
        proc = _run("jacobi3d.py", "6")
        assert proc.returncode == 0, proc.stderr
        assert "converged: True" in proc.stdout
        assert "max |diff|: 0.000e+00" in proc.stdout

    def test_editor_tour(self):
        proc = _run("editor_tour.py")
        assert proc.returncode == 0, proc.stderr
        assert "Fig. 8" in proc.stdout
        assert "final check: clean" in proc.stdout
        assert "illegal wire: ok=False" in proc.stdout

    def test_multinode(self):
        proc = _run("multinode_jacobi.py", "1", "6")
        assert proc.returncode == 0, proc.stderr
        assert "converged: True" in proc.stdout
        assert "GFLOPS" in proc.stdout

    def test_multinode_fast_prints_what_reference_prints(self):
        """The fast stencil's only non-test reader: its results, gathered
        grid and busiest router link print as the reference run's do,
        apart from the backend's name and the host wall time."""
        def printed(backend):
            proc = _run("multinode_jacobi.py", "1", "6", backend)
            assert proc.returncode == 0, proc.stderr
            out = re.sub(r" \([0-9.]+s host wall\)", "", proc.stdout)
            return out.replace(f"backend {backend}", "backend")

        fast = printed("fast")
        assert "busiest link" in fast
        assert fast == printed("reference")

    def test_solver_comparison(self):
        proc = _run("solver_comparison.py", "6")
        assert proc.returncode == 0, proc.stderr
        assert "rb-sor(1.5)" in proc.stdout
