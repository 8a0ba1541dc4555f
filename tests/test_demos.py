"""Smoke test: every demo runs and prints exactly its recorded output.

Each script in ``demos/`` runs in a child process that imports the
``qeuler`` under test, and its exit code and the sha256 of its stdout
are compared with digests recorded from a known-good build.  When a
digest differs, diff the demo's output against that build rather than
updating the digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qeuler

_DEMOS = Path(__file__).resolve().parents[1] / "demos"

DIGESTS = {
    "convexity_checks.py": "750df490d7bfe27825e0673acb6cee180b151276eca4f0ede3ee138c52666c40",
    "moment_inversion.py": "87e997a2e06d618e86ea17ab4b2989fb19d5c7b032383b09d8190d059e2cd0dc",
    "orthogonal_polynomials.py": "f135a3031d407fa50c9e8825f3f3e25fb18da4950974c0c386c0f01cf1cfba7c",
    "production_matrix.py": "b0a256a0eff4fb39ea4b9d05ab64b03f0b2c93acf622f8da2132e32dd4dda16a",
    "three_routes.py": "83a9671dd89afa578e9b00b728e6c88bd2f996f4277d38bf9e644c417f351f48",
    "transform_experiments.py": "b4a277e504051497d1503a1246f50dd8efd4f69e5f9b16f3c76173ad3bf84320",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in _DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_golden(name):
    # the child imports the qeuler under test, whether or not it is installed
    src = str(Path(qeuler.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(_DEMOS / name)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
