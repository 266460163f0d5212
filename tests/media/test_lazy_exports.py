"""``import repro`` imports neither numpy nor OpenSSL.

``media.edge`` and ``media.ppm`` are the only numpy importers under
``src/`` and no scenario calls them, so ``repro.media`` resolves their
names on first use.  Everything the CLI, the check suite and the
runner import must stay clear of numpy (12 MB of RSS and ~40 ms of
set-up on every workload pass) and of ``hashlib``, whose ``_hashlib``
maps libcrypto (~3.7 MB): ``sim/rng.py`` takes SHA-256 from the
interpreter's built-in module.
"""

import os
import subprocess
import sys

import repro.media

PROBE = """
import sys
import repro.cli, repro.check, repro.experiments.runner
assert repro.experiments.runner.registered_scenarios()
assert "numpy" not in sys.modules, "numpy imported eagerly"
for native in ("_hashlib", "_ssl"):
    assert native not in sys.modules, native + " (OpenSSL) imported"
from repro.media import kirsch
assert "numpy" in sys.modules and callable(kirsch)
"""


def test_importing_the_cli_and_runner_maps_neither_numpy_nor_openssl():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run([sys.executable, "-c", PROBE],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_every_exported_name_resolves():
    for name in repro.media.__all__:
        assert getattr(repro.media, name) is not None
