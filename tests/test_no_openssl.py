"""A run loads no OpenSSL.

Payload digests use CPython's built-in SHA-256. Importing ``hashlib``
loads ``_hashlib``, which maps OpenSSL into the process for about 3.7 MiB
of resident memory, the largest single part of a run's peak RSS. The
check runs ``mini`` in both modes in a fresh interpreter, because
``conftest.py`` imports ``hashlib`` into this one.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import MINI

SRC = MINI.parent.parent / "src"

RUN_BOTH_MODES = """
import json, sys, tempfile
from icnsim import ndn
from icnsim.cli import main
with tempfile.TemporaryDirectory() as tmp:
    codes = [main(["run", sys.argv[1], "--out", tmp + "/" + mode, "--mode", mode])
             for mode in ("icn", "cdn-only")]
print(json.dumps({"exit": codes, "sha256": type(ndn.sha256()).__module__,
                  "loaded": sorted(m for m in ("_hashlib", "ssl") if m in sys.modules)}))
"""


@pytest.mark.skipif(not (importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256")),
                    reason="this Python build has no built-in SHA-256 module")
def test_mini_runs_in_both_modes_without_openssl():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", RUN_BOTH_MODES, str(MINI)], env=env,
                         capture_output=True, text=True, check=True).stdout
    got = json.loads(out.splitlines()[-1])
    assert got["exit"] == [0, 0]
    assert got["sha256"] in ("_sha2", "_sha256")
    assert got["loaded"] == []
