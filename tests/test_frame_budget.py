"""A pin on the Python frames the event loop enters on mini.

Frame counts are deterministic, so a test can pin them where a clock
could not. Each count is the number of Python ``call`` events inside
``Network.run_to_completion``, taken with ``sys.setprofile`` in a fresh
interpreter. A change to the packet path that adds or removes a frame
per packet moves these numbers; update them with the change and say
why. The counts must not depend on ``PYTHONHASHSEED``: names hash by
identity, and nothing may iterate a set of them into the event order.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MINI

SRC = Path(__file__).resolve().parent.parent / "src"

# 773 and 552 before names were interned, the forwarder returned
# (face, packet) pairs and only the linked node became a gateway; 524 and
# 504 before a content's payload became a memo read through a property
# (+1 per origin read: 2 in icn, 7 in cdn-only) and the population fed its
# interests to the forwarder and built its outstanding entries without a
# call of their own (-2 per issued interest: 6 in icn); 514 and 511 before
# a population built its content URI once rather than per record (-9 per
# record of a three-component name: 6 in each mode) and read the Data's
# memoized digest check rather than calling ``intact()`` (-1 per Data a
# consumer takes: 6 in icn).
FRAMES = {"icn": 454, "cdn-only": 457}

COUNT = r"""
import sys
from icnsim.harness import run_scenario
from icnsim.simnet import Network

engine = Network.run_to_completion
calls = 0


def profile(frame, event, arg):
    global calls
    if event == "call":
        calls += 1


def counted(self):
    sys.setprofile(profile)
    try:
        return engine(self)
    finally:
        sys.setprofile(None)


Network.run_to_completion = counted
run = run_scenario(sys.argv[1], None, ["mode=" + sys.argv[2]])
assert all(r.status == "ok" for r in run.records)
print(calls)
"""


def frames(mode: str, hashseed: str) -> int:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", COUNT, str(MINI), mode], env=env,
                         capture_output=True, text=True, check=True).stdout
    return int(out)


@pytest.mark.parametrize("mode", sorted(FRAMES))
def test_event_loop_frames_on_mini_are_pinned(mode):
    assert [frames(mode, seed) for seed in ("0", "1", "2")] == [FRAMES[mode]] * 3
