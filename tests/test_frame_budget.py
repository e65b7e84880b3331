"""A pin on the Python frames the event loop enters on mini.

Frame counts are deterministic, so a test can pin them where a clock
could not. Each count is the number of Python ``call`` events inside
``Network.run_to_completion``, taken with ``sys.setprofile`` by
``tools/pathcount.py`` (frames only) in a fresh interpreter. A change to the packet path that adds or removes a frame
per packet moves these numbers; update them with the change and say
why. The counts must not depend on ``PYTHONHASHSEED``: names hash by
identity, and nothing may iterate a set of them into the event order.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MINI

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PATHCOUNT = ROOT / "tools" / "pathcount.py"

# 773 and 552 before names were interned, the forwarder returned
# (face, packet) pairs and only the linked node became a gateway; 524 and
# 504 before a content's payload became a memo read through a property
# (+1 per origin read: 2 in icn, 7 in cdn-only) and the population fed its
# interests to the forwarder and built its outstanding entries without a
# call of their own (-2 per issued interest: 6 in icn); 514 and 511 before
# a population built its content URI once rather than per record (-9 per
# record of a three-component name: 6 in each mode) and read the Data's
# memoized digest check rather than calling ``intact()`` (-1 per Data a
# consumer takes: 6 in icn); 454 and 457 before a delivery event called the
# receiving host's ``receive`` directly (-1 per delivery: 18 in icn, 36 in
# cdn-only) and, in icn, the forwarder admitted an interest inline (-14),
# read the content store only when it holds something (-8), built the PIT
# entry without ``__init__`` (-10), read the Data's digest memo in
# ``on_data`` (-6) and inserted into the store without ``cs_insert`` (-8),
# while a content-store miss now goes through one ``_miss`` step (+10);
# 400 and 421 before an IP request looked its origin object up once (-1
# per request an origin serves: 1 in icn, 6 in cdn-only) and both periodic
# ticks asked one ``live`` predicate (+1 per tick that asks it: 2 in each
# mode).
FRAMES = {"icn": 401, "cdn-only": 417}

def frames(mode: str, hashseed: str) -> int:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, str(PATHCOUNT), str(MINI), "--set", "mode=" + mode,
                          "--top", "0"], env=env, capture_output=True, text=True,
                         check=True).stdout
    totals = json.loads(out.splitlines()[-1])
    assert totals["ok"] == totals["requests"] > 0
    return totals["frames"]


@pytest.mark.parametrize("mode", sorted(FRAMES))
def test_event_loop_frames_on_mini_are_pinned(mode):
    assert [frames(mode, seed) for seed in ("0", "1", "2")] == [FRAMES[mode]] * 3
