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
# mode); 401 in icn before the gateway appended its publish record to the
# network's list rather than calling a per-host hook (-1 per publish: 1 in
# icn); 400 and 417 before each host held its own links, so that removing
# a link pops it from both endpoints rather than filtering two adjacency
# lists in list comprehensions (-2 per link removed: 3 at slice expiry in
# each mode); 394 in icn before ``make_data`` marked each Data it builds
# intact, so that no node calls ``intact()`` and ``compute_digest`` on a
# published segment again (-2 per published segment: 2 in icn); 390 and
# 411 before the gateway became a producer on a face of a plain forwarder
# and the content-store miss was folded into ``on_interest`` (icn +17: each
# of the 2 segments the gateway answers now takes the forwarder's FIB
# lookup, whose prefix names are built afresh, a decrement, an ``on_data``
# and a store insert at the gateway, while the ``_miss`` step (-8), the
# PIT scan of ``_drain`` (-6) and the gateway's lookup helpers are gone),
# and an origin recorded the digest of the object it sends, so that no IP
# receiver hashes it again (-1 per distinct payload: 1 in each mode); 407
# and 410 before the sampler built each row as a tuple rather than a
# ``Sample`` (-1 per row sampled in the loop: 4 in each mode) and swept a
# PIT only when it holds entries (-1 per empty PIT at a tick: 3 in icn, 1
# in cdn-only), an IP hop read its outgoing link from the route cache
# rather than through ``next_hop`` and ``_routes_from`` (-2 per hop on a
# cached route, -1 on the hop that fills it: -68 over 36 hops in cdn-only,
# -3 over 2 in icn), and the FIB was keyed by prefix components, so that a
# lookup at the FIB's depth builds no prefix ``Name`` (icn -78: each of 6
# memo misses built 4 prefix names and their intern-table entries); 319 in
# icn before the content store found stale entries through its per-freshness
# queues, so that an insert no longer calls ``_stale_from`` and ``_evict``
# (-2 per insert at a node with capacity: 4 in icn); 311 and 337 before a
# run came to end at the event that ends its last request or origin fetch
# (+1 ``close_work`` per request and per fetch: 7 in icn, 6 in cdn-only),
# so that the sampler tick at 1,000 ms, the scale tick at 10,000 ms and the
# two slice expiries at 600,000 ms are no longer simulated and no tick asks
# a ``live`` predicate (-47 in icn, -44 in cdn-only).
FRAMES = {"icn": 271, "cdn-only": 299}

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
