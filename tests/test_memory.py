"""Pins on the memory a content takes: each content's bytes are held once.

Allocation sizes under ``tracemalloc`` are deterministic, so a test can
pin them where peak RSS could not.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from icnsim.ndn import Name, chunk_content, hash_stream

SRC = Path(__file__).resolve().parent.parent / "src"
MIB = 1 << 20


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it had allocated above its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - base


def test_hash_stream_builds_its_bytes_in_place():
    out, peak = traced_peak(hash_stream, b"v42:1080p", 2 * MIB)
    assert type(out) is bytes and len(out) == 2 * MIB
    # One buffer and its growth slack, not a buffer plus a copy of it.
    assert peak <= 1.25 * 2 * MIB


def test_segments_are_views_of_the_published_bytes():
    payload = hash_stream(b"clip", 2 * MIB)
    segs, peak = traced_peak(chunk_content, Name.parse("/cdn/clip/1080p"), payload, 8192)
    assert len(segs) == 256
    assert peak < 0.5 * MIB
    assert all(d.payload.obj is payload for d in segs)
    assert all(d.payload.readonly for d in segs)
    assert b"".join(d.payload for d in segs) == payload


def test_segments_of_a_bytearray_do_not_see_later_writes():
    buf = bytearray(hash_stream(b"clip", 20_000))
    segs = chunk_content(Name.parse("/cdn/clip/1080p"), buf, 8192)
    before = [bytes(d.payload) for d in segs]
    assert all(d.intact() for d in segs)
    buf[:] = bytes(len(buf))
    assert [bytes(d.payload) for d in segs] == before
    assert all(d.intact() for d in segs)
    assert len({hash(d) for d in segs}) == len(segs)  # frozen Data stays hashable


def test_importing_the_package_leaves_out_the_process_pool():
    code = "import sys, icnsim, icnsim.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
