import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from icnsim.ndn import Name, chunk_content, compute_digest, hash_stream

from conftest import counter_stream


def reassemble(segments):
    return b"".join(d.payload for d in segments)


def test_two_megabyte_content_chunks_to_256_segments():
    # ceil-division oracle: 2097152 / 8192 == 256 exactly.
    base = Name.parse("/cdn/v42/720p")
    payload = hash_stream(b"video", 2_097_152)
    segs = chunk_content(base, payload, 8192, freshness_ms=60_000)
    assert len(segs) == 256
    assert all(d.final_segment == 255 for d in segs)
    assert [d.name.seg_number() for d in segs] == list(range(256))
    assert reassemble(segs) == payload
    assert all(compute_digest(d.payload) == d.digest for d in segs)


# SHA-256's padding edges (55, 56 and 64 bytes), one digest (32 bytes),
# one segment (8192) and a 2 MiB content.
DIGEST_SIZES = [0, 1, 31, 32, 33, 55, 56, 64, 8192, 2 * 1024 * 1024]


@pytest.mark.parametrize("size", DIGEST_SIZES)
def test_digests_equal_hashlib(size):
    payload = counter_stream(b"digest", size)
    assert compute_digest(payload) == hashlib.sha256(payload).digest()
    assert hash_stream(b"digest", size) == payload
    # hash_stream hashes the key plus an 8-byte counter: with a key of
    # ``size - 8`` bytes, each message it hashes is ``size`` bytes long.
    key = payload[: max(0, size - 8)]
    assert hash_stream(key, 64) == counter_stream(key, 64)


def test_digest_of_memoryview_slice_equals_hashlib():
    # Segments are read-only views into one content's bytes.
    payload = hash_stream(b"view", 3 * 8192 + 5)
    for d in chunk_content(Name.parse("/v"), payload, 8192, 0):
        assert type(d.payload) is memoryview
        assert d.digest == hashlib.sha256(bytes(d.payload)).digest()
        assert compute_digest(d.payload) == d.digest
    view = memoryview(payload)[100:9000]
    assert compute_digest(view) == hashlib.sha256(payload[100:9000]).digest()


def test_ceil_split():
    segs = chunk_content(Name.parse("/a"), b"z" * 8193, 8192, 0)
    assert [len(d.payload) for d in segs] == [8192, 1]
    assert all(d.final_segment == 1 for d in segs)


def test_empty_payload_single_empty_segment():
    segs = chunk_content(Name.parse("/a"), b"", 8192, 0)
    assert len(segs) == 1
    assert segs[0].payload == b""
    assert segs[0].final_segment == 0
    assert segs[0].name.seg_number() == 0


def test_chunk_size_must_be_positive():
    with pytest.raises(ValueError):
        chunk_content(Name.parse("/a"), b"x", 0, 0)


def test_reassembly_over_random_sizes_and_chunk_sizes():
    rng = random.Random(99)
    base = Name.parse("/c")
    sizes = [0, 1, 6, 7, 8, 8191, 8192, 8193, 70_000] + \
        [rng.randrange(0, 1 << 20) for _ in range(4)]
    for size in sizes:
        payload = hash_stream(b"s%d" % size, size)
        for chunk in (1, 7, 8192):
            if size > 200_000 and chunk < 100:
                continue  # keep the suite fast; coverage preserved below 200k
            segs = chunk_content(base, payload, chunk, 0)
            assert len(segs) == max(1, -(-size // chunk))
            assert reassemble(segs) == payload
            assert all(d.final_segment == len(segs) - 1 for d in segs)


def test_hash_stream_deterministic_and_sized():
    assert hash_stream(b"k", 100) == hash_stream(b"k", 100)
    assert hash_stream(b"k", 100) != hash_stream(b"q", 100)
    assert len(hash_stream(b"k", 0)) == 0
    assert len(hash_stream(b"k", 33)) == 33
    # Prefix property: longer streams extend shorter ones.
    assert hash_stream(b"k", 100)[:64] == hash_stream(b"k", 64)


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 8191, 8192, 8193, 2 * 1024 * 1024])
def test_hash_stream_matches_counter_formula(n):
    out = hash_stream(b"v42:1080p", n)
    assert type(out) is bytes and len(out) == n
    assert out == counter_stream(b"v42:1080p", n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.binary(max_size=80), st.integers(0, 3000))
def test_hash_stream_matches_counter_formula_on_draws(key, n):
    assert hash_stream(key, n) == counter_stream(key, n)
