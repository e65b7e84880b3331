import json
from fractions import Fraction

import pytest

from icnsim import origin as origin_mod
from icnsim.harness import run_scenario
from icnsim.ndn import compute_digest
from icnsim.origin import (CdnOrigin, DuplicateContent, DuplicateVariant, UnknownContent,
                           synthesize_payload)
from icnsim.simnet import Host, Network

from conftest import MINI, counter_stream

MIB = 1024 * 1024
HALF = Fraction(1, 2)


def loaded_origin(on_cpu=None):
    o = CdnOrigin(transcode_rate_bps=20_000_000, on_cpu=on_cpu)
    o.upload("v42", synthesize_payload(42, "v42", 2 * MIB), "1080p")
    return o


def test_upload_two_megabytes():
    o = loaded_origin()
    assert o.get("v42", "1080p").size_bytes == 2_097_152
    assert o.catalog() == [("v42", "1080p")]


def test_duplicate_upload_rejected():
    o = loaded_origin()
    with pytest.raises(DuplicateContent):
        o.upload("v42", b"", "720p")


def test_zero_byte_upload_is_legal():
    o = CdnOrigin()
    obj = o.upload("empty", b"", "1080p")
    assert obj.size_bytes == 0
    assert o.stream(o.get("empty", "1080p")) == b""


def test_transcode_half_scale_size_law():
    o = loaded_origin()
    out = o.transcode("v42", "720p", HALF)
    assert out.size_bytes == 1_048_576
    assert o.get("v42", "720p").payload == out.payload


def test_transcode_deterministic_across_instances():
    a = loaded_origin().transcode("v42", "720p", HALF)
    b = loaded_origin().transcode("v42", "720p", HALF)
    assert a.payload == b.payload


def test_transcode_busy_time_division_oracle():
    charged = []
    o = loaded_origin(on_cpu=charged.append)
    o.transcode("v42", "720p", HALF)
    # 2 MiB at 20 MB/s: 2097152 / 20e6 s = 104.8576 ms of simulated CPU.
    assert charged == [pytest.approx(104.8576, abs=1e-9)]


def test_transcode_errors():
    o = loaded_origin()
    with pytest.raises(UnknownContent):
        o.transcode("nope", "720p", HALF)
    o.transcode("v42", "720p", HALF)
    with pytest.raises(DuplicateVariant):
        o.transcode("v42", "720p", HALF)
    with pytest.raises(DuplicateVariant):
        o.transcode("v42", "1080p", Fraction(1))


def test_fractional_scale_floor():
    o = CdnOrigin()
    o.upload("c", b"z" * 10, "src")
    out = o.transcode("c", "low", Fraction(1, 3))
    assert out.size_bytes == 3  # floor(10/3)


def test_stream_returns_whole_payload():
    o = loaded_origin()
    obj = o.get("v42", "1080p")
    full = o.stream(obj)
    assert full is obj.payload
    assert len(full) == 2 * MIB
    assert o.stream(obj) is full


def test_stream_errors():
    o = loaded_origin()
    with pytest.raises(UnknownContent):
        o.get("v42", "480p")
    with pytest.raises(UnknownContent):
        o.get("ghost", "1080p")


def test_synthesize_payload_keyed_on_all_inputs():
    a = synthesize_payload(1, "v", 64)
    assert a == synthesize_payload(1, "v", 64)
    assert a != synthesize_payload(2, "v", 64)
    assert a != synthesize_payload(1, "w", 64)
    assert len(synthesize_payload(1, "v", 1000)) == 1000


@pytest.fixture
def stream_calls(monkeypatch):
    """Every ``hash_stream`` call the origin module makes, as (key, length)."""
    calls = []
    real = origin_mod.hash_stream

    def counted(key, length):
        calls.append((key, length))
        return real(key, length)

    monkeypatch.setattr(origin_mod, "hash_stream", counted)
    return calls


def test_transcode_synthesizes_nothing_and_meters_as_eager(stream_calls):
    charged = []
    o = loaded_origin(on_cpu=charged.append)
    host = Host(Network(), "o", origin=o)
    del stream_calls[:]  # the upload's own synthesis
    src = o.get("v42", "1080p")
    out = o.transcode("v42", "720p", HALF)
    assert stream_calls == []
    eager = counter_stream(src.digest + b"720p", MIB)
    assert out.size_bytes == len(eager) == MIB
    assert o.store_bytes == 2 * MIB + len(eager)
    assert host.mem_bytes() == 2 * MIB + len(eager)
    assert charged == [pytest.approx(2 * MIB / 20_000_000 * 1000.0, abs=1e-9)]


def test_variant_payload_made_once_on_first_read(stream_calls):
    o = loaded_origin()
    src = o.get("v42", "1080p")
    out = o.transcode("v42", "360p", Fraction(1, 3))
    del stream_calls[:]
    first = out.payload
    assert stream_calls == [(src.digest + b"360p", 2 * MIB // 3)]
    assert first == counter_stream(src.digest + b"360p", 2 * MIB // 3)
    assert out.payload is first
    assert o.stream(o.get("v42", "360p")) is first
    assert len(stream_calls) == 1
    assert out.digest == compute_digest(first)


def test_unrequested_variant_is_never_synthesized(stream_calls, tmp_path):
    doc = json.loads(MINI.read_text())
    doc["northbound"].insert(2, {"op": "transcode", "slice": "c1",
                                 "content_id": "clip", "tag": "360p"})
    path = tmp_path / "mini-360p.json"
    path.write_text(json.dumps(doc))
    for mode in ("icn", "cdn-only"):
        del stream_calls[:]
        run = run_scenario(path, None, ["mode=" + mode])
        assert stream_calls == [(b"7:clip:16384", 16384)]
        assert [r.status for r in run.records] == ["ok"] * 6
