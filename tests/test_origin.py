import pytest

from icnsim.origin import (CdnOrigin, DuplicateContent, DuplicateVariant,
                           ResolutionProfile, UnknownContent, synthesize_payload)

MIB = 1024 * 1024


def loaded_origin(on_cpu=None):
    o = CdnOrigin(transcode_rate_bps=20_000_000, on_cpu=on_cpu)
    o.upload("v42", synthesize_payload(42, "v42", 2 * MIB), "1080p")
    return o


def test_upload_two_megabytes():
    o = loaded_origin()
    assert o.get("v42", "1080p").size_bytes == 2_097_152
    assert o.uploads == 1


def test_duplicate_upload_rejected():
    o = loaded_origin()
    with pytest.raises(DuplicateContent):
        o.upload("v42", b"", "720p")


def test_zero_byte_upload_is_legal():
    o = CdnOrigin()
    obj = o.upload("empty", b"", "1080p")
    assert obj.size_bytes == 0
    assert o.stream("empty", "1080p") == b""


def test_transcode_half_scale_size_law():
    o = loaded_origin()
    out = o.transcode("v42", ResolutionProfile("720p", 0.5))
    assert out.size_bytes == 1_048_576
    assert o.get("v42", "720p").payload == out.payload


def test_transcode_deterministic_across_instances():
    a = loaded_origin().transcode("v42", ResolutionProfile("720p", 0.5))
    b = loaded_origin().transcode("v42", ResolutionProfile("720p", 0.5))
    assert a.payload == b.payload


def test_transcode_busy_time_division_oracle():
    charged = []
    o = loaded_origin(on_cpu=charged.append)
    o.transcode("v42", ResolutionProfile("720p", 0.5))
    # 2 MiB at 20 MB/s: 2097152 / 20e6 s = 104.8576 ms of simulated CPU.
    assert charged == [pytest.approx(104.8576, abs=1e-9)]


def test_transcode_errors():
    o = loaded_origin()
    with pytest.raises(UnknownContent):
        o.transcode("nope", ResolutionProfile("720p", 0.5))
    o.transcode("v42", ResolutionProfile("720p", 0.5))
    with pytest.raises(DuplicateVariant):
        o.transcode("v42", ResolutionProfile("720p", 0.5))
    with pytest.raises(DuplicateVariant):
        o.transcode("v42", ResolutionProfile("1080p", 1))


def test_scale_validation():
    with pytest.raises(ValueError):
        ResolutionProfile("x", 0)
    with pytest.raises(ValueError):
        ResolutionProfile("x", 1.5)
    assert ResolutionProfile("x", "1/3").scale.denominator == 3


def test_fractional_scale_floor():
    o = CdnOrigin()
    o.upload("c", b"z" * 10, "src")
    out = o.transcode("c", ResolutionProfile("low", "1/3"))
    assert out.size_bytes == 3  # floor(10/3)


def test_stream_returns_whole_payload():
    o = loaded_origin()
    full = o.stream("v42", "1080p")
    assert full is o.get("v42", "1080p").payload
    assert len(full) == 2 * MIB
    o.stream("v42", "1080p")
    assert o.streams == 2
    assert o.bytes_out == 4 * MIB


def test_stream_errors():
    o = loaded_origin()
    with pytest.raises(UnknownContent):
        o.stream("v42", "480p")
    with pytest.raises(UnknownContent):
        o.stream("ghost", "1080p")


def test_synthesize_payload_keyed_on_all_inputs():
    a = synthesize_payload(1, "v", 64)
    assert a == synthesize_payload(1, "v", 64)
    assert a != synthesize_payload(2, "v", 64)
    assert a != synthesize_payload(1, "w", 64)
    assert len(synthesize_payload(1, "v", 1000)) == 1000
