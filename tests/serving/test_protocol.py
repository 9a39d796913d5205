"""Property suite for the network tier's framing and message codec.

The wire layer's contract (pinned here with hypothesis): any message
round-trips exactly through ``encode → frame → split-arbitrarily →
decode``; any malformed input — truncated frames, oversized or
zero-length headers, garbage payloads, corrupted packed arrays — raises
*typed* errors from :mod:`repro.errors` and nothing else.  Raw
``struct`` / ``json`` / ``UnicodeDecodeError`` exceptions escaping the
codec would crash a server connection handler; the catch-all assertions
below make that a test failure instead of a production incident.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CodecError, FrameError
from repro.serving.protocol import (
    HEADER,
    MAX_FRAME_BYTES,
    FrameDecoder,
    MessageCodec,
    encode_frame,
    pack_array,
    unpack_array,
)

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# JSON-safe scalar leaves (allow_nan=False on the wire, so finite only).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)

_messages = st.dictionaries(
    st.text(min_size=1, max_size=20),
    st.recursive(
        _scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(st.text(max_size=10), children, max_size=5),
        ),
        max_leaves=20,
    ),
    max_size=8,
)

_arrays = st.one_of(
    st.builds(
        lambda dtype, values: np.array(values, dtype=dtype),
        st.sampled_from(["<f8", "<f4", "<i8", "<i4", "<u1", ">f8"]),
        st.lists(st.integers(min_value=0, max_value=100), max_size=30),
    ),
    st.builds(
        lambda seed, rows, cols: np.random.default_rng(seed).random((rows, cols)),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    ),
)


class TestRoundTrip:
    @SETTINGS
    @given(message=_messages, chunk=st.integers(min_value=1, max_value=7))
    def test_any_message_survives_any_chunking(self, message, chunk):
        """encode → frame → feed in arbitrary slices → decode == original."""
        codec = MessageCodec()
        wire = encode_frame(codec.encode(message)) * 3  # three frames back to back
        decoder = FrameDecoder()
        frames = []
        for start in range(0, len(wire), chunk):
            frames.extend(decoder.feed(wire[start : start + chunk]))
        decoder.assert_drained()
        assert len(frames) == 3
        assert all(codec.decode(f) == json.loads(json.dumps(message)) for f in frames)

    @SETTINGS
    @given(array=_arrays)
    def test_packed_arrays_are_byte_identical(self, array):
        out = unpack_array(json.loads(json.dumps(pack_array(array))))
        assert out.dtype == np.asarray(array).dtype
        assert out.shape == array.shape
        assert out.tobytes() == np.asarray(array).tobytes()

    def test_nested_message_round_trips(self):
        message = {"op": "answer", "id": 7, "nested": {"xs": [1, 2.5, None, "s"]}}
        codec = MessageCodec()
        assert codec.decode(codec.encode(message)) == message


class TestFrameViolations:
    def test_truncated_frame_is_reported_at_eof(self):
        wire = encode_frame(b"hello")
        decoder = FrameDecoder()
        assert decoder.feed(wire[:-2]) == []
        assert decoder.pending_bytes == len(wire) - 2
        with pytest.raises(FrameError):
            decoder.assert_drained()

    def test_zero_length_frame_rejected(self):
        with pytest.raises(FrameError):
            FrameDecoder().feed(HEADER.pack(0) + b"x")
        with pytest.raises(FrameError):
            encode_frame(b"")

    def test_oversized_frame_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame=64)
        with pytest.raises(FrameError):
            decoder.feed(HEADER.pack(65))
        with pytest.raises(FrameError):
            encode_frame(b"x" * 65, max_frame=64)
        assert len(encode_frame(b"x" * 64, max_frame=64)) == HEADER.size + 64

    def test_default_cap_matches_module_constant(self):
        with pytest.raises(FrameError):
            FrameDecoder().feed(HEADER.pack(MAX_FRAME_BYTES + 1))

    @SETTINGS
    @given(data=st.binary(max_size=200))
    def test_garbage_bytes_never_raise_raw_exceptions(self, data):
        """Arbitrary bytes: frames split fine or fail with FrameError; any
        completed payload decodes or fails with CodecError — nothing else."""
        decoder = FrameDecoder(max_frame=1024)
        codec = MessageCodec()
        try:
            frames = decoder.feed(data)
            decoder.assert_drained()
        except FrameError:
            return
        for payload in frames:
            try:
                message = codec.decode(payload)
            except CodecError:
                continue
            assert isinstance(message, dict)

    @SETTINGS
    @given(data=st.binary(max_size=200))
    def test_garbage_payloads_decode_to_codec_error_only(self, data):
        try:
            message = MessageCodec().decode(data)
        except CodecError:
            return
        assert isinstance(message, dict)

    def test_non_object_payloads_are_codec_errors(self):
        for payload in (b"[1,2,3]", b"[]", b'"str"', b"17", b"null", b"true"):
            with pytest.raises(CodecError):
                MessageCodec().decode(payload)

    def test_unencodable_messages_are_codec_errors(self):
        codec = MessageCodec()
        with pytest.raises(CodecError):
            codec.encode({"x": float("nan")})
        with pytest.raises(CodecError):
            codec.encode({"x": object()})
        with pytest.raises(CodecError):
            codec.encode(["not", "a", "dict"])  # type: ignore[arg-type]
        with pytest.raises(FrameError):
            encode_frame("not bytes")  # type: ignore[arg-type]


class TestPackedArrayValidation:
    @SETTINGS
    @given(
        array=_arrays,
        field=st.sampled_from(["dtype", "shape", "b64"]),
        junk=st.sampled_from([None, "garbage", -1, ["?"], "!!!not-b64!!!"]),
    )
    def test_corrupting_any_field_is_a_codec_error(self, array, field, junk):
        packed = pack_array(array)
        packed[field] = junk
        with pytest.raises(CodecError):
            unpack_array(packed)

    def test_byte_count_mismatch_rejected(self):
        packed = pack_array(np.arange(4, dtype=np.float64))
        packed["shape"] = [5]
        with pytest.raises(CodecError):
            unpack_array(packed)

    def test_negative_dimension_rejected(self):
        packed = pack_array(np.arange(4, dtype=np.float64))
        packed["shape"] = [-4]
        with pytest.raises(CodecError):
            unpack_array(packed)

    @pytest.mark.parametrize(
        "dtype, shape, raw, message",
        [
            ("<f8", [2**32, 2**32], b"", f"need {8 * 2**64}$"),  # int64 wraps to 0
            ("<f8", [2**63 - 1, 2], b"", f"need {16 * (2**63 - 1)}$"),  # wraps negative
            ("|O", [1], bytes(8), "cannot be read"),
            ("|S0", [3], b"", "cannot be read"),
        ],
        ids=["int64-wraps-to-zero", "int64-wraps-negative", "object", "zero-itemsize"],
    )
    def test_unreadable_shape_or_dtype_is_a_codec_error(self, dtype, shape, raw, message):
        packed = {"dtype": dtype, "shape": shape, "b64": base64.b64encode(raw).decode()}
        with pytest.raises(CodecError, match=message):
            unpack_array(packed)

    def test_non_dict_rejected(self):
        with pytest.raises(CodecError):
            unpack_array([1, 2, 3])

    def test_zero_dim_and_empty_arrays_round_trip(self):
        for array in (np.float64(3.5).reshape(()), np.empty((0, 4), dtype=np.int32)):
            out = unpack_array(pack_array(np.asarray(array)))
            assert out.shape == np.asarray(array).shape
            assert out.tobytes() == np.asarray(array).tobytes()

