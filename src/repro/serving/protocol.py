"""The network serving tier's framing and message codec.

Wire format: every message is one **frame** — a 4-byte big-endian
unsigned length prefix followed by exactly that many payload bytes.  The
payload is one *message*: a UTF-8 JSON object.  Each connection keeps
one :class:`MessageCodec` per side, and the hello exchange carries the
protocol version.

Error discipline: the decoding surface raises **only** typed errors from
:mod:`repro.errors` — :class:`~repro.errors.FrameError` for framing
violations (zero/oversized lengths, stray trailing bytes at EOF) and
:class:`~repro.errors.CodecError` for payloads that are complete frames
but not valid messages.  Raw ``struct`` / ``json`` / ``UnicodeDecodeError``
exceptions never escape; the property suite in
``tests/serving/test_protocol.py`` feeds this layer arbitrary garbage to
pin that.

Query answers are NumPy arrays and must survive the wire **byte for
byte** (the serving tier's contract is byte-identity with
``cluster.answer``).  :func:`pack_array` therefore ships the raw little-
endian buffer base64-encoded together with dtype and shape
(``{"dtype", "shape", "b64"}``); :func:`unpack_array` reconstructs an
identical array.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import struct
from typing import Any, Dict, List

import numpy as np

from repro.errors import CodecError, FrameError

#: Frame header: one big-endian u32 payload length.
HEADER = struct.Struct(">I")

#: Default ceiling on a single frame's payload (16 MiB).  A peer that
#: announces a bigger frame is protocol-broken or hostile; the decoder
#: rejects the header before buffering anything.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Protocol revision carried in the hello exchange.
PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(payload: bytes, *, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Wrap encoded payload bytes in a length-prefixed frame."""
    if not isinstance(payload, (bytes, bytearray, memoryview)):
        raise FrameError(f"frame payload must be bytes, got {type(payload).__name__}")
    payload = bytes(payload)
    if len(payload) == 0:
        raise FrameError("refusing to encode an empty frame")
    if len(payload) > max_frame:
        raise FrameError(f"frame of {len(payload)} bytes exceeds the {max_frame}-byte cap")
    return HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame splitter for a byte stream.

    Feed it whatever chunks arrive on the socket; it returns the payload
    of every frame completed so far and buffers the rest.  Violations —
    a zero-length frame, a length above *max_frame* — raise
    :class:`~repro.errors.FrameError` immediately (the stream position
    is unrecoverable after that; close the connection).
    :meth:`assert_drained` reports leftover bytes at EOF as the
    truncated frame they are.
    """

    def __init__(self, *, max_frame: int = MAX_FRAME_BYTES):
        self._max_frame = int(max_frame)
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[bytes]:
        """Consume *data*; return every completed frame payload, in order."""
        self._buffer.extend(data)
        frames: List[bytes] = []
        while len(self._buffer) >= HEADER.size:
            (length,) = HEADER.unpack_from(self._buffer)
            if length == 0:
                raise FrameError("zero-length frame")
            if length > self._max_frame:
                raise FrameError(
                    f"announced frame of {length} bytes exceeds the "
                    f"{self._max_frame}-byte cap"
                )
            if len(self._buffer) < HEADER.size + length:
                break
            frames.append(bytes(self._buffer[HEADER.size : HEADER.size + length]))
            del self._buffer[: HEADER.size + length]
        return frames

    def assert_drained(self) -> None:
        """Raise :class:`~repro.errors.FrameError` if EOF split a frame."""
        if self._buffer:
            raise FrameError(
                f"stream ended mid-frame with {len(self._buffer)} buffered byte(s)"
            )


# ----------------------------------------------------------------------
# message codec
# ----------------------------------------------------------------------
class MessageCodec:
    """Encode/decode one message (a dict) to/from JSON frame payload bytes.

    Each side of a connection holds its own instance, so instrumentation
    that wraps :meth:`encode`/:meth:`decode` can tell connections apart.
    """

    def encode(self, message: Dict[str, Any]) -> bytes:
        """Message dict → payload bytes (exceptions become CodecError)."""
        if not isinstance(message, dict):
            raise CodecError(f"message must be a dict, got {type(message).__name__}")
        try:
            return json.dumps(message, separators=(",", ":"), allow_nan=False).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise CodecError(f"message not encodable as JSON: {exc}") from exc

    def decode(self, payload: bytes) -> Dict[str, Any]:
        """Payload bytes → message dict; anything else is a CodecError."""
        try:
            message = json.loads(payload.decode("utf-8"))
        except Exception as exc:  # noqa: BLE001 - every decoder failure is typed here
            raise CodecError(f"undecodable JSON payload: {exc}") from exc
        if not isinstance(message, dict):
            raise CodecError(
                f"top-level message must be an object, got {type(message).__name__}"
            )
        return message


# ----------------------------------------------------------------------
# array transport
# ----------------------------------------------------------------------
def pack_array(array: np.ndarray) -> Dict[str, Any]:
    """A NumPy array as a JSON-safe dict, bytes preserved exactly."""
    # np.asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
    # and would silently change the answer's shape.  tobytes() already
    # yields C-order bytes for any layout.
    array = np.asarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "b64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def unpack_array(obj: Any) -> np.ndarray:
    """Inverse of :func:`pack_array`; malformed input is a CodecError."""
    if not isinstance(obj, dict):
        raise CodecError(f"packed array must be a dict, got {type(obj).__name__}")
    if not isinstance(obj.get("dtype"), str):
        # np.dtype(None) silently means float64; require the explicit str.
        raise CodecError(f"packed array dtype must be a string, got {obj.get('dtype')!r}")
    try:
        dtype = np.dtype(obj["dtype"])
        shape = tuple(int(n) for n in obj["shape"])
        raw = base64.b64decode(obj["b64"], validate=True)
    except (KeyError, TypeError, ValueError, binascii.Error) as exc:
        raise CodecError(f"malformed packed array: {exc}") from exc
    if any(n < 0 for n in shape):
        raise CodecError(f"negative dimension in packed array shape {shape}")
    # Python ints: an int64 product wraps, and a wrapped count can match.
    expected = dtype.itemsize * math.prod(shape)
    if len(raw) != expected:
        raise CodecError(
            f"packed array carries {len(raw)} bytes, dtype/shape need {expected}"
        )
    try:
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    except ValueError as exc:  # object, zero-size and subarray dtypes
        raise CodecError(f"packed array dtype {dtype.str!r} cannot be read: {exc}") from exc
