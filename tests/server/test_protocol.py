"""Wire protocol unit tests: framing and GET response layout."""

import socket
import struct
import threading

import pytest

from repro.server.protocol import (
    count_get_page,
    decode_add_signature,
    decode_get_page,
    decode_request,
    encode_add_request,
    encode_get_page_response,
    encode_request,
    pack_signature_record,
    read_frame,
    write_frame,
)
from repro.util.errors import ProtocolError


def socket_pair():
    a, b = socket.socketpair()
    a.settimeout(2.0)
    b.settimeout(2.0)
    return a, b


class TestFraming:
    def test_round_trip(self):
        a, b = socket_pair()
        try:
            write_frame(a, b"hello world")
            assert read_frame(b) == b"hello world"
        finally:
            a.close()
            b.close()

    def test_multiple_frames_in_order(self):
        a, b = socket_pair()
        try:
            for payload in (b"one", b"two", b"three"):
                write_frame(a, payload)
            assert read_frame(b) == b"one"
            assert read_frame(b) == b"two"
            assert read_frame(b) == b"three"
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket_pair()
        a.close()
        try:
            assert read_frame(b) is None
        finally:
            b.close()

    def test_truncated_header_raises(self):
        a, b = socket_pair()
        try:
            a.sendall(b"\x00\x00")  # half a header
            a.close()
            with pytest.raises(ProtocolError):
                read_frame(b)
        finally:
            b.close()

    def test_truncated_body_raises(self):
        a, b = socket_pair()
        try:
            a.sendall(struct.pack(">I", 100) + b"short")
            a.close()
            with pytest.raises(ProtocolError):
                read_frame(b)
        finally:
            b.close()

    def test_oversized_declared_length_rejected(self):
        a, b = socket_pair()
        try:
            a.sendall(struct.pack(">I", 1 << 31))
            with pytest.raises(ProtocolError):
                read_frame(b)
        finally:
            a.close()
            b.close()

    def test_large_frame_round_trip(self):
        a, b = socket_pair()
        payload = bytes(range(256)) * 4096  # 1 MiB
        received = {}

        def reader():
            received["data"] = read_frame(b)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            write_frame(a, payload)
            thread.join(5.0)
            assert received["data"] == payload
        finally:
            a.close()
            b.close()


class TestRequests:
    def test_request_round_trip(self):
        payload = encode_request({"op": "GET", "from_index": 7})
        assert decode_request(payload) == {"op": "GET", "from_index": 7}

    def test_add_request_carries_blob(self):
        blob = b"\x00\x01binary"
        request = decode_request(encode_add_request(blob, "tok"))
        assert request["op"] == "ADD"
        assert request["token"] == "tok"
        assert decode_add_signature(request) == blob

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(b"{nope")

    def test_missing_op_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(b'{"from_index": 0}')

    def test_bad_base64_rejected(self):
        with pytest.raises(ProtocolError):
            decode_add_signature({"op": "ADD", "signature": "!!!not-base64!!!"})


def page(next_index, blobs, more=False):
    return encode_get_page_response(
        next_index, len(blobs), [pack_signature_record(b) for b in blobs], more
    )


class TestGetResponse:
    def test_round_trip(self):
        blobs = [b"alpha", b"", b"gamma" * 100]
        next_index, decoded, more = decode_get_page(page(42, blobs, more=True))
        assert next_index == 42
        assert decoded == blobs
        assert more is True

    def test_count_without_materializing(self):
        assert count_get_page(page(7, [b"a", b"b"])) == (7, 2, False)

    def test_empty_response(self):
        assert decode_get_page(page(0, [])) == (0, [], False)

    @pytest.mark.parametrize(
        "mutation",
        ["magic", "truncate_length", "truncate_body", "trailing"],
    )
    def test_corruption_detected(self, mutation):
        payload = bytearray(page(3, [b"abc", b"defg"]))
        if mutation == "magic":
            payload[0] ^= 0xFF
        elif mutation == "truncate_length":
            payload = payload[:15]
        elif mutation == "truncate_body":
            payload = payload[:-2]
        elif mutation == "trailing":
            payload += b"junk"
        with pytest.raises(ProtocolError):
            decode_get_page(bytes(payload))

    @pytest.mark.parametrize("decode", [decode_get_page, count_get_page])
    def test_unpaginated_sigs_layout_rejected(self, decode):
        """The pre-pagination response layout is no longer decoded."""
        payload = (b"SIGS" + struct.pack(">II", 1, 1)
                   + pack_signature_record(b"abc"))
        with pytest.raises(ProtocolError, match="SIG2"):
            decode(payload)
