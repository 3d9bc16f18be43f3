"""Tests for the wire codec."""

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol.codec import _MESSAGE_TYPES, _WIRE, decode_message, encode_message
from repro.protocol.messages import (
    ApprovalReply,
    ApprovalRequest,
    BatchReply,
    BatchRequest,
    ExtendGrant,
    ExtendReply,
    ExtendRequest,
    FlushRequest,
    InstalledAnnounce,
    NamespaceReply,
    NamespaceRequest,
    NotMaster,
    PrepareReply,
    PrepareRequest,
    ProposeReply,
    ProposeRequest,
    ReadReply,
    ReadRequest,
    RecallReply,
    RecallRequest,
    RelinquishRequest,
    WriteLeaseReply,
    WriteLeaseRequest,
    WriteReply,
    WriteRequest,
)
from repro.runtime.tcp import _frame
from repro.types import DatumId

F = DatumId.file("file:1")
D = DatumId.directory("dir:/bin")

SAMPLES = [
    ReadRequest(1, F, cached_version=3),
    ReadRequest(2, D),
    ReadReply(1, F, version=3, payload=b"\x00binary\xff", term=10.0),
    ReadReply(2, F, version=1, payload=None, term=0.0, cover="cover:/bin"),
    ReadReply(3, F, error="no such datum"),
    ExtendRequest(4, ((F, 1), (D, 2))),
    ExtendReply(
        4,
        grants=(ExtendGrant(F, 10.0, 2, payload=b"x", changed=True),),
        denied=(D,),
    ),
    WriteRequest(5, F, b"content", write_seq=9),
    WriteReply(5, F, version=4),
    ApprovalRequest(F, 7, 5),
    ApprovalReply(F, 7),
    NamespaceRequest(6, "rename", ("/a", "/b"), write_seq=10),
    NamespaceReply(6, "rename", result="ok"),
    InstalledAnnounce(("cover:/bin", "cover:/lib"), 10.0, seq=3),
    ReadReply(9, F, version=1, payload=b"", term=math.inf),
    RelinquishRequest((F, D)),
    WriteLeaseRequest(10, F, cached_version=2),
    WriteLeaseReply(10, F, version=2, payload=b"x", term=10.0),
    RecallRequest(F, 3),
    RecallReply(F, 3, dirty=b"buffered"),
    RecallReply(F, 4, dirty=None),
    FlushRequest(11, F, b"dirty", write_seq=12),
    PrepareRequest(7),
    PrepareReply(7, True, accepted_ballot=4, accepted_holder="s1",
                 accepted_expires_in=2.5, ever_accepted=True),
    ProposeRequest(7, "s0", 10.0),
    ProposeReply(7, False),
    NotMaster(12, master="s2"),
    BatchRequest(13, (ReadRequest(14, F), WriteRequest(15, F, b"w", write_seq=1, cas=2))),
    BatchReply(13, (ReadReply(14, F, version=2, payload=b"w", term=10.0),)),
]


class TestRoundTrip:
    @pytest.mark.parametrize("msg", SAMPLES, ids=lambda m: type(m).__name__)
    def test_roundtrip_equals(self, msg):
        assert decode_message(encode_message(msg)) == msg

    @pytest.mark.parametrize("msg", SAMPLES, ids=lambda m: type(m).__name__)
    def test_encoding_is_json_safe(self, msg):
        wire = json.loads(json.dumps(encode_message(msg), allow_nan=False))
        assert decode_message(wire) == msg

    def test_every_wire_class_has_a_sample(self):
        sampled = {type(msg).__name__ for msg in SAMPLES}
        assert sampled == set(_MESSAGE_TYPES)

    def test_directory_payload_roundtrip(self):
        payload = (("latex", "file:1", False, "rw"), ("sub", "dir:/bin/sub", True, None))
        msg = ReadReply(1, D, version=2, payload=payload, term=5.0)
        decoded = decode_message(encode_message(msg))
        assert decoded.payload == payload

    def test_message_is_a_positional_array(self):
        assert encode_message(ReadRequest(1, F, cached_version=3)) == [
            "ReadRequest", 1, "file:file:1", 3,
        ]


class TestErrors:
    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(["EvilMessage"])

    def test_malformed_fields_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(["ReadRequest", 1])

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(
                ["ReadReply", 1, "file:f", 1, {"__wat__": 1}, 0.0, None, None]
            )

    @pytest.mark.parametrize(
        "value", [None, 7, "ReadRequest", {}, [], [[]], [7]], ids=lambda v: type(v).__name__
    )
    def test_not_a_tagged_array_rejected(self, value):
        with pytest.raises(ProtocolError):
            decode_message(value)

    def test_v1_frame_is_malformed(self):
        with pytest.raises(ProtocolError):
            decode_message({"type": "ReadRequest", "req_id": 1,
                            "datum": {"__datum__": ["file", "f"]}})

    def test_not_a_message_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_message(ExtendGrant(F, 1.0, 1))

    def test_value_without_wire_form_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_message(ReadReply(1, F, payload=object()))
        with pytest.raises(ProtocolError):
            encode_message(ReadRequest(1, "not a datum"))


class TestNonFiniteTerms:
    """Only finite terms and +inf have a wire form (PR 15 bugfix: -inf
    used to round-trip to an *infinite lease*, NaN to invalid JSON)."""

    def test_negative_infinity_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_message(ReadReply(1, F, term=-math.inf))

    def test_nan_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_message(ReadReply(1, F, term=math.nan))
        with pytest.raises(ProtocolError):
            encode_message(ReadReply(1, F, payload=(math.nan,)))

    @pytest.mark.parametrize(
        "term",
        ["-inf", "nan", "Infinity", "", -math.inf, math.nan, math.inf],
        ids=["str-neg-inf", "str-nan", "str-Infinity", "str-empty",
             "float-neg-inf", "float-nan", "float-inf"],
    )
    def test_only_the_string_inf_decodes_to_infinity(self, term):
        # The bare floats are what json.loads makes of -Infinity/NaN/Infinity.
        with pytest.raises(ProtocolError):
            decode_message(["ReadReply", 1, "file:f", 1, None, term, None, None])
        good = decode_message(["ReadReply", 1, "file:f", 1, None, "inf", None, None])
        assert good.term == math.inf


#: One ill-typed value per position of a few representative frames; each
#: must be refused at decode so that no engine ever sees it.
ILL_TYPED = [
    ["ReadRequest", "x", 5, [1]],
    ["ReadRequest", True, "file:f", None],
    ["ReadRequest", 1, "file:f", True],
    ["ReadRequest", 1, "file:f", 1.0],
    ["ReadRequest", 1, "nocolon", None],
    ["ReadRequest", 1, "socket:f", None],
    ["ReadRequest", 1, ["file", "f"], None],
    ["ReadRequest", None, "file:f", None],
    ["ReadRequest", 1, "file:f", None, None],
    ["ReadReply", 1, "file:f", 1, None, "2.0", None, None],
    ["ReadReply", 1, "file:f", 1, None, 2.0, 5, None],
    ["ReadReply", 1, "file:f", 1, {"b64": 5}, 2.0, None, None],
    ["ReadReply", 1, "file:f", 1, {"b64": "a"}, 2.0, None, None],
    ["ReadReply", 1, "file:f", 1, {"b64": "eA==", "x": 1}, 2.0, None, None],
    ["WriteRequest", 1, "file:f", 7, 0, None],
    ["WriteRequest", 1, "file:f", None, 0, None],
    ["RecallReply", "file:f", 1, 5],
    ["ExtendRequest", 1, "file:f"],
    ["ExtendRequest", 1, [["file:f"]]],
    ["ExtendRequest", 1, [["file:f", 1, 2]]],
    ["ExtendRequest", 1, [["file:f", "1"]]],
    ["ExtendRequest", 1, [[5, 1]]],
    ["ExtendRequest", 1, ["file:f", 1]],
    ["ExtendReply", 1, [["file:f", 2.0, 1, None, False]], []],
    ["ExtendReply", 1, [["file:f", 2.0, 1, None, 0, None]], []],
    ["ExtendReply", 1, [{"datum": "file:f"}], []],
    ["ExtendReply", 1, [], [5]],
    ["ExtendReply", 1, [], "file:f"],
    ["InstalledAnnounce", ["a", 5], 1.0, 0],
    ["InstalledAnnounce", "ab", 1.0, 0],
    ["PrepareReply", 1, 1, 0, None, 0.0, False],
    ["ProposeReply", 1, None],
    ["NotMaster", 1, None],
    ["NamespaceRequest", 1, "bind", "ab", 0],
    ["BatchRequest", 1, [["ReadRequest", "x", "file:f", None]]],
    ["BatchRequest", 1, [[["ReadRequest"], 1, "file:f", None]]],
    ["BatchRequest", 1, [["BatchRequest", 2, []]]],
    ["BatchRequest", 1, [[]]],
    ["BatchRequest", 1, "ReadRequest"],
    # Base64 other than the one canonical spelling of the bytes: junk
    # characters, excess padding, non-zero padding bits.
    ["ReadReply", 1, "file:f", 1, {"b64": "A A A A"}, 2.0, None, None],
    ["ReadReply", 1, "file:f", 1, {"b64": "AA!AA"}, 2.0, None, None],
    ["ReadReply", 1, "file:f", 1, {"b64": "AAAA===="}, 2.0, None, None],
    ["ReadReply", 1, "file:f", 1, {"b64": "eB=="}, 2.0, None, None],
    ["WriteRequest", 1, "file:f", "AAAA\n", 0, None],
    ["RecallReply", "file:f", 1, "eA=\n="],
]


class TestExactFieldTypes:
    @pytest.mark.parametrize(
        "frame", ILL_TYPED, ids=[f"{i}-{frame[0]}" for i, frame in enumerate(ILL_TYPED)]
    )
    def test_ill_typed_frame_rejected(self, frame):
        with pytest.raises(ProtocolError):
            decode_message(frame)

    def test_the_frame_that_used_to_reach_the_engine(self):
        # v1 built ReadRequest(req_id="x", datum=5, cached_version=(1,))
        # from the dict form of this; the server engine then raised
        # AttributeError inside the transport's read task.
        with pytest.raises(ProtocolError, match="ReadRequest"):
            decode_message(["ReadRequest", "x", 5, [1]])

    def test_integer_term_accepted(self):
        assert decode_message(["ProposeRequest", 1, "s0", 10]).term == 10


# -- every annotation the codec compiles from, as a hypothesis strategy --------------

_text = st.text(max_size=12)
_ints = st.integers(-(2**63), 2**63)
_datums = st.builds(DatumId, st.sampled_from(list(type(F.kind))), _text)
_terms = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(math.inf))
_untyped = st.recursive(
    st.one_of(
        st.none(), st.booleans(), _ints, _text, st.binary(max_size=12),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)


def _tuples(elements):
    return st.lists(elements, max_size=3).map(tuple)


def _build(cls):
    return st.builds(cls, *(STRATEGIES[f.type] for f in dataclasses.fields(cls)))


STRATEGIES = {
    "int": _ints,
    "Version": _ints,
    "Version | None": st.none() | _ints,
    "str": _text,
    "str | None": st.none() | _text,
    "bool": st.booleans(),
    "float": _terms,
    "bytes": st.binary(max_size=24),
    "bytes | None": st.none() | st.binary(max_size=24),
    "DatumId": _datums,
    "object": _untyped,
    "tuple": _tuples(_untyped),
    "tuple[str, ...]": _tuples(_text),
    "tuple[DatumId, ...]": _tuples(_datums),
    "tuple[tuple[DatumId, Version], ...]": _tuples(st.tuples(_datums, _ints)),
    "tuple[ExtendGrant, ...]": _tuples(st.deferred(lambda: _build(ExtendGrant))),
    "tuple[Message, ...]": _tuples(st.deferred(lambda: _messages(batches=False))),
}


def _messages(batches=True):
    classes = [
        cls
        for _, cls in sorted(_MESSAGE_TYPES.items())
        if batches or cls not in (BatchRequest, BatchReply)
    ]
    return st.sampled_from(classes).flatmap(_build)


class TestProperties:
    def test_strategies_cover_the_codec_table_exactly(self):
        assert set(STRATEGIES) == set(_WIRE)

    @settings(max_examples=300, deadline=None)
    @given(msg=_messages())
    def test_any_message_roundtrips_through_a_frame(self, msg):
        body = _frame(encode_message(msg))[4:]
        assert decode_message(json.loads(body)) == msg

    @given(
        req_id=st.integers(0, 2**31),
        ident=st.text(min_size=1, max_size=32),
        version=st.integers(0, 2**31),
        payload=st.binary(max_size=256),
        term=st.floats(0, 1e6),
    )
    def test_read_reply_roundtrip(self, req_id, ident, version, payload, term):
        msg = ReadReply(req_id, DatumId.file(ident), version=version, payload=payload, term=term)
        redecoded = decode_message(json.loads(json.dumps(encode_message(msg))))
        assert redecoded == msg

    @given(content=st.binary(max_size=512), seq=st.integers(0, 2**31))
    def test_write_request_roundtrip(self, content, seq):
        msg = WriteRequest(1, F, content, write_seq=seq)
        assert decode_message(encode_message(msg)) == msg


# -- pinned frame bytes -------------------------------------------------------------

_EXTEND_ITEMS = ((F, 1), (D, 2), (DatumId.file("file:2"), 7))

#: Vector name -> message.  The first sample of every wire class, named
#: after it (``reversed`` so the first wins), plus the composites whose
#: layout the per-class samples do not show.
VECTORS = {type(msg).__name__: msg for msg in reversed(SAMPLES)} | {
    "extend-request-3": ExtendRequest(20, _EXTEND_ITEMS),
    "extend-reply-3": ExtendReply(
        20,
        grants=(
            ExtendGrant(F, 10.0, 1),
            ExtendGrant(D, math.inf, 3, payload=(("ls", "file:9", False, "rx"),),
                        changed=True, cover="cover:/bin"),
        ),
        denied=(DatumId.file("file:2"),),
    ),
    "mixed-batch": BatchRequest(
        21,
        (
            ReadRequest(22, F, cached_version=3),
            WriteRequest(23, F, b"\x00bin\xff", write_seq=4),
            ExtendRequest(24, _EXTEND_ITEMS[:2]),
            NamespaceRequest(25, "bind", ("/a", b"new"), write_seq=5),
            RelinquishRequest((D,)),
        ),
    ),
}

VECTOR_FILE = Path(__file__).with_name("wire_v2_vectors.json")


class TestPinnedFrames:
    """The exact bytes of format v2.  A failure here means the wire format
    changed: if that is the point of your change, regenerate the file from
    ``VECTORS`` and say so; if not, you broke interoperability."""

    pinned = json.loads(VECTOR_FILE.read_text(encoding="utf-8"))

    def test_every_vector_is_pinned_and_every_class_has_one(self):
        assert set(self.pinned) == set(VECTORS)
        assert set(_MESSAGE_TYPES) <= set(VECTORS)

    @pytest.mark.parametrize("name", sorted(VECTORS))
    def test_frame_bytes(self, name):
        body = self.pinned[name].encode("utf-8")
        assert _frame(encode_message(VECTORS[name]))[4:] == body
        assert decode_message(json.loads(body)) == VECTORS[name]
