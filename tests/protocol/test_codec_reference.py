"""The wire codec against its specification.

``repro.protocol.codec`` generates one encoder and one decoder per message
class as Python source.  What they must compute is written down here the
plain way: the table-driven closure codec they replaced — a converter
closure per field, one ``attrgetter`` fetch, ``cls(*values)`` through the
frozen ``__init__`` — kept as the reference model, as ``ReferenceKernel``
is for the kernel (``tests/sim/test_kernel.py``).  The leaf converters
(floats, bytes, datums, the untyped fallback) are shared; the machinery
that strings them together is not.

Every generated message and every garbage frame must come out of both the
same way: an equal, equally hashed, still frozen message, or a
``ProtocolError`` with the same text.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol import codec
from repro.protocol.codec import (
    _MESSAGE_TYPES,
    _dec_any,
    _dec_bytes,
    _dec_datum,
    _dec_float,
    _enc_any,
    _enc_bytes,
    _enc_datum,
    _enc_float,
    _enc_items,
    _reject,
    decode_message,
    encode_message,
)
from repro.protocol.messages import (
    BatchRequest,
    ExtendGrant,
    ReadReply,
    ReadRequest,
    RecallReply,
)
from repro.runtime.tcp import _frame
from repro.types import DatumId
from tests.protocol.test_codec import _messages
from tests.protocol.test_codec_fuzz import json_values

ROOT = Path(__file__).resolve().parents[2]

# -- the reference model --------------------------------------------------------------


def _scalar(tp: type, optional: bool = False):
    """Decoder accepting exactly ``tp`` (no subclasses), or also None."""
    expected = f"{tp.__name__} or null" if optional else tp.__name__

    def decode(value: Any) -> Any:
        if type(value) is tp or (optional and value is None):
            return value
        _reject(expected, value)

    return decode


_dec_int = _scalar(int)
_dec_str = _scalar(str)


def _optional(encode, decode):
    return (
        lambda value: None if value is None else encode(value),
        lambda value: None if value is None else decode(value),
    )


def _seq(encode, decode):
    def decode_seq(value: Any) -> tuple:
        if type(value) is list:
            return tuple(map(decode, value))
        _reject("an array", value)

    if encode is None:
        return list, decode_seq
    return (lambda values: list(map(encode, values))), decode_seq


def _dec_items(value: Any) -> tuple:
    if type(value) is not list:
        _reject("an array of [datum, version] pairs", value)
    items = []
    for pair in value:
        if type(pair) is not list or len(pair) != 2:
            _reject("a [datum, version] pair", pair)
        items.append((_dec_datum(pair[0]), _dec_int(pair[1])))
    return tuple(items)


def _enc_members(members: Any) -> list:
    return [_MEMBER_ENCODERS[type(member)](member) for member in members]


def _dec_members(value: Any) -> tuple:
    if type(value) is not list:
        _reject("an array of messages", value)
    members = []
    for frame in value:
        if type(frame) is not list or not frame or type(frame[0]) is not str:
            _reject("a message array", frame)
        decode = _MEMBER_DECODERS.get(frame[0])
        if decode is None:
            raise ProtocolError(f"invalid batch member: {frame[0][:64]!r}")
        members.append(decode(frame))
    return tuple(members)


_MEMBERS = "tuple[Message, ...]"

_WIRE = {
    "int": (None, _dec_int),
    "Version": (None, _dec_int),
    "Version | None": (None, _scalar(int, optional=True)),
    "str": (None, _dec_str),
    "str | None": (None, _scalar(str, optional=True)),
    "bool": (None, _scalar(bool)),
    "float": (_enc_float, _dec_float),
    "bytes": (_enc_bytes, _dec_bytes),
    "bytes | None": _optional(_enc_bytes, _dec_bytes),
    "DatumId": (_enc_datum, _dec_datum),
    "object": (_enc_any, _dec_any),
    "tuple": _seq(_enc_any, _dec_any),
    "tuple[str, ...]": _seq(None, _dec_str),
    "tuple[DatumId, ...]": _seq(_enc_datum, _dec_datum),
    "tuple[tuple[DatumId, Version], ...]": (_enc_items, _dec_items),
    _MEMBERS: (_enc_members, _dec_members),
}


def _compile(cls: type, tag: str | None = None):
    """One dataclass's array codec from its field annotations."""
    fields = dataclasses.fields(cls)
    wire = [_WIRE[field.type] for field in fields]
    head = [] if tag is None else [tag]
    first = len(head)
    arity = first + len(fields)
    fetch = attrgetter(*(field.name for field in fields))
    single = len(fields) == 1
    converts = tuple(
        (index, enc) for index, (enc, _) in enumerate(wire, first) if enc is not None
    )
    decoders = tuple(dec for _, dec in wire)

    def encode(obj: Any) -> list:
        out = [*head, fetch(obj)] if single else [*head, *fetch(obj)]
        for index, convert in converts:
            out[index] = convert(out[index])
        return out

    def decode(frame: Any) -> Any:
        if type(frame) is not list or len(frame) != arity:
            _reject(f"{cls.__name__} as an array of {arity}", frame)
        return cls(*[dec(value) for dec, value in zip(decoders, frame[first:])])

    return encode, decode


_WIRE["tuple[ExtendGrant, ...]"] = _seq(*_compile(ExtendGrant))

_ENCODERS, _DECODERS, _MEMBER_ENCODERS, _MEMBER_DECODERS = {}, {}, {}, {}
for _name, _cls in _MESSAGE_TYPES.items():
    _enc, _dec = _compile(_cls, _name)
    _ENCODERS[_cls], _DECODERS[_name] = _enc, _dec
    if not any(f.type == _MEMBERS for f in dataclasses.fields(_cls)):
        _MEMBER_ENCODERS[_cls], _MEMBER_DECODERS[_name] = _enc, _dec

_RAW_ERRORS = (TypeError, ValueError, LookupError, AttributeError, RecursionError)


def reference_encode(msg) -> list:
    encode = _ENCODERS.get(type(msg))
    if encode is None:
        raise ProtocolError(f"not a wire message: {type(msg).__name__}")
    try:
        return encode(msg)
    except _RAW_ERRORS as exc:
        raise ProtocolError(f"cannot encode {type(msg).__name__}: {exc!r}") from exc


def reference_decode(value: Any):
    tag = value[0] if type(value) is list and value and type(value[0]) is str else "?"
    decode = _DECODERS.get(tag)
    if decode is None:
        raise ProtocolError("unknown message type")
    try:
        return decode(value)
    except ProtocolError as exc:
        raise ProtocolError(f"malformed {tag}: {exc}") from exc
    except _RAW_ERRORS as exc:
        raise ProtocolError(f"malformed {tag}: {exc!r}") from exc


# -- the comparison -------------------------------------------------------------------


def same_decoding(value: Any) -> None:
    """``decode_message`` does to ``value`` exactly what the reference does."""
    try:
        expected = reference_decode(value)
    except ProtocolError as exc:
        with pytest.raises(ProtocolError) as refused:
            decode_message(value)
        assert str(refused.value) == str(exc)
        return
    got = decode_message(value)
    assert type(got) is type(expected)
    assert got == expected and hash(got) == hash(expected)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(got, dataclasses.fields(got)[0].name, None)


def same_encoding(msg) -> None:
    """``encode_message`` and the frame body agree with the reference."""
    try:
        expected = reference_encode(msg)
    except ProtocolError as exc:
        with pytest.raises(ProtocolError) as refused:
            encode_message(msg)
        assert str(refused.value) == str(exc)
        return
    wire = encode_message(msg)
    assert wire == expected
    body = _frame(wire)[4:]
    assert body == json.dumps(expected, separators=(",", ":"), allow_nan=False).encode()
    same_decoding(json.loads(body))
    assert decode_message(json.loads(body)) == msg


@st.composite
def _corrupted(draw):
    """A real message's frame with one value, at any depth, replaced."""
    frame = json.loads(_frame(encode_message(draw(_messages())))[4:])
    node = frame
    while True:
        index = draw(st.integers(0, len(node) - 1))
        child = node[index]
        if type(child) is list and child and draw(st.booleans()):
            node = child
            continue
        node[index] = draw(json_values)
        return frame


#: Values to decode: test_codec_fuzz's garbage, any or under a known tag,
#: and real frames with one flaw.
FRAMES = st.one_of(
    json_values,
    st.lists(json_values, max_size=8),
    st.tuples(st.sampled_from(sorted(_MESSAGE_TYPES)), st.lists(json_values, max_size=8)).map(
        lambda pair: [pair[0], *pair[1]]
    ),
    _corrupted(),
)


def _differential(check, strategy, examples: int):
    @settings(max_examples=examples, deadline=None)
    @given(case=strategy)
    def test(self, case):
        check(case)

    return test


class TestAgainstReferenceModel:
    """test_codec's message strategies and the garbage frames above, at
    tier-1 depth and, marked slow, at 5 000 cases each."""

    test_messages = _differential(same_encoding, _messages(), 300)
    test_frames = _differential(same_decoding, FRAMES, 300)
    test_messages_deep = pytest.mark.slow(_differential(same_encoding, _messages(), 5000))
    test_frames_deep = pytest.mark.slow(_differential(same_decoding, FRAMES, 5000))

    @pytest.mark.parametrize(
        "msg",
        [
            ReadReply(1, DatumId.file("f"), payload=object()),
            ReadReply(1, DatumId.file("f"), term=-math.inf),
            ReadRequest(1, "not a datum"),
            RecallReply(DatumId.file("f"), 1, dirty="not bytes"),
            BatchRequest(9, (BatchRequest(1, ()),)),
            ExtendGrant(DatumId.file("f"), 1.0, 1),
        ],
        ids=["object-payload", "negative-inf", "str-datum", "str-bytes", "nested-batch",
             "not-a-message"],
    )
    def test_same_refusal_at_encode(self, msg):
        same_encoding(msg)


class TestGeneration:
    def test_an_annotation_without_a_wire_form_fails_at_import(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Odd:
            n: complex

        with pytest.raises(TypeError, match="no wire form"):
            codec._compile(Odd, "Odd")

    def test_a_post_init_fails_at_import(self):
        """Decode sets slots directly, so a ``__post_init__`` would never run."""

        @dataclasses.dataclass(frozen=True, slots=True)
        class Checked:
            n: int

            def __post_init__(self):
                raise AssertionError("unreachable through the codec")

        with pytest.raises(TypeError, match="__post_init__"):
            codec._compile(Checked, "Checked")


_PURE_JSON = """
import sys
sys.modules["_json"] = None
import json
from repro.protocol.codec import decode_message, encode_message
from repro.runtime.tcp import _frame
from repro.runtime.transport import _ENCODER, _dumps, _loads
from tests.protocol.test_codec import VECTOR_FILE, VECTORS
assert json.encoder.c_make_encoder is None and json.scanner.c_make_scanner is None
assert _dumps == _ENCODER.encode
pinned = json.loads(VECTOR_FILE.read_text(encoding="utf-8"))
for name, msg in VECTORS.items():
    body = pinned[name].encode("utf-8")
    assert _frame(encode_message(msg))[4:] == body, name
    assert decode_message(_loads(body.decode("utf-8"))) == msg, name
print(len(VECTORS))
"""


def test_pinned_frames_without_the_json_accelerator():
    """With no ``_json``, frames go through ``JSONEncoder.encode`` and the
    pure-Python scanner: the same pinned bytes out, the same messages back."""
    from tests.protocol.test_codec import VECTORS

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    result = subprocess.run(
        [sys.executable, "-c", _PURE_JSON],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(len(VECTORS))
