"""Wire codec (format v2): protocol messages to/from positional JSON arrays.

A message travels as ``[<class name>, field1, ..., fieldN]`` in dataclass
field order.  There is no hand-written per-class code: each class's encoder
and decoder are generated once, at import, as Python source from
``dataclasses.fields()`` and the single table :data:`_WIRE` mapping a
field's annotation to its wire form, and compiled with one ``exec`` per
function (the way :mod:`dataclasses` makes ``__init__``).  The encoder is
one list display; the decoder checks the arity, unpacks, checks scalars
inline and calls a converter only for a field that has one, then builds
the message through its slot setters, bypassing the frozen ``__init__``
and its ``object.__setattr__`` per field (a wire class therefore may not
define ``__post_init__``; import fails if one does).  The wire forms —

* ``int``/``str``/``bool`` (and their ``| None`` variants) as themselves,
  type-checked exactly on decode (``int`` never accepts a ``bool``),
* ``DatumId`` as the ``kind:ident`` string ``str(DatumId)`` prints,
* declared ``bytes`` as a bare base64 string, in canonical form only,
* ``float`` terms as numbers, with ``math.inf`` as the string ``"inf"``
  (``-inf`` and NaN have no wire form),
* ``ExtendRequest.items`` as ``[[datum, version], ...]``,
* ``ExtendGrant`` as a flat array of its six fields,
* batch members as nested message arrays; batches never nest, and the
  member's tag is checked *before* its decoder runs, so a hostile frame
  cannot recurse,
* the untyped fields (``payload``, ``NamespaceRequest.args``,
  ``NamespaceReply.result``) through a small recursive fallback in which
  ``bytes`` are tagged ``{"b64": <base64>}`` and sequences are arrays.

A field whose annotation is missing from the table fails at import, not
on the wire.  Anything that is not exactly a well-formed frame —
unknown tag, wrong arity, ill-typed field, at any depth — is a
:class:`ProtocolError`, and nothing else escapes :func:`decode_message`.
"""

from __future__ import annotations

import binascii
import dataclasses
import math
from typing import Any, Callable, NoReturn

from repro.errors import ProtocolError
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
    Message,
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
from repro.types import DatumId, DatumKind

_MESSAGE_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ReadRequest,
        ReadReply,
        ExtendRequest,
        ExtendReply,
        WriteRequest,
        WriteReply,
        ApprovalRequest,
        ApprovalReply,
        NamespaceRequest,
        NamespaceReply,
        InstalledAnnounce,
        RelinquishRequest,
        WriteLeaseRequest,
        WriteLeaseReply,
        RecallRequest,
        RecallReply,
        FlushRequest,
        PrepareRequest,
        PrepareReply,
        ProposeRequest,
        ProposeReply,
        NotMaster,
        BatchRequest,
        BatchReply,
    )
}

#: A field encoder maps a field value to its JSON-safe wire form; ``None``
#: in its place means the value already is its wire form.  A field decoder
#: maps a wire value back, raising ProtocolError unless it is well formed.
Encoder = Callable[[Any], Any]
Decoder = Callable[[Any], Any]

_INF = math.inf

#: DatumKind <-> the ``kind`` part of a datum string.  Two dict probes
#: replace ``.kind.value`` and ``DatumKind(value)``, both Python-level
#: enum calls, on the most frequent conversion of all.
_DATUM_PREFIX = {kind: f"{kind.value}:" for kind in DatumKind}
_DATUM_KINDS = {kind.value: kind for kind in DatumKind}


def _reject(expected: str, value: Any) -> NoReturn:
    raise ProtocolError(f"expected {expected}, got {type(value).__name__}")


def _dec_str(value: Any) -> str:
    if type(value) is str:
        return value
    _reject("str", value)


def _enc_float(value: float) -> Any:
    if -_INF < value < _INF:
        return value
    if value == _INF:
        return "inf"
    raise ProtocolError(f"no wire form for the term {value!r}")


def _dec_float(value: Any) -> float:
    tp = type(value)
    if tp is float or tp is int:
        # json.loads accepts the bare literals Infinity and NaN.
        if -_INF < value < _INF:
            return value
    elif tp is str and value == "inf":
        return _INF
    _reject('a finite number or "inf"', value)


def _enc_bytes(value: bytes) -> str:
    return binascii.b2a_base64(value, newline=False).decode("ascii")


def _dec_bytes(value: Any) -> bytes:
    if type(value) is str:
        data = binascii.a2b_base64(value)
        # a2b_base64 skips junk and excess padding (strict_mode is 3.11+):
        # only the one string that encodes ``data`` is well formed.
        if binascii.b2a_base64(data, newline=False) == value.encode("ascii"):
            return data
        raise ProtocolError(f"not canonical base64: {value[:64]!r}")
    _reject("a base64 string", value)


def _enc_datum(datum: DatumId) -> str:
    return _DATUM_PREFIX[datum[0]] + datum[1]


def _dec_datum(value: Any) -> DatumId:
    if type(value) is str:
        name, colon, ident = value.partition(":")
        kind = _DATUM_KINDS.get(name)
        if colon and kind is not None:
            return DatumId(kind, ident)
    _reject("a kind:ident datum string", value)


def _enc_items(items: Any) -> list:
    # _enc_datum inlined: a 256-lease extend runs this loop 256 times.
    prefix = _DATUM_PREFIX
    return [[prefix[datum[0]] + datum[1], version] for datum, version in items]


def _dec_items(value: Any) -> tuple:
    if type(value) is not list:
        _reject("an array of [datum, version] pairs", value)
    items = []
    for pair in value:
        if type(pair) is not list or len(pair) != 2:
            _reject("a [datum, version] pair", pair)
        datum, version = pair
        datum = _dec_datum(datum)
        if type(version) is not int:
            _reject("int", version)
        items.append((datum, version))
    return tuple(items)


def _enc_any(value: Any) -> Any:
    """The untyped fallback: scalars, tagged bytes and nested sequences."""
    tp = type(value)
    if value is None or tp is str or tp is int or tp is bool:
        return value
    if tp is bytes:
        return {"b64": _enc_bytes(value)}
    if tp is tuple or tp is list:
        return [_enc_any(v) for v in value]
    if tp is float and -_INF < value < _INF:
        return value
    raise ProtocolError(f"cannot encode {tp.__name__}: {value!r}")


def _dec_any(value: Any) -> Any:
    tp = type(value)
    if value is None or tp is str or tp is int or tp is bool:
        return value
    if tp is dict:
        if len(value) == 1 and "b64" in value:
            return _dec_bytes(value["b64"])
    elif tp is list:
        return tuple([_dec_any(v) for v in value])
    elif tp is float and -_INF < value < _INF:
        return value
    _reject("a scalar, an array or tagged bytes", value)


def _seq(encode: Encoder | None, decode: Decoder) -> tuple[Encoder, Decoder]:
    """Wire form of a homogeneous tuple: an array, decoded back to a tuple."""

    def decode_seq(value: Any) -> tuple:
        if type(value) is list:
            return tuple(map(decode, value))
        _reject("an array", value)

    if encode is None:
        return list, decode_seq
    return (lambda values: list(map(encode, values))), decode_seq


#: The annotation of a batch's members.
_MEMBERS = "tuple[Message, ...]"


def _enc_members(members: Any) -> list:
    return [_MEMBER_ENCODERS[type(member)](member) for member in members]


def _dec_members(value: Any) -> tuple:
    if type(value) is not list:
        _reject("an array of messages", value)
    members = []
    for frame in value:
        # The tag is looked up before anything recurses: a batch tag is
        # not in the member table, so nesting depth is bounded at two.
        if type(frame) is not list or not frame or type(frame[0]) is not str:
            _reject("a message array", frame)
        decode = _MEMBER_DECODERS.get(frame[0])
        if decode is None:
            raise ProtocolError(f"invalid batch member: {frame[0][:64]!r}")
        members.append(decode(frame))
    return tuple(members)


#: The one place a wire form is declared: field annotation, exactly as
#: written in :mod:`repro.protocol.messages` -> ``(encode, decode)``.  An
#: encoder of None means the value is its own wire form; a decoder that is
#: a type is an exact type check, inlined.  In a ``| None`` annotation,
#: None passes both ways untouched.
_WIRE: dict[str, tuple[Encoder | None, Decoder | type]] = {
    "int": (None, int),
    "Version": (None, int),
    "Version | None": (None, int),
    "str": (None, str),
    "str | None": (None, str),
    "bool": (None, bool),
    "float": (_enc_float, _dec_float),
    "bytes": (_enc_bytes, _dec_bytes),
    "bytes | None": (_enc_bytes, _dec_bytes),
    "DatumId": (_enc_datum, _dec_datum),
    "object": (_enc_any, _dec_any),
    "tuple": _seq(_enc_any, _dec_any),
    "tuple[str, ...]": _seq(None, _dec_str),
    "tuple[DatumId, ...]": _seq(_enc_datum, _dec_datum),
    "tuple[tuple[DatumId, Version], ...]": (_enc_items, _dec_items),
    _MEMBERS: (_enc_members, _dec_members),
}


def _compile(cls: type, tag: str | None = None) -> tuple[Encoder, Decoder]:
    """Generate one dataclass's array encoder and decoder from its fields.

    With a ``tag`` the array is ``[tag, *fields]`` (a message); without,
    just the fields (a record nested inside one).
    """
    name = cls.__name__
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{name}: decode sets slots directly and would skip __post_init__")
    scope = {"__name__": __name__, "_reject": _reject, "_new": object.__new__, "_cls": cls}
    first = 0 if tag is None else 1
    values = [] if tag is None else [repr(tag)]
    names = [] if tag is None else ["_"]
    checks, sets = [], []
    for i, field in enumerate(dataclasses.fields(cls), first):
        if field.type not in _WIRE:
            raise TypeError(
                f"{name}.{field.name}: no wire form for the "
                f"annotation {field.type!r} (add it to codec._WIRE)"
            )
        enc, dec = _WIRE[field.type]
        optional = field.type.endswith(" | None")
        value, v = f"m.{field.name}", f"v{i}"
        if enc is not None:
            scope[f"_e{i}"] = enc
            value = (
                f"None if ({v} := {value}) is None else _e{i}({v})"
                if optional else f"_e{i}({value})"
            )
        if isinstance(dec, type):
            test, expected = f"type({v}) is not {dec.__name__}", dec.__name__
            if optional:
                test, expected = f"{test} and {v} is not None", f"{expected} or null"
            checks.append(f"if {test}: _reject({expected!r}, {v})")
        else:
            scope[f"_d{i}"] = dec
            convert = f"{v} = _d{i}({v})"
            checks.append(f"if {v} is not None: {convert}" if optional else convert)
        scope[f"_s{i}"] = cls.__dict__[field.name].__set__
        values.append(value)
        names.append(v)
        sets.append(f"_s{i}(m, {v})")
    arity = len(names)
    body = [
        f"if type(frame) is not list or len(frame) != {arity}:",
        f"    _reject({f'{name} as an array of {arity}'!r}, frame)",
        f"{', '.join(names)}, = frame",
        *checks,
        "m = _new(_cls)",
        *sets,
        "return m",
    ]
    # One exec per function: compiling all fifty functions in one exec
    # raised peak RSS by 0.5 MB (CPython 3.11), fifty small ones by 0.13 MB.
    exec(f"def encode_{name}(m):\n    return [{', '.join(values)}]", scope)
    exec(f"def decode_{name}(frame):\n    " + "\n    ".join(body), scope)
    return scope[f"encode_{name}"], scope[f"decode_{name}"]


_WIRE["tuple[ExtendGrant, ...]"] = _seq(*_compile(ExtendGrant))

_ENCODERS: dict[type, Encoder] = {}
_DECODERS: dict[str, Decoder] = {}
#: The same, minus the classes that themselves carry messages: batches
#: never nest, so a batch is not a legal batch member in either direction.
_MEMBER_ENCODERS: dict[type, Encoder] = {}
_MEMBER_DECODERS: dict[str, Decoder] = {}
for _name, _cls in _MESSAGE_TYPES.items():
    _enc, _dec = _compile(_cls, _name)
    _ENCODERS[_cls], _DECODERS[_name] = _enc, _dec
    if not any(f.type == _MEMBERS for f in dataclasses.fields(_cls)):
        _MEMBER_ENCODERS[_cls], _MEMBER_DECODERS[_name] = _enc, _dec
del _name, _cls, _enc, _dec

#: What an encoder or decoder may raise on an ill-typed value besides
#: ProtocolError itself; translated so only ProtocolError ever escapes.
_RAW_ERRORS = (TypeError, ValueError, LookupError, AttributeError, RecursionError)


def wire_tag(value: Any) -> str:
    """The class name a wire value claims to be, or ``"?"`` if none we know."""
    if type(value) is list and value:
        tag = value[0]
        if type(tag) is str and tag in _DECODERS:
            return tag
    return "?"


def encode_message(msg: Message) -> list:
    """Encode a protocol message as a JSON-safe array.

    Raises:
        ProtocolError: not a wire message, or a field value its converter
            has no wire form for (a ``-inf``/NaN term, a nested batch, an
            object in ``payload``).
    """
    encode = _ENCODERS.get(type(msg))
    if encode is None:
        raise ProtocolError(f"not a wire message: {type(msg).__name__}")
    try:
        return encode(msg)
    except _RAW_ERRORS as exc:
        raise ProtocolError(f"cannot encode {type(msg).__name__}: {exc!r}") from exc


def decode_message(value: Any) -> Message:
    """Decode a value produced by :func:`encode_message`.

    Raises:
        ProtocolError: unknown type or malformed fields.
    """
    tag = wire_tag(value)
    decode = _DECODERS.get(tag)
    if decode is None:
        raise ProtocolError("unknown message type")
    try:
        return decode(value)
    except ProtocolError as exc:
        raise ProtocolError(f"malformed {tag}: {exc}") from exc
    except _RAW_ERRORS as exc:
        raise ProtocolError(f"malformed {tag}: {exc!r}") from exc
