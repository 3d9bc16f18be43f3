"""Robustness fuzzing of the wire codec.

A networked server decodes frames from anyone; arbitrary JSON must either
decode into a well-formed message or raise :class:`ProtocolError` — never
anything else, and never a message of an unregistered type.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol.codec import _MESSAGE_TYPES, decode_message, encode_message
from repro.protocol.messages import Message

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)


class TestDecodeRobustness:
    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(json_values, st.lists(json_values, max_size=8)))
    def test_arbitrary_dicts_never_crash(self, data):
        """Any JSON value at all — dicts (format v1's shape), arrays,
        scalars: a Message or ProtocolError, nothing else."""
        try:
            message = decode_message(data)
        except ProtocolError:
            return
        except Exception as exc:  # pragma: no cover
            raise AssertionError(f"leaked {type(exc).__name__}: {exc}")
        assert isinstance(message, Message)

    @settings(max_examples=300, deadline=None)
    @given(
        type_name=st.sampled_from(sorted(_MESSAGE_TYPES)),
        fields=st.lists(json_values, max_size=8),
    )
    def test_known_type_with_garbage_fields(self, type_name, fields):
        try:
            message = decode_message([type_name, *fields])
        except ProtocolError:
            return
        except Exception as exc:  # pragma: no cover
            raise AssertionError(f"leaked {type(exc).__name__}: {exc}")
        assert type(message).__name__ == type_name

    @settings(max_examples=50, deadline=None)
    @given(payload=st.binary(max_size=64), term=st.floats(0, 1e9))
    def test_valid_messages_always_roundtrip(self, payload, term):
        from repro.protocol.messages import ReadReply
        from repro.types import DatumId

        msg = ReadReply(1, DatumId.file("f"), version=1, payload=payload, term=term)
        assert decode_message(encode_message(msg)) == msg
