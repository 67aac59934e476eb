"""The wire codec's protocol pin.

Every byte the pool puts on a pipe or queue is pickled at
``pickle.HIGHEST_PROTOCOL``: the pin test greps the pool source so a
stray ``conn.send(...)`` or default-protocol ``pickle.dumps`` cannot
sneak back in.
"""

import pathlib
import pickle

from repro.resilience import pool as pool_module
from repro.resilience.wire import PROTOCOL, dumps, loads


class TestProtocolPin:
    def test_protocol_is_highest(self):
        assert PROTOCOL == pickle.HIGHEST_PROTOCOL

    def test_dumps_emits_pinned_protocol_frames(self):
        # A pickle stream opens with \x80 <protocol> from protocol 2 on.
        frame = dumps(("beat", 3, "key", 1, None))
        assert frame[:2] == bytes([0x80, PROTOCOL])

    def test_dumps_loads_round_trip(self):
        message = ("done", 0, ("unit", 7), 2, {"depth": 3})
        assert loads(dumps(message)) == message

    def test_pool_source_has_no_unpinned_pickling(self):
        """The pool must not pickle outside the wire module: no direct
        ``pickle`` usage, no object-mode ``Connection.send`` (which
        would use the default protocol under the hood)."""
        source = pathlib.Path(pool_module.__file__).read_text()
        assert "import pickle" not in source
        assert "pickle.dumps" not in source
        assert ".send(" not in source.replace(".send_bytes(", "")
        assert ".recv()" not in source
        # and it really routes through the wire codec
        assert "from repro.resilience.wire import dumps" in source
        assert "from repro.resilience.wire import loads" in source
