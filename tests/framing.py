"""Reading one frame from a blocking stream, for tests and test stubs."""

from staircase_pir import wire
from staircase_pir.errors import MalformedFrame


# A cap no header can exceed (a varint is below 2**64): a frame split under
# it is refused for its header, never for its length.
ANY_LENGTH = 2**64


def read_frame(reader, max_payload=ANY_LENGTH):
    """(type, payload) of the next frame of a file-like object with .read(n).

    It reads through wire.split_frame a byte at a time, so it reads
    nothing past the frame, and a header announcing more than
    `max_payload` bytes is refused before any of the payload is read.
    """
    buf = bytearray()
    while (frame := wire.split_frame(buf, max_payload)) is None:
        byte = reader.read(1)
        if not byte:
            raise MalformedFrame("connection closed mid-frame")
        buf += byte
    return frame
