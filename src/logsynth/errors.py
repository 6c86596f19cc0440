"""Shared exception base for the package.

Every error raised on a user-facing path derives from LogsynthError so
the CLI can catch one type, print the message to stderr, and exit
nonzero.  `utf8_errors` makes a file that is not UTF-8 one such error
in every reader.
"""

from contextlib import contextmanager
from pathlib import Path


class LogsynthError(Exception):
    pass


@contextmanager
def utf8_errors(path):
    """Turn a UnicodeDecodeError raised while `path` is read as UTF-8 into
    a LogsynthError naming the line and column of its first bad byte.  A
    text-mode reader's error offset counts from its current chunk, so the
    byte is found by decoding the file's bytes in one piece."""
    try:
        yield
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_start = data.rfind(b"\n", 0, exc.start) + 1
            line = data.count(b"\n", 0, line_start) + 1
            column = len(data[line_start:exc.start].decode("utf-8")) + 1
            raise LogsynthError(f"{path}:{line}:{column}: invalid UTF-8 byte "
                                f"0x{data[exc.start]:02x}") from None
        raise LogsynthError(f"{path}: invalid UTF-8") from None  # changed since it was read
