"""Exception types raised by the audiokv library, the JSON reader that
raises them for a file that is not JSON, and the check on JSON integers."""

import json
from pathlib import Path


class AudioKvError(Exception):
    """Base class for all audiokv errors."""


class FormatError(AudioKvError):
    """Trace or score file is structurally invalid (magic, version, dims)."""


class IntegrityError(AudioKvError):
    """Trace content violates an invariant (row sums, context monotonicity)."""


class DegenerateSpanError(AudioKvError):
    """Time-to-token mapping is undefined (zero duration or no audio tokens)."""


class DimensionMismatchError(AudioKvError):
    """Operands have incompatible layer/head dimensions."""


class BudgetTooSmallError(AudioKvError):
    """Global budget cannot cover the mandatory per-head floor."""


class CapacityBelowRecentError(AudioKvError):
    """A head's capacity is smaller than the always-kept recent window."""


class HorizonError(AudioKvError):
    """No decoding steps remain after the eviction point."""


def read_json(path: str | Path) -> object:
    """The JSON value in the text file at `path`.

    A file that does not decode as text or does not parse as JSON raises a
    FormatError naming `path`; a missing or unreadable file raises OSError.
    """
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: not a JSON file: {type(exc).__name__}: {exc}") from exc


def json_int(value: object, name: str) -> int:
    """`value` if it is a JSON integer, else a ValueError naming the field.

    A float is not an integer, even an integral one such as 1e3, and
    neither is a bool.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value
