"""Exception types raised by the audiokv library, and the JSON reader that
raises them for a file that is not JSON."""

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
