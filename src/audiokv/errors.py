"""Exception types raised by the audiokv library."""


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
