"""Record types stored in the ReplayDB."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from operator import itemgetter

from repro.errors import ReplayDBError
from repro.features.throughput import BYTES_PER_GB


class _EmptyExtra(dict):
    """:data:`EMPTY_EXTRA`'s type: an empty dict whose mutators raise, which
    pickles and copies as that instance (``MappingProxyType`` cannot)."""

    __slots__ = ()

    def _immutable(self, *args, **kwargs):
        raise TypeError("a record's empty extra is shared and immutable")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = _immutable
    setdefault = update = _immutable

    def __reduce__(self):
        return "EMPTY_EXTRA"


#: every record's ``extra`` when it has no further telemetry: one object
EMPTY_EXTRA = _EmptyExtra()


class AccessRecord(namedtuple(
    "AccessRecord",
    "fid fsid device path rb wb ots otms cts ctms extra "
    "throughput throughput_gbps",
)):
    """One file interaction, open to close (the EOS access-log granularity).

    Field names follow the paper: ``rb``/``wb`` bytes read/written,
    ``ots``/``otms`` the open timestamp's second/millisecond parts,
    ``cts``/``ctms`` the close timestamp's, ``fid`` the file id and
    ``fsid`` the storage-device id.  ``device`` and ``path`` carry the
    human-readable location for monitoring output, ``extra`` any further
    telemetry (rt, wt, nrc, ... for EOS-style records), or
    :data:`EMPTY_EXTRA` when there is none.

    A record is an immutable tuple.  Field order is constructor order --
    ``fid, fsid, device, path, rb, wb, ots, otms, cts, ctms, extra`` --
    then the two derived fields: ``throughput`` in bytes/second (the
    paper's Tp_i) and ``throughput_gbps`` in GB/s (the unit of Fig. 5 and
    Table IV), computed here from the validated fields.  Every route to a
    record passes these checks except :meth:`_trusted`.
    """

    __slots__ = ()

    def __new__(
        cls, fid, fsid, device, path, rb, wb, ots, otms, cts, ctms, extra=None
    ):
        if rb < 0 or wb < 0:
            raise ReplayDBError(
                f"byte counts must be non-negative (rb={rb}, wb={wb})"
            )
        if not 0 <= otms < 1000 or not 0 <= ctms < 1000:
            raise ReplayDBError(
                f"millisecond parts must be in [0, 1000): "
                f"otms={otms}, ctms={ctms}"
            )
        open_time = ots + otms / 1000.0
        close_time = cts + ctms / 1000.0
        if close_time <= open_time:
            raise ReplayDBError(
                f"close time {close_time} must be after open time {open_time}"
            )
        # features.access_throughput's floats, elementwise bit-identical;
        # its non-positive-duration guard cannot fire past the check above.
        throughput = (float(rb) + float(wb)) / (close_time - open_time)
        return tuple.__new__(cls, (
            fid, fsid, device, path, rb, wb, ots, otms, cts, ctms,
            extra if extra else EMPTY_EXTRA,
            throughput, throughput / BYTES_PER_GB,
        ))

    #: ``_trusted(fields)``: the record that *is* the finished 13-field
    #: tuple ``fields``.  The access paths build records whose invariants
    #: hold by construction (clamped millisecond parts, close strictly
    #: after open) and compute both throughputs with the constructor's
    #: exact floats, so they pay for one tuple, no re-validation and no
    #: Python frame (``tuple.__new__`` bound to the class).
    _trusted = classmethod(tuple.__new__)

    @classmethod
    def _make(cls, iterable) -> "AccessRecord":
        """The constructor over an iterable of its arguments (validating)."""
        return cls(*iterable)

    def _replace(self, **changes) -> "AccessRecord":
        """A copy with constructor fields swapped, validated and re-derived."""
        return type(self)(**{**dict(zip(self._fields[:-2], self)), **changes})

    def __reduce__(self):
        # namedtuple's __getnewargs__ would feed all 13 values to __new__;
        # this is _trusted's call, which pickle can name.
        return tuple.__new__, (type(self), tuple(self))

    @property
    def open_time(self) -> float:
        """Open timestamp in fractional seconds."""
        return self.ots + self.otms / 1000.0

    @property
    def close_time(self) -> float:
        """Close timestamp in fractional seconds."""
        return self.cts + self.ctms / 1000.0

    @property
    def duration(self) -> float:
        """Access duration in seconds: ``close_time - open_time``."""
        return (self.cts + self.ctms / 1000.0) - (self.ots + self.otms / 1000.0)

    @property
    def total_bytes(self) -> int:
        return self.rb + self.wb


#: an access's schema fields, in constructor order: the stored columns and
#: the fixed keys of every JSON and CSV form of a record
ACCESS_FIELDS = (
    "fid", "fsid", "device", "path", "rb", "wb", "ots", "otms", "cts", "ctms",
)

#: ``record.device`` as a C-level key (``groupby``, ``map``)
record_device = itemgetter(ACCESS_FIELDS.index("device"))


def record_to_dict(record: AccessRecord) -> dict:
    """JSON form of a record: its schema fields, then ``extra`` if any."""
    raw = {name: getattr(record, name) for name in ACCESS_FIELDS}
    if record.extra:
        raw["extra"] = dict(record.extra)
    return raw


def record_from_dict(raw: dict) -> AccessRecord:
    """Inverse of :func:`record_to_dict`, through the validating
    constructor."""
    return AccessRecord(
        fid=int(raw["fid"]), fsid=int(raw["fsid"]),
        device=str(raw["device"]), path=str(raw["path"]),
        rb=int(raw["rb"]), wb=int(raw["wb"]),
        ots=int(raw["ots"]), otms=int(raw["otms"]),
        cts=int(raw["cts"]), ctms=int(raw["ctms"]),
        extra=dict(raw.get("extra", {})),
    )


@dataclass(frozen=True)
class MovementRecord:
    """One file migration commanded by Geomancy (or a baseline policy).

    ``succeeded`` is False for moves a fault aborted mid-transfer: the
    file stayed on ``src_device`` and ``bytes_moved``/``duration`` record
    the traffic wasted before the abort.
    """

    timestamp: float
    fid: int
    src_device: str
    dst_device: str
    bytes_moved: int
    duration: float
    succeeded: bool = True

    def __post_init__(self) -> None:
        if self.bytes_moved < 0:
            raise ReplayDBError(
                f"bytes_moved must be non-negative, got {self.bytes_moved}"
            )
        if self.duration < 0:
            raise ReplayDBError(
                f"duration must be non-negative, got {self.duration}"
            )
        if self.src_device == self.dst_device:
            raise ReplayDBError(
                f"movement must change device (src == dst == {self.src_device!r})"
            )
