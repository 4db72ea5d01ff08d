"""Bit-exact binary archive for state sets (.nws files) and ingestion of
headerless float32 dumps exported from external NWP products.

Archive layout (all multi-byte values little-endian):

    magic        8 bytes  "NWPSTAT1"
    version      u32
    nlat, nlon   u32 each
    lat_start, dlat, lon_start, dlon   f64 each
    valid_time   i64   seconds since the Unix epoch, UTC
    source_label u16 length + UTF-8 bytes
    n_channels   u32
    per channel: var_code u16, level u16 (hPa, 0 = surface)
    payload:     n_channels planes of f32-le, each nlat*nlon row-major,
                 row 0 = northmost latitude; nothing may follow it

The channel list must be the canonical 69-channel order; anything else is
rejected on read. Each plane therefore sits at a fixed offset. Every plane
is read through one plane source, a `PlaneReader`: it opens an archive, or a
raw dump of a given `RawDumpLayout`, checks the payload's size, and reads
a plane at its offset with one seek and `readinto`, as a scorer asks for
it (`channel`) or for a state at once (`subset`), which is what
`read_archive(src, channels)` and `ingest_raw` are. Such a state holds the
planes asked for alone, in that order, named in its `channels`;
`write_archive` refuses it.
"""

from __future__ import annotations

import io
import os
import struct
import threading
from contextlib import closing
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import BinaryIO, Callable, Optional, Sequence, Union

import numpy as np

from .grids import (CHANNELS, N_CHANNELS, SURFACE_LEVEL, GridMismatchError,
                    GridSpec, InvalidChannelError, StateSet, Var, channel_name)

MAGIC = b"NWPSTAT1"
VERSION = 1

_FIXED_HEAD = struct.Struct("<8sIII4dq")   # magic, version, nlat, nlon, geo, time
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_CHAN = struct.Struct("<HH")

_CANONICAL_CODES = tuple((v.value, lvl) for v, lvl in CHANNELS)
_CANONICAL_DESCRIPTORS = b"".join(_CHAN.pack(*code) for code in _CANONICAL_CODES)

ChannelList = Sequence[tuple[Var, int]]


class ArchiveError(Exception):
    """Base class for archive read/write failures."""


class FormatError(ArchiveError):
    """Bad magic, version, or header structure."""


class TruncationError(ArchiveError):
    """Payload shorter than the header promises."""


class UnsupportedLayoutError(ArchiveError):
    """Channel list is not the canonical order."""


class DataError(ArchiveError):
    """A payload contains non-finite values."""


def payload_size(grid: GridSpec) -> int:
    """Byte size of the channel planes following the header."""
    return N_CHANNELS * grid.nlat * grid.nlon * 4


def write_archive(state: StateSet, dest: Union[BinaryIO, str, os.PathLike]) -> None:
    """Serialize a state to an archive. Byte output is a pure function of
    the state: identical inputs give identical files. A state that does not
    hold all 69 channels in order is a ValueError, raised before any byte is written."""
    if state.channels != CHANNELS:
        raise ValueError(f"state holds {len(state.channels)} planes; an archive "
                         f"holds all {N_CHANNELS} in the canonical order")
    if isinstance(dest, (str, bytes, os.PathLike)):
        with open(dest, "wb") as fh:
            write_archive(state, fh)
        return
    label = state.source_label.encode("utf-8")
    if len(label) > 0xFFFF:
        raise ValueError("source_label too long")
    g = state.grid
    epoch = int(state.valid_time.timestamp())
    dest.write(_FIXED_HEAD.pack(MAGIC, VERSION, g.nlat, g.nlon,
                                g.lat_start, g.dlat, g.lon_start, g.dlon, epoch))
    dest.write(_U16.pack(len(label)))
    dest.write(label)
    dest.write(_U32.pack(N_CHANNELS))
    dest.write(_CANONICAL_DESCRIPTORS)
    dest.write(np.ascontiguousarray(state.data, dtype="<f4"))   # no bytes copy


def _read_exact(src: BinaryIO, n: int, what: str) -> bytes:
    buf = src.read(n)
    if len(buf) != n:
        raise TruncationError(f"unexpected end of file while reading {what}")
    return buf


def _read_head(src: BinaryIO) -> tuple[GridSpec, datetime, str]:
    """Parse and check the header: magic, version and the canonical
    channel list, in five reads, so an unbuffered file is read in as few
    calls. Returns (grid, valid_time, source_label)."""
    head = _read_exact(src, _FIXED_HEAD.size, "header")
    magic, version, nlat, nlon, lat_start, dlat, lon_start, dlon, epoch = \
        _FIXED_HEAD.unpack(head)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    (label_len,) = _U16.unpack(_read_exact(src, 2, "label length"))
    label = _read_exact(src, label_len, "source label").decode("utf-8")
    (n_channels,) = _U32.unpack(_read_exact(src, 4, "channel count"))
    if (n_channels != N_CHANNELS   # before a read of any other count's descriptors
            or _read_exact(src, 4 * N_CHANNELS, "channel descriptors")
            != _CANONICAL_DESCRIPTORS):
        raise UnsupportedLayoutError("channel list is not the canonical 69-channel order")
    grid = GridSpec(nlat=nlat, nlon=nlon, lat_start=lat_start, dlat=dlat,
                    lon_start=lon_start, dlon=dlon)
    return grid, datetime.fromtimestamp(epoch, tz=timezone.utc), label


def _check_payload(src: BinaryIO, start: int, grid: GridSpec, order: ChannelList) -> None:
    """A TruncationError naming the channel it ends in if the payload at
    `start`, planes of `order`, is short; a FormatError if bytes follow it."""
    plane = grid.nlat * grid.nlon * 4
    expected = len(order) * plane
    size = src.seek(0, os.SEEK_END) - start
    if size < expected:
        raise TruncationError(f"payload truncated in channel "
                              f"{channel_name(*order[size // plane])} "
                              f"({size} of {expected} bytes)")
    if size > expected:
        raise FormatError("bytes follow the payload")


def read_archive(src: Union[BinaryIO, str, os.PathLike],
                 channels: Optional[ChannelList] = None,
                 finite: bool = False) -> StateSet:
    """Exact inverse of write_archive. With `channels`, a list of
    (variable, level), only those planes are kept, in that order. Either
    way the payload's size is checked first; with `finite` every plane is
    checked for NaN/Inf (see PlaneReader.subset)."""
    with closing(PlaneReader(src, finite=finite)) as reader:
        return reader.subset(CHANNELS if channels is None else channels)


def read_header(src: Union[BinaryIO, str, os.PathLike]) -> dict:
    """Parse and check only the header; used by the CLI `inspect` subcommand
    and by config validation. Holds the grid's fields and the GridSpec
    itself under "grid"."""
    if isinstance(src, (str, bytes, os.PathLike)):
        with open(src, "rb") as fh:
            return read_header(fh)
    grid, valid_time, label = _read_head(src)
    return {"version": VERSION, "grid": grid, **asdict(grid), "valid_time": valid_time,
            "source_label": label, "n_channels": N_CHANNELS}


class PlaneReader:
    """The planes of one open file, read one at a time: an archive, or with
    `layout` a raw dump. `src` is a path, which the reader opens unbuffered
    and close() closes, or an open binary file, which close() leaves open.
    It stands in for a state in verify.evaluate_run, which looks each plane
    up once with channel(), so a scorer holds a plane or two of it, not
    every plane it scores; subset() reads a state's planes at once.
    `unread` holds the channels whose planes no call has read yet.

    An archive's header is parsed and checked (magic, version, channel
    list, and that it is on `grid`, if given), and gives the reader its
    grid, valid_time and source_label; its payload follows the header. A
    raw dump has no header: it is on `grid`, its payload starts where
    `src` stands and holds the planes of `layout.channel_order`, rows
    reversed if `layout.scan` is "south-first", and the reader has
    `valid_time` and `source_label`. The payload's size is checked on
    opening and again before each plane is read at its offset, so a file
    cut short since its opening costs the read. With `finite`, NaN/Inf in
    a plane read is a DataError naming it. A channel the file does not
    hold is an InvalidChannelError, raised before any read.

    Of `takers` scorers sharing it, the first to ask for a channel reads
    its plane and the last drops it: each plane is read once, and held no
    longer than the scorers need it. An error opening or reading the file
    (ArchiveError, OSError, GridMismatchError off `grid`, or another
    ValueError), or a channel it does not hold, is raised as `fail(error)`,
    by default the error itself; after a failed read every call raises it.
    Safe to share across threads.
    """

    def __init__(self, src: Union[BinaryIO, str, os.PathLike],
                 grid: Optional[GridSpec] = None, takers: int = 1, finite: bool = False,
                 fail: Optional[Callable[[Exception], Exception]] = None,
                 layout: Optional[RawDumpLayout] = None,
                 valid_time: Optional[datetime] = None, source_label: str = ""):
        self.path = src
        self._takers, self._finite = takers, finite
        self._fail = fail or (lambda exc: exc)
        self._held: dict = {}   # channel -> [its plane, scorers yet to take it]
        self._error: Optional[Exception] = None
        self._lock = threading.Lock()
        self._own, self._fh = isinstance(src, (str, bytes, os.PathLike)), None
        try:
            self._fh = open(src, "rb", buffering=0) if self._own else src
            if layout is None:
                self.grid, self.valid_time, self.source_label = _read_head(self._fh)
                if grid is not None and self.grid != grid:
                    raise GridMismatchError(f"on {self.grid}, not {grid}")
                self._order, self._flip = CHANNELS, False
            else:
                self.grid, self.valid_time, self.source_label = grid, valid_time, source_label
                self._order, self._flip = layout.channel_order, layout.scan == "south-first"
            self._index = {ch: k for k, ch in enumerate(self._order)}
            self.unread = set(self._order)
            self._start = self._fh.tell()
            _check_payload(self._fh, self._start, self.grid, self._order)
        except (ArchiveError, OSError, ValueError) as exc:
            self.close()
            raise self._fail(exc) from None

    def _require(self, channels) -> None:
        """Raise fail(InvalidChannelError) for a channel of `channels` the
        file does not hold."""
        for ch in channels:
            if ch not in self._index:
                raise self._fail(InvalidChannelError(
                    f"no channel {ch[0]} at level {ch[1]} in the file")) from None

    def _read(self, channel, buf: np.ndarray) -> None:
        """Read the plane of `channel` into `buf`; the caller holds the lock."""
        if self._error is not None:
            raise self._error
        try:
            _check_payload(self._fh, self._start, self.grid, self._order)
            self._fh.seek(self._start + self._index[channel] * buf.nbytes)
            if self._fh.readinto(buf) != buf.nbytes:
                raise TruncationError("file shrank while being read")
            if self._flip:
                buf[:] = buf[::-1]
            if self._finite and not np.isfinite(buf).all():
                raise DataError(f"plane {channel_name(*channel)} contains NaN/Inf")
        except (ArchiveError, OSError, ValueError) as exc:
            self._error = self._fail(exc)
            self._held.clear()
            raise self._error from None
        self.unread.discard(channel)

    def _fill(self, slot: dict, spare) -> None:
        """Read the plane of each channel of `slot` into its buffer there,
        and of each other channel of `spare` into one spare plane, visiting
        them in file order."""
        with self._lock:
            visit = sorted(set(slot).union(spare), key=self._index.__getitem__)
            buf = np.empty(self.grid.shape, dtype="<f4") if len(visit) > len(slot) else None
            for ch in visit:
                self._read(ch, slot.get(ch, buf))

    def channel(self, variable: Var, level: int = SURFACE_LEVEL) -> np.ndarray:
        key = (variable, level)
        self._require((key,))
        with self._lock:
            held = self._held.get(key)
            if held is None:
                plane = np.empty(self.grid.shape, dtype="<f4")
                self._read(key, plane)
                held = self._held[key] = [plane, self._takers]
            held[1] -= 1
            if not held[1]:
                del self._held[key]
            return held[0]

    def check(self, channels) -> None:
        """Read each plane of `channels`, in file order, into one spare
        plane: with `finite`, a check that none holds NaN/Inf."""
        self._fill({}, channels)

    def subset(self, channels) -> StateSet:
        """A state of `channels`, in that order: each plane is read into its
        slot and, with `finite`, each other plane no call has read yet into
        one spare plane, in file order, so a DataError names the first
        plane in the file that holds NaN/Inf. A channel asked for twice is
        read once and copied."""
        channels = tuple(channels)
        self._require(channels)
        data = np.empty((len(channels),) + self.grid.shape, dtype="<f4")
        slot: dict = {}
        for k, ch in enumerate(channels):
            slot.setdefault(ch, k)
        self._fill({ch: data[k] for ch, k in slot.items()}, self.unread if self._finite else ())
        for k, ch in enumerate(channels):
            if slot[ch] != k:   # asked for twice: copy the plane read
                data[k] = data[slot[ch]]
        return StateSet(valid_time=self.valid_time, source_label=self.source_label,
                        grid=self.grid, data=data, channels=channels)

    def replace(self, **fields) -> "PlaneReader":
        """The reader with `valid_time` or `source_label` set in place of
        the header's, as StateSet.replace gives a state so: whoever scores
        either can label it the same way."""
        for name, value in fields.items():
            if name not in ("valid_time", "source_label"):
                raise TypeError(f"a reader's {name} is the file's")
            setattr(self, name, value)
        return self

    def close(self) -> None:
        """Close the file, if the reader opened it."""
        with self._lock:
            self._held.clear()
            if self._own and self._fh is not None:
                self._fh.close()


@dataclass(frozen=True)
class RawDumpLayout:
    """Layout of a headerless f32-le dump.

    channel_order: the (variable, level) sequence the dump stores, all 69
    channels once, or "canonical" for CHANNELS. scan: "north-first" rows as
    stored, or "south-first" rows to be reversed on ingest.
    """

    channel_order: Union[str, ChannelList] = CHANNELS
    scan: str = "north-first"

    def __post_init__(self):
        if self.scan not in ("north-first", "south-first"):
            raise ValueError(f"unknown scan order {self.scan!r}")
        order = CHANNELS if self.channel_order == "canonical" else self.channel_order
        if isinstance(order, str):
            raise ValueError(f"unknown channel order {order!r}")
        order = tuple(order)
        if len(order) != N_CHANNELS or set(order) != set(CHANNELS):
            raise ValueError("explicit channel order must cover all 69 channels once")
        object.__setattr__(self, "channel_order", order)


def ingest_raw(path: str, grid: GridSpec, layout: RawDumpLayout,
               valid_time: datetime, source_label: str,
               finite: bool = True, channels: ChannelList = CHANNELS) -> StateSet:
    """Load a raw dump into a north-first state of `channels`, in that
    order (all 69 in canonical order by default), as read_archive loads an
    archive: a dump of the wrong size is a TruncationError or FormatError,
    and with `finite` every plane of the dump, kept or not, is checked, the
    first holding NaN/Inf a DataError as soon as it is read. Without it the
    state is returned as read, for the caller to check with validate_state.
    """
    with closing(PlaneReader(path, grid, finite=finite, layout=layout,
                             valid_time=valid_time, source_label=source_label)) as reader:
        return reader.subset(channels)


def archive_bytes(state: StateSet) -> bytes:
    """Serialize to bytes in memory; the tests compare archives with it."""
    buf = io.BytesIO()
    write_archive(state, buf)
    return buf.getvalue()
