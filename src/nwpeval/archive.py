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
a FormatError. Each plane therefore sits at a fixed offset, and every plane
is read through `PlaneReader`.
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
                    GridSpec, InvalidChannelError, StateSet, Var, channel_name, plane_fault)

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
    """Bad magic, version, header structure or channel list."""


class TruncationError(ArchiveError):
    """Payload shorter than the header promises."""


class DataError(ArchiveError):
    """A payload contains non-finite values."""


def payload_size(grid: GridSpec) -> int:
    """Byte size of the channel planes following the header."""
    return N_CHANNELS * grid.nlat * grid.nlon * 4


def write_archive(state: Union[StateSet, PlaneReader],
                  dest: Union[BinaryIO, str, os.PathLike]) -> None:
    """Serialize a state, or the planes of a PlaneReader, to an archive,
    one plane at a time through `channel()`. Byte output is a pure function
    of the planes: identical inputs give identical files. A source whose
    `channels` are not all 69 in order is a ValueError, raised before any
    byte is written. A path `dest` is replaced by a whole archive alone: a
    new file `<dest>.<pid>.part`, renamed onto it after the last plane and
    removed on any failure, so `dest` may name the file `state` reads."""
    if state.channels != CHANNELS:
        raise ValueError(f"state holds {len(state.channels)} planes; an archive "
                         f"holds all {N_CHANNELS} in the canonical order")
    if isinstance(dest, (str, bytes, os.PathLike)):
        with open(part := f"{os.fsdecode(dest)}.{os.getpid()}.part", "xb") as fh:
            try:   # opened "xb": a taken name is a FileExistsError, not truncated
                write_archive(state, fh)
                fh.close()   # flushed before the rename
                os.replace(part, dest)
            except BaseException:
                os.remove(part)
                raise
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
    for channel in CHANNELS:
        dest.write(np.ascontiguousarray(state.channel(*channel), dtype="<f4"))   # no bytes copy


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
        raise FormatError("channel list is not the canonical 69-channel order")
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
    """Exact inverse of write_archive: `PlaneReader(src, finite=finite)`'s
    subset of `channels` (all 69 by default), its faults as the reader's."""
    with closing(PlaneReader(src, finite=finite)) as reader:
        return reader.subset(CHANNELS if channels is None else channels)


def read_header(path: Union[str, os.PathLike]) -> dict:
    """The header of the archive at `path`, judged by PlaneReader as every
    command judges it (header, channel list and payload size): the grid's
    fields, and the GridSpec itself under "grid"."""
    with closing(PlaneReader(path)) as reader:
        return {"version": VERSION, "grid": reader.grid, **asdict(reader.grid),
                "valid_time": reader.valid_time, "source_label": reader.source_label,
                "n_channels": len(reader.channels)}


class PlaneReader:
    """The planes of one file, read one at a time (`channel`) or as a state
    (`subset`): an archive, its header checked (on `grid`, if given), or with
    `layout` a raw dump on `grid` whose payload starts where `src` stands.
    `src` is a path, opened unbuffered and closed by close(), or an open
    binary file, which close() leaves open. The payload's size is checked on
    opening and before each plane read (a TruncationError naming the channel
    it ends in, or a FormatError for bytes after it). The reader has the
    file's grid, valid_time and source_label (the last two those given, if
    given), `channels`, those the file holds in its order, and `unread`, the
    channels no call has read yet. Of `takers` callers of channel(), the
    first to ask for a plane reads it and the last drops it. With `finite`,
    NaN/Inf in a plane read is a DataError. An error opening or reading the
    file (ArchiveError, OSError, GridMismatchError off `grid`, or another
    ValueError), or an InvalidChannelError for a channel it does not hold,
    raised before any read, is raised as `fail(error)`, the error itself by
    default; after a failed read every call raises it. Thread-safe.
    """

    def __init__(self, src: Union[BinaryIO, str, os.PathLike],
                 grid: Optional[GridSpec] = None, takers: int = 1, finite: bool = False,
                 fail: Optional[Callable[[Exception], Exception]] = None,
                 layout: Optional[RawDumpLayout] = None,
                 valid_time: Optional[datetime] = None, source_label: Optional[str] = None):
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
                self.grid, file_time, file_label = _read_head(self._fh)
                if grid is not None and self.grid != grid:
                    raise GridMismatchError(f"on {self.grid}, not {grid}")
                self.channels, self._flip = CHANNELS, False
            else:
                self.grid, file_time, file_label = grid, None, ""
                self.channels, self._flip = layout.channel_order, layout.scan == "south-first"
            self.valid_time = file_time if valid_time is None else valid_time
            self.source_label = file_label if source_label is None else source_label
            self._index = {ch: k for k, ch in enumerate(self.channels)}
            self.unread = set(self.channels)
            self._start = self._fh.tell()
            _check_payload(self._fh, self._start, self.grid, self.channels)
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
            _check_payload(self._fh, self._start, self.grid, self.channels)
            self._fh.seek(self._start + self._index[channel] * buf.nbytes)
            if self._fh.readinto(buf) != buf.nbytes:
                raise TruncationError("file shrank while being read")
            if self._flip:
                buf[:] = buf[::-1]
            if self._finite and (fault := plane_fault(channel, buf)):
                raise DataError(fault)
        except (ArchiveError, OSError, ValueError) as exc:
            self._error = self._fail(exc)
            self._held.clear()
            raise self._error from None
        self.unread.discard(channel)

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

    def subset(self, channels) -> StateSet:
        """A state of `channels`, in that order: each plane is read into its
        slot and, with `finite`, each other plane no call has read yet into
        one spare plane, in file order, so a DataError names the first
        plane in the file that holds NaN/Inf; `subset(())` is that check
        alone, and without `finite` reads nothing."""
        channels = tuple(channels)
        self._require(channels)
        state = StateSet(valid_time=self.valid_time, source_label=self.source_label,
                         grid=self.grid, channels=channels,   # refuses a channel twice
                         data=np.empty((len(channels),) + self.grid.shape, dtype="<f4"))
        slot = {ch: k for k, ch in enumerate(state.channels)}
        with self._lock:
            visit = sorted(set(slot).union(self.unread if self._finite else ()),
                           key=self._index.__getitem__)
            spare = np.empty(self.grid.shape, dtype="<f4") if len(visit) > len(slot) else None
            for ch in visit:
                self._read(ch, state.data[slot[ch]] if ch in slot else spare)
        return state

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
               channels: ChannelList = CHANNELS) -> StateSet:
    """The dump's north-first state of `channels` (all 69 by default): a
    finite PlaneReader of it with `layout`, its faults as the reader's."""
    with closing(PlaneReader(path, grid, finite=True, layout=layout,
                             valid_time=valid_time, source_label=source_label)) as reader:
        return reader.subset(channels)


def archive_bytes(state: StateSet) -> bytes:
    """Serialize to bytes in memory; the tests compare archives with it."""
    buf = io.BytesIO()
    write_archive(state, buf)
    return buf.getvalue()
