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
rejected on read. Each plane therefore sits at a fixed offset, so
`read_archive(src, channels)` reads only the requested planes, one seek
and `readinto` each (every plane when it is asked to check them all). The
result is a state of those planes alone, in the order asked for, named in
its `channels`; `write_archive` refuses it.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import BinaryIO, Optional, Sequence, Union

import numpy as np

from .grids import (CHANNELS, N_CHANNELS, GridSpec, InvalidChannelError,
                    StateSet, Var, channel_name)

MAGIC = b"NWPSTAT1"
VERSION = 1

_FIXED_HEAD = struct.Struct("<8sIII4dq")   # magic, version, nlat, nlon, geo, time
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_CHAN = struct.Struct("<HH")

_CANONICAL_CODES = tuple((v.value, lvl) for v, lvl in CHANNELS)

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


def write_archive(state: StateSet, dest: Union[BinaryIO, str]) -> None:
    """Serialize a state to an archive. Byte output is a pure function of
    the state: identical inputs give identical files. A state that does not
    hold all 69 channels in order is a ValueError, raised before any byte is written."""
    if state.channels != CHANNELS:
        raise ValueError(f"state holds {len(state.channels)} planes; an archive "
                         f"holds all {N_CHANNELS} in the canonical order")
    if isinstance(dest, (str, bytes)):
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
    for code, lvl in _CANONICAL_CODES:
        dest.write(_CHAN.pack(code, lvl))
    dest.write(np.ascontiguousarray(state.data, dtype="<f4"))   # no bytes copy


def _read_exact(src: BinaryIO, n: int, what: str) -> bytes:
    buf = src.read(n)
    if len(buf) != n:
        raise TruncationError(f"unexpected end of file while reading {what}")
    return buf


def _read_head(src: BinaryIO) -> tuple[GridSpec, datetime, str]:
    """Parse and check the header: magic, version and the canonical
    channel list. Returns (grid, valid_time, source_label)."""
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
    codes = []
    for k in range(n_channels):
        codes.append(_CHAN.unpack(_read_exact(src, 4, f"channel descriptor {k}")))
    if tuple(codes) != _CANONICAL_CODES:
        raise UnsupportedLayoutError("channel list is not the canonical 69-channel order")
    grid = GridSpec(nlat=nlat, nlon=nlon, lat_start=lat_start, dlat=dlat,
                    lon_start=lon_start, dlon=dlon)
    return grid, datetime.fromtimestamp(epoch, tz=timezone.utc), label


def _read_planes(src: BinaryIO, start: int, grid: GridSpec, order: ChannelList,
                 channels: ChannelList, finite: bool = False,
                 flip: bool = False) -> np.ndarray:
    """The planes of `channels`, in that order, from a payload at `start`
    holding the planes of `order`: visited in file order, one seek and
    readinto each, rows reversed with `flip`. A plane not kept is skipped,
    or with `finite` read into a spare buffer; with `finite`, NaN/Inf in a
    plane is a DataError naming it. Before any read, a channel not in
    `order` is an InvalidChannelError, and a payload that does not end the
    file a TruncationError naming the channel it ends in (short) or a
    FormatError (long). A channel asked for twice is copied."""
    slot = {}
    for k, ch in enumerate(channels):
        if ch not in order:
            raise InvalidChannelError(f"no channel {ch[0]} at level {ch[1]} in the file")
        slot.setdefault(ch, k)
    plane = grid.nlat * grid.nlon * 4
    expected = len(order) * plane
    size = src.seek(0, os.SEEK_END) - start
    if size < expected:
        raise TruncationError(f"payload truncated in channel "
                              f"{channel_name(*order[size // plane])} "
                              f"({size} of {expected} bytes)")
    if size > expected:
        raise FormatError("bytes follow the payload")
    data = np.empty((len(channels), grid.nlat, grid.nlon), dtype="<f4")
    spare = np.empty(grid.shape, dtype="<f4") if finite else None
    for k, ch in enumerate(order):
        buf = data[slot[ch]] if ch in slot else spare
        if buf is None:
            continue
        src.seek(start + k * plane)
        if src.readinto(buf) != plane:
            raise TruncationError("file shrank while being read")
        if flip:
            buf[:] = buf[::-1]
        if finite and not np.isfinite(buf).all():
            raise DataError(f"plane {channel_name(*ch)} contains NaN/Inf")
    for k, ch in enumerate(channels):
        if slot[ch] != k:   # asked for twice: copy the plane read
            data[k] = data[slot[ch]]
    return data


def read_archive(src: Union[BinaryIO, str],
                 channels: Optional[ChannelList] = None,
                 finite: bool = False) -> StateSet:
    """Exact inverse of write_archive. With `channels`, a list of
    (variable, level), only those planes are kept, in that order. Either
    way the payload's size is checked first; with `finite` every plane is
    checked for NaN/Inf (see _read_planes)."""
    if isinstance(src, (str, bytes)):
        with open(src, "rb") as fh:
            return read_archive(fh, channels, finite)
    grid, valid_time, label = _read_head(src)
    channels = CHANNELS if channels is None else tuple(channels)
    data = _read_planes(src, src.tell(), grid, CHANNELS, channels, finite)
    return StateSet(valid_time=valid_time, source_label=label, grid=grid, data=data,
                    channels=channels)


def read_header(src: Union[BinaryIO, str]) -> dict:
    """Parse and check only the header; used by the CLI `inspect` subcommand
    and by config validation. Holds the grid's fields and the GridSpec
    itself under "grid"."""
    if isinstance(src, (str, bytes)):
        with open(src, "rb") as fh:
            return read_header(fh)
    grid, valid_time, label = _read_head(src)
    return {"version": VERSION, "grid": grid, **asdict(grid), "valid_time": valid_time,
            "source_label": label, "n_channels": N_CHANNELS}


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
               nan_policy: str = "error") -> StateSet:
    """Load a raw dump into a canonical-order, north-first state, each
    plane read into its canonical slot, so no second copy is made. A dump
    of the wrong size is a TruncationError or FormatError (see _read_planes).

    nan_policy: "error" raises DataError at the first plane holding
    NaN/Inf, as soon as it is read; "warn" returns the state as read, for
    the caller to check with validate_state.
    """
    with open(path, "rb") as fh:
        data = _read_planes(fh, 0, grid, layout.channel_order, CHANNELS,
                            finite=nan_policy == "error",
                            flip=layout.scan == "south-first")
    return StateSet(valid_time=valid_time, source_label=source_label,
                    grid=grid, data=data)


def archive_bytes(state: StateSet) -> bytes:
    """Serialize to bytes in memory; the tests compare archives with it."""
    buf = io.BytesIO()
    write_archive(state, buf)
    return buf.getvalue()
