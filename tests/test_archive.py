import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwpeval import archive
from nwpeval.archive import (DataError, FormatError, PlaneReader, RawDumpLayout,
                             TruncationError, UnsupportedLayoutError, archive_bytes,
                             ingest_raw, payload_size, read_archive,
                             read_header, write_archive)
from nwpeval.grids import (CHANNELS, N_CHANNELS, GridSpec, InvalidChannelError,
                           StateSet, Var, channel_name, flat_channel_index)
from tests.conftest import random_state


def states_equal(a, b) -> bool:
    return (a.valid_time == b.valid_time and a.source_label == b.source_label
            and a.grid == b.grid and np.array_equal(a.data, b.data))


class CountingFile(io.BytesIO):
    """An archive in memory that counts its plane reads (readinto calls)."""
    planes = 0

    def readinto(self, buf):
        self.planes += 1
        return super().readinto(buf)



class TestRoundTrip:
    def test_round_trip_bitwise(self, small_grid):
        s = random_state(small_grid, seed=1, label="gfs")
        buf = io.BytesIO(archive_bytes(s))
        assert states_equal(read_archive(buf), s)

    def test_valid_time_to_the_second(self, small_grid):
        from datetime import datetime, timezone
        s = random_state(small_grid, seed=2)
        s = s.replace(valid_time=datetime(2023, 6, 16, 0, 0, 59, tzinfo=timezone.utc))
        out = read_archive(io.BytesIO(archive_bytes(s)))
        assert out.valid_time == s.valid_time

    def test_deterministic_bytes(self, small_grid):
        s = random_state(small_grid, seed=3)
        assert archive_bytes(s) == archive_bytes(s)

    @settings(max_examples=30, deadline=None)
    @given(nlat=st.integers(2, 8), nlon=st.integers(2, 12),
           seed=st.integers(0, 10_000),
           label=st.text(min_size=0, max_size=12))
    def test_round_trip_property(self, nlat, nlon, seed, label):
        grid = GridSpec(nlat=nlat, nlon=nlon, lat_start=90.0,
                        dlat=min(10.0, 180.0 / nlat),
                        lon_start=0.0, dlon=360.0 / max(nlon, 2) / 2)
        s = random_state(grid, seed=seed, label=label)
        assert states_equal(read_archive(io.BytesIO(archive_bytes(s))), s)

    def test_file_round_trip(self, tmp_path, small_grid):
        s = random_state(small_grid, seed=4)
        path = tmp_path / "state.nws"
        write_archive(s, str(path))
        assert states_equal(read_archive(str(path)), s)

    @pytest.mark.parametrize("make", [
        lambda d: d.astype(np.float64),
        lambda d: d.astype(">f4"),
        lambda d: np.ascontiguousarray(d[:, ::-1])[:, ::-1],
        lambda d: np.asfortranarray(d),
    ], ids=["float64", "big-endian", "reversed-view", "fortran-order"])
    def test_written_from_any_layout(self, small_grid, make):
        s = random_state(small_grid, seed=5)
        data = make(s.data)
        assert np.array_equal(data, s.data)
        odd = s.replace()
        # StateSet stores contiguous float32 itself; set the attribute
        # directly so write_archive's own conversion is what is tested
        object.__setattr__(odd, "data", data)
        assert archive_bytes(odd) == archive_bytes(s)


class TestPayloadSize:
    def test_canonical_payload_size(self):
        assert payload_size(GridSpec.canonical()) == 69 * 721 * 1440 * 4 == 286_554_240

    def test_small_grid_file_size(self, small_grid):
        s = random_state(small_grid, seed=5, label="ab")
        raw = archive_bytes(s)
        # header: fixed 60 bytes + 2 + label + 4 + 69*4 channel descriptors
        header = 60 + 2 + 2 + 4 + N_CHANNELS * 4
        assert len(raw) == header + payload_size(small_grid)


class TestErrors:
    def test_bad_magic(self, small_grid):
        raw = bytearray(archive_bytes(random_state(small_grid, seed=6)))
        raw[0] ^= 0xFF
        with pytest.raises(FormatError):
            read_archive(io.BytesIO(bytes(raw)))

    def test_truncated_mid_plane_names_channel(self, small_grid):
        raw = archive_bytes(random_state(small_grid, seed=7))
        plane = small_grid.nlat * small_grid.nlon * 4
        cut = raw[:len(raw) - 63 * plane - plane // 2]  # inside channel 5
        with pytest.raises(TruncationError) as exc:
            read_archive(io.BytesIO(cut))
        var, lvl = CHANNELS[5]
        assert f"{var.name}{lvl}" in str(exc.value)

    def test_truncated_header(self):
        with pytest.raises(TruncationError):
            read_archive(io.BytesIO(b"NWPSTAT1\x01\x00"))

    def test_non_canonical_channel_list(self, small_grid):
        raw = bytearray(archive_bytes(random_state(small_grid, seed=8, label="")))
        # swap the first two channel descriptors (after 60+2+0+4 bytes)
        off = 66
        raw[off:off + 4], raw[off + 4:off + 8] = raw[off + 4:off + 8], raw[off:off + 4]
        with pytest.raises(UnsupportedLayoutError):
            read_archive(io.BytesIO(bytes(raw)))

    def test_bad_version(self, small_grid):
        raw = bytearray(archive_bytes(random_state(small_grid, seed=9)))
        raw[8:12] = struct.pack("<I", 7)
        with pytest.raises(FormatError):
            read_archive(io.BytesIO(bytes(raw)))

    def test_bytes_after_payload(self, small_grid):
        raw = archive_bytes(random_state(small_grid, seed=9)) + b"\0"
        with pytest.raises(FormatError, match="follow the payload"):
            read_archive(io.BytesIO(raw))


class TestSubsetRead:
    @settings(max_examples=40, deadline=None)
    @given(nlat=st.integers(2, 8), nlon=st.integers(2, 12),
           seed=st.integers(0, 10_000),
           channels=st.lists(st.sampled_from(CHANNELS), min_size=1, max_size=12),
           finite=st.booleans())
    def test_planes_equal_the_full_read(self, nlat, nlon, seed, channels, finite):
        # channels may repeat: a repeated channel is read once and copied
        grid = GridSpec(nlat=nlat, nlon=nlon, lat_start=90.0,
                        dlat=min(10.0, 180.0 / nlat),
                        lon_start=0.0, dlon=360.0 / max(nlon, 2) / 2)
        raw = archive_bytes(random_state(grid, seed=seed, label="sub"))
        full = read_archive(io.BytesIO(raw))
        sub = read_archive(io.BytesIO(raw), channels, finite)
        assert (sub.grid, sub.valid_time, sub.source_label) == \
            (full.grid, full.valid_time, full.source_label)
        want = full.data[[flat_channel_index(v, lvl) for v, lvl in channels]]
        assert sub.data.tobytes() == want.tobytes()
        assert sub.channels == tuple(channels)
        for var, lvl in channels:
            assert sub.channel(var, lvl).tobytes() == full.channel(var, lvl).tobytes()

    def test_from_a_path(self, tmp_path, small_grid):
        s = random_state(small_grid, seed=11)
        path = tmp_path / "state.nws"
        write_archive(s, str(path))
        sub = read_archive(str(path), [(Var.Z, 500), (Var.MSLP, 0)])
        assert np.array_equal(sub.data[0], s.channel(Var.Z, 500))
        assert np.array_equal(sub.data[1], s.channel(Var.MSLP))

    @pytest.mark.parametrize("cut", ["header", "first-plane", "mid-payload",
                                     "last-byte"])
    def test_truncated_raises_as_a_full_read(self, small_grid, cut):
        raw = archive_bytes(random_state(small_grid, seed=12))
        plane = small_grid.nlat * small_grid.nlon * 4
        header = len(raw) - payload_size(small_grid)
        keep = {"header": header - 3, "first-plane": header + plane // 2,
                "mid-payload": header + 30 * plane + 5, "last-byte": len(raw) - 1}[cut]
        with pytest.raises(TruncationError) as full:
            read_archive(io.BytesIO(raw[:keep]))
        # the subset asks only for a plane the short file still holds
        with pytest.raises(TruncationError) as sub:
            read_archive(io.BytesIO(raw[:keep]), [CHANNELS[0]])
        assert str(sub.value) == str(full.value)

    def test_bytes_after_payload(self, small_grid):
        raw = archive_bytes(random_state(small_grid, seed=13)) + b"\0"
        with pytest.raises(FormatError, match="follow the payload"):
            read_archive(io.BytesIO(raw), [(Var.T2, 0)])

    def test_subset_state_looks_up_its_channels(self, small_grid):
        s = random_state(small_grid, seed=14)
        sub = read_archive(io.BytesIO(archive_bytes(s)), [(Var.Z, 500), (Var.T2, 0)])
        assert np.array_equal(sub.channel(Var.Z, 500), s.channel(Var.Z, 500))
        assert np.array_equal(sub.field(Var.T2).values, s.channel(Var.T2))
        with pytest.raises(ValueError, match="holds no MSLP plane"):
            sub.field(Var.MSLP)
        with pytest.raises(InvalidChannelError):
            sub.channel(Var.Z, 501)

    @pytest.mark.parametrize("read, channels", [
        pytest.param(read_archive, [(Var.Z, 501), (Var.MSLP, 0)], id="channels0"),
        pytest.param(read_archive, [(Var.T2, 0), (Var.MSLP, 500)], id="channels1"),
        pytest.param(lambda src, channels: PlaneReader(src).subset(channels),
                     [(Var.T2, 0), (Var.MSLP, 500)], id="reader-subset"),
        pytest.param(lambda src, channels: PlaneReader(src).channel(*channels[0]),
                     [(Var.Z, 501)], id="reader-channel")])
    def test_subset_of_a_channel_not_held_reads_nothing(self, small_grid, read, channels):
        # no plane in file order matches that slot: it used to be np.empty's,
        # and a PlaneReader's KeyError
        src = CountingFile(archive_bytes(random_state(small_grid, seed=16)))
        with pytest.raises(InvalidChannelError, match="no channel"):
            read(src, channels)
        assert src.planes == 0

    @pytest.mark.parametrize("read, planes", [
        (read_archive, 2),
        (lambda src, channels: PlaneReader(src).subset(channels), 2),
        (lambda src, channels: read_archive(src, channels, finite=True), N_CHANNELS)],
        ids=["read_archive", "reader-subset", "finite"])
    def test_a_channel_asked_for_twice_is_read_once(self, small_grid, read, planes):
        # and copied; with finite every other plane is read once, into a spare
        s = random_state(small_grid, seed=17)
        src = CountingFile(archive_bytes(s))
        channels = [(Var.Z, 500), (Var.MSLP, 0), (Var.Z, 500)]
        sub = read(src, channels)
        assert src.planes == planes
        assert sub.channels == tuple(channels)
        for plane, ch in zip(sub.data, channels):
            assert np.array_equal(plane, s.channel(*ch))

    def test_write_rejects_a_subset_state(self, tmp_path, small_grid):
        s = random_state(small_grid, seed=15)
        sub = StateSet(valid_time=s.valid_time, source_label=s.source_label,
                       grid=small_grid, data=s.data[:9], channels=CHANNELS[:9])
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="9 planes"):
            write_archive(sub, buf)
        assert buf.getvalue() == b""
        path = tmp_path / "sub.nws"
        with pytest.raises(ValueError):
            write_archive(sub, str(path))
        assert not path.exists()


class TestIngestRaw:
    def _payload(self, state) -> bytes:
        return np.ascontiguousarray(state.data, dtype="<f4").tobytes()

    def test_canonical_layout_identity(self, tmp_path, small_grid):
        s = random_state(small_grid, seed=10, label="raw")
        path = tmp_path / "dump.bin"
        path.write_bytes(self._payload(s))
        out = ingest_raw(str(path), small_grid, RawDumpLayout(),
                         valid_time=s.valid_time, source_label="raw")
        assert states_equal(out, s)
        # "canonical" is stored as the channel tuple; no other name is known
        assert RawDumpLayout(channel_order="canonical").channel_order == CHANNELS
        with pytest.raises(ValueError, match="unknown channel order"):
            RawDumpLayout(channel_order="natural")

    def test_south_first_rows_reversed(self, tmp_path):
        grid = GridSpec(nlat=3, nlon=4, lat_start=90, dlat=45, lon_start=0, dlon=90)
        s = random_state(grid, seed=11)
        path = tmp_path / "dump.bin"
        # store rows south-first, i.e. flipped relative to the state
        path.write_bytes(np.ascontiguousarray(
            s.data[:, ::-1, :], dtype="<f4").tobytes())
        out = ingest_raw(str(path), grid, RawDumpLayout(scan="south-first"),
                         valid_time=s.valid_time, source_label="x")
        assert np.array_equal(out.data, s.data)
        # element check on a 3x4 fixture: stored row 0 is the southmost
        assert out.data[0, 2, 1] == s.data[0, 2, 1]

    def test_explicit_channel_order(self, tmp_path, small_grid):
        s = random_state(small_grid, seed=12)
        order = list(CHANNELS)[::-1]
        perm_data = np.stack([s.channel(v, l) for v, l in order])
        path = tmp_path / "dump.bin"
        path.write_bytes(np.ascontiguousarray(perm_data, dtype="<f4").tobytes())
        out = ingest_raw(str(path), small_grid,
                         RawDumpLayout(channel_order=order),
                         valid_time=s.valid_time, source_label="x")
        assert np.array_equal(out.data, s.data)

    def test_one_plane_short(self, tmp_path, small_grid):
        # the size check of read_archive: a short dump names the channel it
        # ends in, in the dump's own order; a long one is a FormatError
        s = random_state(small_grid, seed=13)
        plane = small_grid.nlat * small_grid.nlon * 4
        path = tmp_path / "dump.bin"
        for order, last in ((CHANNELS, "V50"), (CHANNELS[::-1], "MSLP")):
            path.write_bytes(self._payload(s)[:-plane])
            with pytest.raises(TruncationError, match=f"in channel {last} "):
                ingest_raw(str(path), small_grid, RawDumpLayout(channel_order=order),
                           valid_time=s.valid_time, source_label="x")
        path.write_bytes(self._payload(s) + b"\0")
        with pytest.raises(FormatError, match="bytes follow the payload"):
            ingest_raw(str(path), small_grid, RawDumpLayout(),
                       valid_time=s.valid_time, source_label="x")

    def test_nan_policy(self, tmp_path, small_grid, caplog):
        s = random_state(small_grid, seed=14)
        data = s.data.copy()
        data[0, 0, 0] = np.nan
        path = tmp_path / "dump.bin"
        path.write_bytes(np.ascontiguousarray(data, dtype="<f4").tobytes())
        with pytest.raises(DataError, match="plane MSLP contains NaN/Inf"):
            ingest_raw(str(path), small_grid, RawDumpLayout(),
                       valid_time=s.valid_time, source_label="x")
        out = ingest_raw(str(path), small_grid, RawDumpLayout(),
                         valid_time=s.valid_time, source_label="x",
                         finite=False)
        assert np.isnan(out.data[0, 0, 0])
        assert caplog.text == ""   # reported once, by the caller's validate_state

    def test_nan_in_the_last_stored_plane_names_its_channel(self, tmp_path, small_grid,
                                                            caplog):
        # a south-first dump in a permuted order: the error names the
        # canonical channel of the plane the NaN is stored in
        s = random_state(small_grid, seed=17)
        order = [CHANNELS[k] for k in np.random.default_rng(3).permutation(N_CHANNELS)]
        stored = np.stack([s.channel(*ch)[::-1] for ch in order])
        stored[-1, 0, 2] = np.nan   # stored row 0 is the southmost
        path = tmp_path / "dump.bin"
        path.write_bytes(np.ascontiguousarray(stored, dtype="<f4").tobytes())
        layout = RawDumpLayout(channel_order=order, scan="south-first")
        name = channel_name(*order[-1])
        with pytest.raises(DataError, match=f"plane {name} contains NaN/Inf"):
            ingest_raw(str(path), small_grid, layout, valid_time=s.valid_time,
                       source_label="x")
        out = ingest_raw(str(path), small_grid, layout, valid_time=s.valid_time,
                         source_label="x", finite=False)
        expected = s.data.copy()
        expected[flat_channel_index(*order[-1]), -1, 2] = np.nan
        assert np.array_equal(out.data, expected, equal_nan=True)
        assert caplog.text == ""   # reported once, by the caller's validate_state


def test_round_trip_through_a_path_object(tmp_path, small_grid):
    s = random_state(small_grid, seed=18)
    path = tmp_path / "state.nws"
    write_archive(s, path)
    assert path.read_bytes() == archive_bytes(s)
    assert states_equal(read_archive(path), s)


def test_read_header(tmp_path, small_grid):
    s = random_state(small_grid, seed=15, label="hdr-test")
    path = tmp_path / "state.nws"
    write_archive(s, str(path))
    for src in (str(path), path):
        h = read_header(src)
        assert h["nlat"] == small_grid.nlat
        assert h["source_label"] == "hdr-test"
        assert h["n_channels"] == N_CHANNELS
        assert h["valid_time"] == s.valid_time


def test_read_header_checks_version_and_channels(small_grid):
    raw = bytearray(archive_bytes(random_state(small_grid, seed=16)))
    raw[8:12] = struct.pack("<I", 2)
    with pytest.raises(FormatError, match="version 2"):
        read_header(io.BytesIO(bytes(raw)))
    raw = bytearray(archive_bytes(random_state(small_grid, seed=16, label="")))
    raw[66:70], raw[70:74] = raw[70:74], raw[66:70]
    with pytest.raises(UnsupportedLayoutError):
        read_header(io.BytesIO(bytes(raw)))


class TestFileOwnership:
    def test_a_callers_open_file_is_left_open(self, tmp_path, small_grid):
        path = tmp_path / "state.nws"
        write_archive(random_state(small_grid, seed=19), path)
        with open(path, "rb") as fh:
            for read in (read_archive, read_header, lambda src: PlaneReader(src).close()):
                fh.seek(0)
                read(fh)
                assert not fh.closed

    @pytest.mark.parametrize("damage", ["none", "bad-magic", "truncated"])
    @pytest.mark.parametrize("read", [read_archive, read_header])
    def test_a_file_opened_by_its_path_is_closed(self, tmp_path, small_grid, monkeypatch,
                                                 read, damage):
        raw = archive_bytes(random_state(small_grid, seed=20))
        raw = {"none": raw, "bad-magic": b"X" + raw[1:], "truncated": raw[:-7]}[damage]
        path = tmp_path / "state.nws"
        path.write_bytes(raw)
        opened = []
        monkeypatch.setattr(archive, "open", lambda *a, **k: opened.append(open(*a, **k))
                            or opened[-1], raising=False)
        if damage == "none" or (damage == "truncated" and read is read_header):
            read(path)   # a header read does not look at the payload
        else:
            with pytest.raises((FormatError, TruncationError)):
                read(path)
        assert len(opened) == 1 and opened[0].closed
