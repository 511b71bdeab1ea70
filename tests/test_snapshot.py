import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from vlasov_transport.snapshot import MAGIC, read_snapshot, write_snapshot

# byte-for-byte oracle for a 2x3 lattice of 0..5 at t = 0.5, computed by
# hand from the header layout and IEEE-754 little-endian doubles
HEADER_HEX = ("53564d534e4150310000000000000000"
              "0200000003000000"
              "000000000000e03f")
PAYLOAD_HEX = ("0000000000000000" "000000000000f03f" "0000000000000040"
               "0000000000000840" "0000000000001040" "0000000000001440")


def test_roundtrip_2d(tmp_path):
    path = tmp_path / "density.snap"
    values = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    write_snapshot(path, values, 0.25)
    got, time = read_snapshot(path)
    assert time == 0.25
    assert got.shape == (3, 4)
    assert np.array_equal(got, values)


def test_roundtrip_1d(tmp_path):
    path = tmp_path / "field.snap"
    values = np.array([0.5, -0.25, 3.0])
    write_snapshot(path, values, 1.0)
    got, time = read_snapshot(path)
    assert time == 1.0
    assert got.ndim == 1
    assert np.array_equal(got, values)


def test_bytes_match_frozen_layout(tmp_path):
    path = tmp_path / "frozen.snap"
    write_snapshot(path, np.arange(6.0).reshape(2, 3), 0.5)
    raw = path.read_bytes()
    assert raw.hex() == HEADER_HEX + PAYLOAD_HEX
    assert raw[:16] == MAGIC
    assert len(raw) == 32 + 6 * 8


def test_rewrite_is_byte_identical(tmp_path):
    a = tmp_path / "a.snap"
    b = tmp_path / "b.snap"
    values = np.sin(np.arange(20.0)).reshape(4, 5)
    write_snapshot(a, values, 0.125)
    write_snapshot(b, values.copy(), 0.125)
    assert a.read_bytes() == b.read_bytes()


def test_rejects_bad_rank(tmp_path):
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "bad.snap", np.zeros((2, 2, 2)), 0.0)
    # nv = 0 in the header marks a profile, so (n, 0) cannot round-trip
    with pytest.raises(ValueError, match="column"):
        write_snapshot(tmp_path / "bad.snap", np.zeros((3, 0)), 0.0)


def test_read_rejects_corrupt_files(tmp_path):
    good = tmp_path / "good.snap"
    write_snapshot(good, np.arange(6.0).reshape(2, 3), 0.5)
    raw = good.read_bytes()

    bad_magic = tmp_path / "magic.snap"
    bad_magic.write_bytes(b"X" + raw[1:])
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(bad_magic)

    short_header = tmp_path / "short_header.snap"
    short_header.write_bytes(raw[:20])
    with pytest.raises(ValueError, match="header"):
        read_snapshot(short_header)

    short_payload = tmp_path / "short_payload.snap"
    short_payload.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(short_payload)

    trailing = tmp_path / "trailing.snap"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_snapshot(trailing)

    # a header that claims more than the file holds, up to a count whose
    # byte size overflows an index, is read as a short payload
    for n in (2 ** 32 - 1, 2 ** 20):
        oversized = tmp_path / f"oversized_{n}.snap"
        oversized.write_bytes(MAGIC + struct.pack("<IId", n, n, 0.5))
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(oversized)


# any float64, specials included: -0.0, NaN payloads and infinities
any_doubles = st.floats(allow_nan=True, allow_infinity=True, width=64)
snapshot_arrays = st.one_of(
    arrays(np.float64, array_shapes(min_dims=1, max_dims=1, min_side=0,
                                    max_side=12), elements=any_doubles),
    arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1,
                                    max_side=9), elements=any_doubles))


@settings(max_examples=200, deadline=None)
@given(snapshot_arrays, any_doubles)
def test_roundtrip_is_bitwise(tmp_path_factory, values, time):
    path = tmp_path_factory.mktemp("roundtrip") / "level.snap"
    write_snapshot(path, values, time)
    got, got_time = read_snapshot(path)
    assert got.shape == values.shape
    assert got.tobytes() == values.tobytes()
    assert np.float64(got_time).tobytes() == np.float64(time).tobytes()


@settings(max_examples=200, deadline=None)
@given(snapshot_arrays, st.data())
def test_damaged_files_are_rejected(tmp_path_factory, values, data):
    path = tmp_path_factory.mktemp("damaged") / "level.snap"
    write_snapshot(path, values, 0.5)
    raw = path.read_bytes()
    header = 32
    damaged = [(raw[:data.draw(st.integers(0, header - 1))], "header"),
               (raw + data.draw(st.binary(min_size=1, max_size=16)),
                "trailing")]
    if len(raw) > header:
        cut = data.draw(st.integers(header, len(raw) - 1))
        damaged.append((raw[:cut], "payload"))
    for content, fragment in damaged:
        path.write_bytes(content)
        with pytest.raises(ValueError, match=fragment):
            read_snapshot(path)
