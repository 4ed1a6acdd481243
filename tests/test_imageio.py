"""PFM, PGM, and PLY readers/writers: roundtrips and format validation."""

import json

import numpy as np
import pytest

from tactrack.imageio import (read_pfm, read_pgm_mask, write_json, write_pfm,
                              write_pgm_mask, write_ply)

from .conftest import read_ply


class TestPFM:
    def test_single_channel_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(7, 5)).astype(np.float32)
        path = tmp_path / "depth.pfm"
        write_pfm(path, data)
        np.testing.assert_array_equal(read_pfm(path), data)

    def test_three_channel_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(4, 6, 3)).astype(np.float32)
        path = tmp_path / "normals.pfm"
        write_pfm(path, data)
        np.testing.assert_array_equal(read_pfm(path), data)

    def test_float64_input_cast_to_float32(self, tmp_path):
        data = np.array([[1.0 / 3.0]])
        path = tmp_path / "cast.pfm"
        write_pfm(path, data)
        out = read_pfm(path)
        assert out.dtype == np.float32
        assert out[0, 0] == np.float32(1.0 / 3.0)

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pfm(tmp_path / "bad.pfm", np.zeros((3, 3, 2)))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"P6\n1 1\n-1.0\n\x00\x00\x00\x00")
        with pytest.raises(ValueError):
            read_pfm(path)

    def test_truncated_data_names_file(self, tmp_path):
        path = tmp_path / "normals.pfm"
        write_pfm(path, np.zeros((8, 8, 3)))
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ValueError) as err:
            read_pfm(path)
        assert str(path) in str(err.value)
        assert "needs 768 bytes, found 668" in str(err.value)

    # The size line holds two ints > 0 and the scale line a finite nonzero
    # number, whose sign gives the byte order.
    @pytest.mark.parametrize("size, scale", [
        pytest.param(b"abc 2", b"-1.0", id="text_size"),
        pytest.param(b"2", b"-1.0", id="one_size"),
        pytest.param(b"2 2 2", b"-1.0", id="three_sizes"),
        pytest.param(b"-2 2", b"-1.0", id="negative_size"),
        pytest.param(b"0 2", b"-1.0", id="zero_size"),
        pytest.param(b"2 2", b"abc", id="text_scale"),
        pytest.param(b"2 2", b"0", id="zero_scale"),
        pytest.param(b"2 2", b"nan", id="nan_scale"),
        pytest.param(b"2 2", b"-inf", id="infinite_scale"),
    ])
    def test_bad_header_names_file(self, tmp_path, size, scale):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n" + size + b"\n" + scale + b"\n" + bytes(16))
        with pytest.raises(ValueError, match="bad.pfm"):
            read_pfm(path)

    def test_write_deterministic(self, tmp_path):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        write_pfm(tmp_path / "a.pfm", data)
        write_pfm(tmp_path / "b.pfm", data)
        assert (tmp_path / "a.pfm").read_bytes() == (tmp_path / "b.pfm").read_bytes()


    @pytest.mark.parametrize("shape, magic", [((3, 4), b"Pf"),
                                              ((3, 4, 3), b"PF")])
    def test_single_image_header_and_row_order(self, tmp_path, shape, magic):
        # Header lines, then little-endian float32 rows from the bottom up.
        data = np.arange(np.prod(shape), dtype=np.float64).reshape(shape) / 7
        path = tmp_path / "image.pfm"
        write_pfm(path, data)
        rows = b"".join(data[r].astype("<f4").tobytes() for r in (2, 1, 0))
        assert path.read_bytes() == magic + b"\n4 3\n-1.0\n" + rows

    @pytest.mark.parametrize("frames, height", [(1, 5), (3, 64), (5, 27)])
    def test_stack_is_the_concatenated_image(self, tmp_path, frames, height):
        # A list of frames writes the bytes of their top-to-bottom stack,
        # and reads back as it; the row counts straddle read_pfm's flip
        # blocks, odd and even.
        rng = np.random.default_rng(frames)
        stack = [rng.normal(size=(height, 4, 3)) for _ in range(frames)]
        write_pfm(tmp_path / "stack.pfm", stack)
        write_pfm(tmp_path / "whole.pfm", np.concatenate(stack))
        assert (tmp_path / "stack.pfm").read_bytes() == \
            (tmp_path / "whole.pfm").read_bytes()
        got = read_pfm(tmp_path / "stack.pfm")
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(
            got, np.concatenate(stack).astype(np.float32))

    def test_frames_of_different_shapes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="one shape"):
            write_pfm(tmp_path / "bad.pfm", [np.zeros((4, 4)), np.zeros((5, 4))])

    def test_big_endian_read(self, tmp_path):
        data = np.arange(130 * 3, dtype=np.float32).reshape(130, 3)
        path = tmp_path / "big.pfm"
        path.write_bytes(b"Pf\n3 130\n1.0\n" + data[::-1].astype(">f4").tobytes())
        got = read_pfm(path)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, data)


class TestPGM:
    def test_mask_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        mask = rng.uniform(size=(9, 11)) > 0.5
        path = tmp_path / "mask.pgm"
        write_pgm_mask(path, mask)
        np.testing.assert_array_equal(read_pgm_mask(path), mask)

    def test_all_false_mask(self, tmp_path):
        mask = np.zeros((3, 3), dtype=bool)
        path = tmp_path / "empty.pgm"
        write_pgm_mask(path, mask)
        assert not read_pgm_mask(path).any()

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "comment.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n255\n\xff\x00")
        np.testing.assert_array_equal(read_pgm_mask(path),
                                      [[True, False]])

    def test_maxval_one(self, tmp_path):
        path = tmp_path / "binary.pgm"
        path.write_bytes(b"P5\n3 1\n1\n\x01\x00\x01")
        np.testing.assert_array_equal(read_pgm_mask(path),
                                      [[True, False, True]])

    @pytest.mark.parametrize("maxval", [0, 256, 65535])
    def test_maxval_out_of_range_rejected(self, tmp_path, maxval):
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P5\n1 1\n%d\n\x00\x00" % maxval)
        with pytest.raises(ValueError):
            read_pgm_mask(path)

    def test_truncated_data_names_file(self, tmp_path):
        path = tmp_path / "mask.pgm"
        write_pgm_mask(path, np.ones((8, 8), dtype=bool))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError) as err:
            read_pgm_mask(path)
        assert str(path) in str(err.value)
        assert "needs 64 bytes, found 59" in str(err.value)

    def test_stack_is_the_concatenated_mask(self, tmp_path):
        rng = np.random.default_rng(5)
        stack = [rng.uniform(size=(6, 7)) > 0.5 for _ in range(3)]
        write_pgm_mask(tmp_path / "stack.pgm", stack)
        write_pgm_mask(tmp_path / "whole.pgm", np.concatenate(stack))
        assert (tmp_path / "stack.pgm").read_bytes() == \
            (tmp_path / "whole.pgm").read_bytes()
        np.testing.assert_array_equal(read_pgm_mask(tmp_path / "stack.pgm"),
                                      np.concatenate(stack))

    # Netpbm headers: values separated by any whitespace, '#' comments
    # between them, and one whitespace byte before the raster.
    @pytest.mark.parametrize("header", [
        pytest.param(b"P5 2 2 255 ", id="one_line"),
        pytest.param(b"P5\n2 2 255\n", id="size_and_maxval_on_one_line"),
        pytest.param(b"P5\n2 2\n# maxval next\n255\n",
                     id="comment_before_maxval"),
        pytest.param(b"P5#a\n2\t2 # b\n\n255\r", id="comments_and_blanks"),
    ])
    def test_netpbm_headers(self, tmp_path, header):
        path = tmp_path / "header.pgm"
        path.write_bytes(header + b"\xff\x00\x00\xff")
        np.testing.assert_array_equal(read_pgm_mask(path),
                                      [[True, False], [False, True]])

    def test_raster_starts_after_one_whitespace_byte(self, tmp_path):
        # A raster byte that reads as whitespace or '#' is pixel data.
        path = tmp_path / "raster.pgm"
        path.write_bytes(b"P5\n3 1\n255\n\n#\xff")
        np.testing.assert_array_equal(read_pgm_mask(path),
                                      [[False, False, True]])

    @pytest.mark.parametrize("data", [b"P5\n2 2\n", b"P5 2 x 255\n\x00",
                                      b"P56 2 2 255\n\x00"],
                             ids=["short", "not_a_number", "long_magic"])
    def test_bad_header_names_file(self, tmp_path, data):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="bad.pgm"):
            read_pgm_mask(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(ValueError):
            read_pgm_mask(path)


class TestPLY:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(20, 3))
        normals = rng.normal(size=(20, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        path = tmp_path / "cloud.ply"
        write_ply(path, points, normals)
        rp, rn = read_ply(path)
        np.testing.assert_allclose(rp, points, atol=1e-6)
        np.testing.assert_allclose(rn, normals, atol=1e-6)

    def test_same_bytes_as_row_by_row(self, tmp_path):
        # All rows are formatted in one operation, to the bytes of
        # formatting one row at a time.
        rng = np.random.default_rng(4)
        points = rng.normal(scale=50.0, size=(30, 3))
        normals = rng.normal(size=(30, 3))
        points[0] = [-0.0, 1e-9, -5e-7]
        path = tmp_path / "cloud.ply"
        write_ply(path, points, normals)
        header = (["ply", "format ascii 1.0", "element vertex 30"]
                  + [f"property float {axis}"
                     for axis in ("x", "y", "z", "nx", "ny", "nz")]
                  + ["end_header"])
        rows = ["%.6f %.6f %.6f %.6f %.6f %.6f" % (*p, *n)
                for p, n in zip(points, normals)]
        assert path.read_text() == "\n".join(header + rows) + "\n"

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(path, np.zeros((0, 3)), np.zeros((0, 3)))
        rp, rn = read_ply(path)
        assert rp.shape == (0, 3) and rn.shape == (0, 3)

    def test_header_declares_count(self, tmp_path):
        path = tmp_path / "cloud.ply"
        write_ply(path, np.zeros((5, 3)), np.zeros((5, 3)))
        assert "element vertex 5" in path.read_text()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("obj\nend_header\n")
        with pytest.raises(ValueError):
            read_ply(path)

    def test_header_without_end_rejected(self, tmp_path):
        path = tmp_path / "truncated.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n")
        with pytest.raises(ValueError):
            read_ply(path)


class TestJSON:
    def test_same_bytes_as_json_dump(self, tmp_path):
        # One encode and one write give what json.dump's chunked writes gave.
        record = {"b": [1.0 / 3.0, -0.0, 1e-300, None, True],
                  "a": {"z": "\u00e9", "y": [], "x": {}}, "c": 2}
        path = tmp_path / "record.json"
        write_json(path, record)
        with open(tmp_path / "reference.json", "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
        assert path.read_bytes() == (tmp_path / "reference.json").read_bytes()
        assert json.loads(path.read_text()) == record
