import json
import struct

import numpy as np
import pytest

from regselect.experiments.dataio import FORMAT_VERSION, load_dataset, save_dataset, write_csv
from regselect.operators import ConvolutionOperator, DenseOperator, IdentityOperator
from regselect.selection import TrainingSet


def toy_data(rng, m, d, n=5):
    return TrainingSet(rng.standard_normal((n, m)), rng.standard_normal((n, d)))


class TestDatasetRoundTrip:
    def test_dense_operator(self, tmp_path):
        rng = np.random.default_rng(0)
        op = DenseOperator(rng.standard_normal((6, 4)))
        data = toy_data(rng, 6, 4)
        path = tmp_path / "d.bin"
        save_dataset(path, {"model": "toy", "d": 4}, op, data)
        info, op2, data2 = load_dataset(path)
        assert info == {"model": "toy", "d": 4}
        np.testing.assert_array_equal(op2.matrix, op.matrix)
        np.testing.assert_array_equal(data2.ys, data.ys)
        np.testing.assert_array_equal(data2.xs, data.xs)

    def test_convolution_operator(self, tmp_path):
        rng = np.random.default_rng(1)
        op = ConvolutionOperator(rng.standard_normal(8))
        data = toy_data(rng, 8, 8)
        path = tmp_path / "c.bin"
        save_dataset(path, {"model": "deblur"}, op, data)
        _, op2, _ = load_dataset(path)
        assert isinstance(op2, ConvolutionOperator)
        np.testing.assert_array_equal(op2.kernel, op.kernel)

    def test_identity_operator(self, tmp_path):
        rng = np.random.default_rng(2)
        data = toy_data(rng, 5, 5)
        path = tmp_path / "i.bin"
        save_dataset(path, {"model": "denoise"}, IdentityOperator(5), data)
        _, op2, _ = load_dataset(path)
        assert isinstance(op2, IdentityOperator)
        assert op2.dim == 5

    def test_image_shaped_truths(self, tmp_path):
        rng = np.random.default_rng(3)
        data = TrainingSet(rng.random((4, 3, 3)), rng.random((4, 3, 3)))
        path = tmp_path / "img.bin"
        save_dataset(path, {"model": "tv"}, IdentityOperator(9), data)
        _, _, data2 = load_dataset(path)
        assert data2.xs.shape == (4, 3, 3)
        np.testing.assert_array_equal(data2.xs, data.xs)

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(4)
        op = DenseOperator(rng.standard_normal((4, 4)))
        data = toy_data(rng, 4, 4)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(a, {"model": "toy"}, op, data)
        save_dataset(b, {"model": "toy"}, op, data)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_dataset(path)

    def test_unsupported_version_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "v.bin"
        save_dataset(path, {"model": "toy"}, IdentityOperator(3), toy_data(rng, 3, 3))
        raw = bytearray(path.read_bytes())
        raw[4] = FORMAT_VERSION + 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "t.bin"
        save_dataset(path, {"model": "toy"}, IdentityOperator(3), toy_data(rng, 3, 3))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_dataset(path)

    @pytest.mark.parametrize("kind, names", [("identity", ["ys"]),
                                             ("identity", ["xs"]),
                                             ("dense", ["ys", "xs"])],
                             ids=["no-xs", "no-ys", "no-operator"])
    def test_missing_array_rejected(self, tmp_path, kind, names):
        meta = {"format_version": FORMAT_VERSION, "model": {"model": "toy"},
                "operator": {"kind": kind, "dim": 2},
                "arrays": [{"name": name, "shape": [1, 2]} for name in names]}
        blob = json.dumps(meta).encode("utf-8")
        path = tmp_path / "m.bin"
        path.write_bytes(b"RSEL" + struct.pack("<IQ", FORMAT_VERSION, len(blob)) + blob
                         + np.zeros(2 * len(names), dtype="<f8").tobytes())
        with pytest.raises(ValueError, match="lacks arrays"):
            load_dataset(path)

    def test_unpersistable_operator_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="persist"):
            save_dataset(tmp_path / "x.bin", {}, object(), toy_data(rng, 3, 3))


class TestWriteCsv:
    def test_layout_and_float_repr(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [(1, 0.1), (2, 0.25)], metadata={"seed": 7})
        text = path.read_text()
        assert text == "# seed=7\na,b\n1,0.1\n2,0.25\n"

    def test_shortest_roundtrip_floats(self, tmp_path):
        path = tmp_path / "f.csv"
        value = 1.0 / 3.0
        write_csv(path, ["v"], [(value,)])
        cell = path.read_text().splitlines()[1]
        assert float(cell) == value

    def test_no_metadata_no_comments(self, tmp_path):
        path = tmp_path / "n.csv"
        write_csv(path, ["x"], [(5,)])
        assert path.read_text() == "x\n5\n"

    def test_numpy_scalars_formatted_like_python(self, tmp_path):
        path = tmp_path / "np.csv"
        write_csv(path, ["i", "f"], [(np.int64(3), np.float64(0.5))])
        assert path.read_text().splitlines()[1] == "3,0.5"

    def test_deterministic_bytes(self, tmp_path):
        rows = [(i, i * 0.3) for i in range(50)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["i", "v"], rows, metadata={"k": "w"})
        write_csv(b, ["i", "v"], rows, metadata={"k": "w"})
        assert a.read_bytes() == b.read_bytes()
