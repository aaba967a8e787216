import errno
import json
import os
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drm.engine
from drm.bundle import (
    DeltaSet,
    TensorBundle,
    check_aligned,
    materialize_low_rank,
    open_bundle,
    read_bundle,
    write_bundle,
)
from drm.engine import extract_deltas
from drm.errors import (
    BadMagic,
    CorruptHeader,
    ExtraTensor,
    IoFailure,
    MissingTensor,
    NonFiniteValue,
    OffsetOutOfRange,
    ShapeMismatch,
    UnsupportedVersion,
)
from oracles import stack_strides

MAGIC = b"DRMB"


def assemble(header_json: str, data: bytes, magic=MAGIC, version=1) -> bytes:
    header = header_json.encode("utf-8")
    return magic + struct.pack("<I", version) + struct.pack("<Q", len(header)) + header + data


GOLDEN_HEADER = json.dumps(
    {
        "tensors": [
            {"name": "layer0.weight", "dtype": "f64", "shape": [2, 2], "offset": 0, "nbytes": 32}
        ],
        "metadata": {"source": "golden"},
    }
)
GOLDEN_DATA = struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)


def read_lazily(path) -> dict:
    with open_bundle(path) as source:
        return {name: source.read(name) for name in source.names()}


def assert_readers_raise(path, error, match=None):
    """``read_bundle`` and ``open_bundle`` followed by a read of every
    tensor must both fail with exactly ``error``."""
    for load in (read_bundle, read_lazily):
        with pytest.raises(error, match=match) as info:
            load(path)
        assert info.type is error, load.__name__


class TestReadBundle:
    def test_golden_file(self, tmp_path):
        # Assembled byte-by-byte from the format definition, independent of
        # the writer.
        path = tmp_path / "golden.drmb"
        path.write_bytes(assemble(GOLDEN_HEADER, GOLDEN_DATA))
        bundle = read_bundle(path)
        assert bundle.names() == ["layer0.weight"]
        tensor = bundle["layer0.weight"]
        assert tensor.dtype == np.float64
        np.testing.assert_array_equal(tensor, [[1.0, 2.0], [3.0, 4.0]])
        assert bundle.metadata == {"source": "golden"}

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.drmb"
        path.write_bytes(assemble(GOLDEN_HEADER, GOLDEN_DATA, magic=b"XXXX"))
        assert_readers_raise(path, BadMagic)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.drmb"
        path.write_bytes(assemble(GOLDEN_HEADER, GOLDEN_DATA, version=9))
        assert_readers_raise(path, UnsupportedVersion)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.drmb"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + b"\x01\x02")
        assert_readers_raise(path, CorruptHeader)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "notjson.drmb"
        path.write_bytes(assemble("{nope", GOLDEN_DATA))
        assert_readers_raise(path, CorruptHeader)

    @pytest.mark.parametrize("header,match", [
        ([], "an object with a 'tensors' list"),
        ({"metadata": {}}, "an object with a 'tensors' list"),
        ({"tensors": [], "metadata": {"k": 1}}, "metadata must map strings to strings"),
        ({"tensors": [5]}, "record is not an object"),
        ({"tensors": [{"dtype": "f64", "shape": [1], "offset": 0, "nbytes": 8}]},
         "missing or empty name"),
        ({"tensors": [{"name": "", "dtype": "f64", "shape": [1], "offset": 0, "nbytes": 8}]},
         "missing or empty name"),
        ({"tensors": [{"name": "w", "dtype": "f64", "shape": [1], "offset": 0, "nbytes": 8},
                      {"name": "w", "dtype": "f64", "shape": [1], "offset": 8, "nbytes": 8}]},
         "duplicate tensor name 'w'"),
        ({"tensors": [{"name": "w", "dtype": "f16", "shape": [1], "offset": 0, "nbytes": 2}]},
         "'w' has unknown dtype 'f16'"),
    ], ids=[
        "not-object", "no-tensors", "metadata", "record", "no-name", "empty-name",
        "duplicate-name", "dtype",
    ])
    def test_malformed_header_rejected(self, tmp_path, header, match):
        path = tmp_path / "malformed.drmb"
        path.write_bytes(assemble(json.dumps(header), bytes(16)))
        assert_readers_raise(path, CorruptHeader, match=match)

    def test_header_length_past_eof(self, tmp_path):
        path = tmp_path / "longhdr.drmb"
        blob = MAGIC + struct.pack("<I", 1) + struct.pack("<Q", 10_000) + b"{}"
        path.write_bytes(blob)
        assert_readers_raise(path, CorruptHeader)

    def test_offset_out_of_range(self, tmp_path):
        header = json.dumps(
            {
                "tensors": [
                    {"name": "w", "dtype": "f64", "shape": [2, 2], "offset": 8, "nbytes": 32}
                ],
                "metadata": {},
            }
        )
        path = tmp_path / "oob.drmb"
        path.write_bytes(assemble(header, GOLDEN_DATA))  # region is 32 bytes, span ends at 40
        assert_readers_raise(path, OffsetOutOfRange, match="'w'")

    def test_misaligned_offset(self, tmp_path):
        header = json.dumps(
            {
                "tensors": [
                    {"name": "w", "dtype": "f64", "shape": [1], "offset": 4, "nbytes": 8}
                ],
                "metadata": {},
            }
        )
        path = tmp_path / "mis.drmb"
        path.write_bytes(assemble(header, bytes(16)))
        assert_readers_raise(path, CorruptHeader)

    def test_nbytes_shape_disagreement(self, tmp_path):
        header = json.dumps(
            {
                "tensors": [
                    {"name": "w", "dtype": "f64", "shape": [2, 2], "offset": 0, "nbytes": 16}
                ],
                "metadata": {},
            }
        )
        path = tmp_path / "nbytes.drmb"
        path.write_bytes(assemble(header, GOLDEN_DATA))
        assert_readers_raise(path, CorruptHeader, match="'w'")

    @pytest.mark.parametrize("field,value", [
        ("shape", [True, 2]),
        ("offset", False),
        ("nbytes", True),
    ])
    def test_boolean_integer_field_rejected(self, tmp_path, field, value):
        # JSON true/false parse to bool, which Python counts as an int.
        record = {"name": "w", "dtype": "f64", "shape": [1, 2], "offset": 0, "nbytes": 16}
        record[field] = value
        header = json.dumps({"tensors": [record], "metadata": {}})
        path = tmp_path / "bool.drmb"
        path.write_bytes(assemble(header, bytes(16)))
        assert_readers_raise(path, CorruptHeader, match="'w'")

    def test_non_finite_payload(self, tmp_path):
        data = struct.pack("<4d", 1.0, float("nan"), 3.0, 4.0)
        path = tmp_path / "nan.drmb"
        path.write_bytes(assemble(GOLDEN_HEADER, data))
        assert_readers_raise(path, NonFiniteValue, match="layer0.weight")

    @pytest.mark.parametrize("second_offset", [0, 8])
    def test_overlapping_spans_rejected(self, tmp_path, second_offset):
        header = json.dumps(
            {
                "tensors": [
                    {"name": "a", "dtype": "f64", "shape": [2], "offset": 0, "nbytes": 16},
                    {"name": "b", "dtype": "f64", "shape": [2], "offset": second_offset,
                     "nbytes": 16},
                ],
                "metadata": {},
            }
        )
        path = tmp_path / "overlap.drmb"
        path.write_bytes(assemble(header, GOLDEN_DATA))
        assert_readers_raise(path, CorruptHeader, match="'a' and 'b' overlap")

    def test_adjacent_spans_are_separate_views(self, tmp_path):
        header = json.dumps(
            {
                "tensors": [
                    {"name": "b", "dtype": "f64", "shape": [2], "offset": 16, "nbytes": 16},
                    {"name": "a", "dtype": "f64", "shape": [2], "offset": 0, "nbytes": 16},
                ],
                "metadata": {},
            }
        )
        path = tmp_path / "adjacent.drmb"
        path.write_bytes(assemble(header, GOLDEN_DATA))
        bundle = read_bundle(path)
        np.testing.assert_array_equal(bundle["a"], [1.0, 2.0])
        np.testing.assert_array_equal(bundle["b"], [3.0, 4.0])
        assert not np.shares_memory(bundle["a"], bundle["b"])
        bundle["a"][0] = 9.0  # tensors are writable and do not alias each other
        np.testing.assert_array_equal(bundle["b"], [3.0, 4.0])

    def test_rank3_rejected(self, tmp_path):
        header = json.dumps(
            {
                "tensors": [
                    {"name": "w", "dtype": "f32", "shape": [2, 2, 2], "offset": 0, "nbytes": 32}
                ],
                "metadata": {},
            }
        )
        path = tmp_path / "rank3.drmb"
        path.write_bytes(assemble(header, bytes(32)))
        assert_readers_raise(path, CorruptHeader)


class TestOpenBundle:
    def test_open_checks_header_but_reads_no_data(self, tmp_path):
        data = struct.pack("<4d", 1.0, float("nan"), 3.0, 4.0)
        path = tmp_path / "nan.drmb"
        path.write_bytes(assemble(GOLDEN_HEADER, data))
        with open_bundle(path) as source:
            assert source.names() == ["layer0.weight"]
            assert source.shape("layer0.weight") == (2, 2)
            assert source.metadata == {"source": "golden"}
            with pytest.raises(NonFiniteValue, match="nan.drmb.*'layer0.weight'"):
                source.read("layer0.weight")

    def test_read_after_close_is_io_failure(self, tmp_path):
        path = tmp_path / "golden.drmb"
        path.write_bytes(assemble(GOLDEN_HEADER, GOLDEN_DATA))
        source = open_bundle(path)
        source.close()
        with pytest.raises(IoFailure, match="cannot read bundle") as caught:
            source.read("layer0.weight")
        assert caught.value.__cause__.errno == errno.EBADF

    def test_each_read_is_a_fresh_array(self, tmp_path):
        path = tmp_path / "golden.drmb"
        path.write_bytes(assemble(GOLDEN_HEADER, GOLDEN_DATA))
        with open_bundle(path) as source:
            first, second = source.read("layer0.weight"), source.read("layer0.weight")
        assert first.flags.writeable and first.flags.c_contiguous
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_reads_match_the_whole_tensor(self, tmp_path):
        # A file read returns every row of the tensor, as the in-memory
        # bundle holds it.
        rng = np.random.default_rng(4)
        bundle = TensorBundle({"w": rng.standard_normal((7, 5)).astype(np.float32)})
        write_bundle(bundle, tmp_path / "w.drmb")
        with open_bundle(tmp_path / "w.drmb") as source:
            whole = source.read("w")
        assert whole.dtype == bundle["w"].dtype and whole.flags.c_contiguous
        assert whole.tobytes() == bundle["w"].tobytes()
        assert bundle.read("w") is bundle["w"]

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            open_bundle(tmp_path / "absent.drmb")

    def test_file_cut_short_after_open(self, tmp_path):
        path = tmp_path / "golden.drmb"
        path.write_bytes(assemble(GOLDEN_HEADER, GOLDEN_DATA))
        with open_bundle(path) as source:
            os.truncate(path, path.stat().st_size - 8)
            with pytest.raises(IoFailure, match="'layer0.weight'"):
                source.read("layer0.weight")

    def test_threads_share_one_open_file(self, tmp_path):
        # More threads than cores, switching often: reads that moved a
        # shared file position would hand some thread another tensor's bytes.
        rng = np.random.default_rng(4)
        bundle = TensorBundle({f"w{i}": rng.standard_normal((16, 8)) for i in range(8)})
        path = tmp_path / "many.drmb"
        write_bundle(bundle, path)
        mismatches = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with open_bundle(path) as source:
                def reader(name):
                    for _ in range(200):
                        if not np.array_equal(source.read(name), bundle[name]):
                            mismatches.append(name)

                threads = [threading.Thread(target=reader, args=(n,)) for n in bundle.names()]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []


class TestWriteBundle:
    def test_round_trip_mixed_dtypes(self, tmp_path):
        bundle = TensorBundle()
        bundle.add("a", np.array([[1.5, -2.25]], dtype=np.float32))
        bundle.add("b", np.array([3.0, 4.0, 5.0], dtype=np.float64))
        bundle.metadata["k"] = "v"
        path = tmp_path / "mixed.drmb"
        write_bundle(bundle, path)
        back = read_bundle(path)
        assert back == bundle
        assert back["a"].dtype == np.float32
        assert back["b"].dtype == np.float64

    def test_write_is_deterministic(self, tmp_path):
        def build(meta):
            b = TensorBundle(metadata=meta)
            b.add("w1", np.arange(6, dtype=np.float64).reshape(2, 3))
            b.add("w2", np.array([1.0], dtype=np.float32))
            return b

        # metadata insertion order is not content; bytes must agree anyway
        p1, p2 = tmp_path / "one.drmb", tmp_path / "two.drmb"
        write_bundle(build({"z": "1", "a": "2"}), p1)
        write_bundle(build({"a": "2", "z": "1"}), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_bundle(self, tmp_path):
        path = tmp_path / "empty.drmb"
        write_bundle(TensorBundle(), path)
        back = read_bundle(path)
        assert len(back) == 0
        assert back.metadata == {}

    def test_odd_sized_f32_alignment(self, tmp_path):
        # 3 f32 values = 12 bytes; the next tensor must land on an 8-byte
        # boundary with the gap zero-filled.
        bundle = TensorBundle()
        bundle.add("a", np.array([1.0, 2.0, 3.0], dtype=np.float32))
        bundle.add("b", np.array([4.0], dtype=np.float64))
        path = tmp_path / "align.drmb"
        write_bundle(bundle, path)
        assert read_bundle(path) == bundle
        header_len = struct.unpack_from("<Q", path.read_bytes(), 8)[0]
        header = json.loads(path.read_bytes()[16 : 16 + header_len])
        offsets = {rec["name"]: rec["offset"] for rec in header["tensors"]}
        assert offsets == {"a": 0, "b": 16}

    def test_overwrite_leaves_only_target(self, tmp_path):
        path = tmp_path / "out.drmb"
        path.write_bytes(b"stale")
        bundle = TensorBundle({"w": np.eye(2)})
        write_bundle(bundle, path)
        assert read_bundle(path) == bundle
        assert [p.name for p in tmp_path.iterdir()] == ["out.drmb"]

    def test_interrupted_write_removes_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.drmb"
        path.write_bytes(b"stale")

        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            write_bundle(TensorBundle({"w": np.eye(2)}), path)
        assert path.read_bytes() == b"stale"
        assert [p.name for p in tmp_path.iterdir()] == ["out.drmb"]

    def test_unwritable_target_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            write_bundle(TensorBundle({"w": np.eye(2)}), tmp_path / "missing" / "out.drmb")


class TestBundleValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            TensorBundle().add("", np.zeros(2))

    def test_duplicate_name_rejected(self):
        b = TensorBundle()
        b.add("w", np.zeros(2))
        with pytest.raises(ValueError):
            b.add("w", np.zeros(2))

    def test_non_string_metadata_value_rejected(self):
        with pytest.raises(ValueError, match="metadata"):
            TensorBundle(metadata={"k": 1})

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError, match="non-positive extent"):
            TensorBundle().add("w", np.zeros((2, 0)))

    def test_int_dtype_rejected(self):
        with pytest.raises(ValueError):
            TensorBundle().add("w", np.zeros(2, dtype=np.int32))

    def test_rank3_rejected(self):
        with pytest.raises(ValueError):
            TensorBundle().add("w", np.zeros((2, 2, 2)))

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteValue):
            TensorBundle().add("w", np.array([1.0, np.nan]))

    def test_equality_needs_a_bundle_with_the_same_metadata(self):
        a, b = TensorBundle(metadata={"k": "1"}), TensorBundle(metadata={"k": "2"})
        for bundle in (a, b):
            bundle.add("w", np.zeros(2))
        assert not a == b
        assert a.__eq__({"w": np.zeros(2)}) is NotImplemented
        assert not a == {"w": np.zeros(2)}
        assert a == TensorBundle({"w": np.zeros(2)}, metadata={"k": "1"})


@st.composite
def bundle_strategy(draw):
    n_tensors = draw(st.integers(0, 4))
    names = draw(
        st.lists(
            st.text("abcdefgh_.0123456789", min_size=1, max_size=10),
            min_size=n_tensors,
            max_size=n_tensors,
            unique=True,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    bundle = TensorBundle()
    for name in names:
        rank = draw(st.integers(1, 2))
        shape = tuple(draw(st.integers(1, 4)) for _ in range(rank))
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        bundle.add(name, rng.uniform(-8, 8, size=shape).astype(dtype))
    meta_keys = draw(st.lists(st.text(max_size=6), max_size=3, unique=True))
    for k in meta_keys:
        bundle.metadata[k] = draw(st.text(max_size=8))
    return bundle


@settings(max_examples=40, deadline=None)
@given(bundle_strategy())
def test_round_trip_property(tmp_path_factory, bundle):
    path = tmp_path_factory.mktemp("rt") / "b.drmb"
    write_bundle(bundle, path)
    assert read_bundle(path) == bundle


class TestExtractDeltas:
    """``check_aligned`` on the bundles, then ``extract_deltas`` per rank-2
    layer, as ``drm.engine.map_layers`` runs them."""

    def base_and_tasks(self):
        base = TensorBundle()
        base.add("L0.w", np.ones((2, 2)))
        base.add("L0.b", np.zeros(2))
        task = TensorBundle()
        task.add("L0.w", np.array([[2.0, 1.0], [1.0, 0.0]]))
        task.add("L0.b", np.array([1.0, -1.0]))
        return base, task

    def test_direct_subtraction(self):
        base, task = self.base_and_tasks()
        names = check_aligned(base, [task])
        ds = extract_deltas("L0.w", base["L0.w"], [task], names)
        assert ds.layer_name == "L0.w" and ds.task_names == ["task0"]
        assert isinstance(ds.deltas, np.ndarray) and ds.deltas.shape == (1, 2, 2)
        np.testing.assert_array_equal(ds.deltas[0], [[1.0, 0.0], [0.0, -1.0]])

    def test_missing_tensor(self):
        base, _ = self.base_and_tasks()
        task = TensorBundle()
        task.add("L0.b", np.zeros(2))
        with pytest.raises(MissingTensor, match="L0.w"):
            check_aligned(base, [task])

    def test_extra_tensor(self):
        base, task = self.base_and_tasks()
        task.add("L1.w", np.zeros((2, 2)))
        with pytest.raises(ExtraTensor, match="L1.w"):
            check_aligned(base, [task])

    def test_shape_mismatch(self):
        base, _ = self.base_and_tasks()
        task = TensorBundle()
        task.add("L0.w", np.ones((2, 3)))
        task.add("L0.b", np.zeros(2))
        with pytest.raises(ShapeMismatch, match="L0.w"):
            check_aligned(base, [task])

    def test_no_tasks(self):
        base, _ = self.base_and_tasks()
        with pytest.raises(ValueError, match="at least one task"):
            check_aligned(base, [])

    def test_more_names_than_tasks(self):
        base, task = self.base_and_tasks()
        with pytest.raises(ValueError, match="equal length"):
            check_aligned(base, [task], ["a", "b"])

    def test_identical_tasks_give_zero_deltas(self):
        base, _ = self.base_and_tasks()
        names = check_aligned(base, [base, base])
        ds = extract_deltas("L0.w", base["L0.w"], [base, base], names)
        assert ds.deltas.shape == (2, 2, 2)
        for d in ds.deltas:
            np.testing.assert_array_equal(d, np.zeros_like(d))

    def test_add_back_reproduces_tasks_exactly(self):
        # Values quantized to float32 so the float64 subtract/add round
        # trip is exact, in every buffer order.
        rng = np.random.default_rng(7)
        base = TensorBundle()
        tasks = [TensorBundle(), TensorBundle()]
        for name, shape in [("w1", (3, 4)), ("w2", (2, 2)), ("b1", (3,))]:
            base.add(name, rng.uniform(-4, 4, shape).astype(np.float32).astype(np.float64))
            for task in tasks:
                task.add(name, rng.uniform(-4, 4, shape).astype(np.float32).astype(np.float64))
        names = check_aligned(base, tasks)
        for name in ["w1", "w2"]:
            for method in [None, "drm_h", "drm_v"]:
                ds = extract_deltas(name, base[name], tasks, names, method)
                for t, delta in enumerate(ds.deltas):
                    np.testing.assert_array_equal(base[name] + delta, tasks[t][name])


class TestMaterializeLowRank:
    def test_rank_one_product(self):
        out = materialize_low_rank(down=[[2.0, 3.0]], up=[[1.0], [0.0]], scale=1.0)
        np.testing.assert_array_equal(out, [[2.0, 3.0], [0.0, 0.0]])

    def test_zero_scale(self):
        out = materialize_low_rank([[2.0, 3.0]], [[1.0], [4.0]], scale=0.0)
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_against_triple_loop(self):
        rng = np.random.default_rng(3)
        up = rng.standard_normal((4, 2))
        down = rng.standard_normal((2, 3))
        scale = 1.7
        expected = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(2):
                    expected[i, j] += scale * up[i, k] * down[k, j]
        got = materialize_low_rank(down, up, scale)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            materialize_low_rank(np.zeros((3, 4)), np.zeros((2, 2)), 1.0)


def test_delta_set_transposed_round_trip():
    ds = DeltaSet("l", (2, 3), [np.arange(6.0).reshape(2, 3)], ["t"])
    dt = ds.transposed()
    assert dt.base_shape == (3, 2)
    np.testing.assert_array_equal(dt.deltas[0], ds.deltas[0].T)
    np.testing.assert_array_equal(dt.transposed().deltas[0], ds.deltas[0])


def test_delta_set_holds_one_float64_stack():
    rng = np.random.default_rng(5)
    listed = [rng.standard_normal((2, 3)).astype(np.float32) for _ in range(3)]
    ds = DeltaSet("l", (2, 3), listed, ["a", "b", "c"])
    assert isinstance(ds.deltas, np.ndarray)
    assert ds.deltas.shape == (3, 2, 3) and ds.deltas.dtype == np.float64
    np.testing.assert_array_equal(ds.deltas[1], listed[1])
    stack = np.array(ds.deltas)
    assert DeltaSet("l", (2, 3), stack, ["a", "b", "c"]).deltas is stack
    assert np.shares_memory(ds.transposed().deltas, ds.deltas)


def test_delta_set_rejects_a_stack_of_the_wrong_shape():
    with pytest.raises(ShapeMismatch, match="'l'"):
        DeltaSet("l", (2, 3), np.zeros((2, 3, 2)), ["a", "b"])


@pytest.mark.parametrize("deltas,names,match", [
    ([], [], "at least one task delta"),
    ([np.zeros((2, 2))] * 2, ["a"], "equal length"),
    ([np.zeros((2, 2))] * 2, ["a", "a"], "unique"),
])
def test_delta_set_rejects_a_bad_task_list(deltas, names, match):
    with pytest.raises(ValueError, match=match):
        DeltaSet("l", (2, 2), deltas, names)


def test_delta_set_rejects_a_ragged_list_of_deltas():
    with pytest.raises(ShapeMismatch, match=r"'l'.*\(2, 3\)"):
        DeltaSet("l", (2, 2), [np.zeros((2, 2)), np.zeros((2, 3))], ["a", "b"])


@pytest.mark.parametrize("method,order", [
    pytest.param(None, "tij", id="tij"),
    pytest.param("drm_h", "itj", id="itj"),  # 5 x 21 side by side: wide
    pytest.param("drm_v", "jti", id="jti"),  # 7 x 15: wide
])
def test_layer_delta_set_order_lays_out_the_same_values(method, order, monkeypatch):
    # Row chunks of two or three rows: a buffer whose rows are strided is
    # filled through a scratch buffer, one row range at a time. The buffer
    # starts as NaN, so a row range left unwritten fails in every layout.
    monkeypatch.setattr(drm.engine, "_CHUNK", 2 * 7)
    assert len(drm.engine._chunks(5, 7)) == 2
    rng = np.random.default_rng(11)
    base = rng.standard_normal((5, 7)).astype(np.float32)
    tasks = [TensorBundle({"w": rng.standard_normal((5, 7)).astype(np.float32)}) for _ in range(3)]
    want = np.stack([task["w"].astype(np.float64) - base for task in tasks])
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(drm.engine.np, "empty", nan_empty)
        got = extract_deltas("w", base, tasks, ["a", "b", "c"], method)
    assert got.deltas.shape == (3, 5, 7) and got.deltas.dtype == np.float64
    assert got.deltas.tobytes() == want.tobytes()
    assert got.deltas.strides == stack_strides(order, 3, (5, 7))
    # Each layout makes a drm SVD input a view of the stack: drm-h's for
    # itj, drm-v's for jti and for the task-major tij.
    view = got.side_by_side() if order == "itj" else got.transposed().side_by_side()
    assert np.shares_memory(view, got.deltas)
    assert view.flags.c_contiguous == (order != "tij")
    assert view.flags.f_contiguous == (order == "tij")
