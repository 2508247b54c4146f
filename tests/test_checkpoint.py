import json
import math
import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from twoview import checkpoint
from twoview.checkpoint import (MAGIC, check_vocab_hashes, fnv1a_64,
                                load_checkpoint, save_checkpoint, vocab_hash)
from twoview.errors import CheckpointError
from twoview.kb import Vocab
from twoview.model import ModelConfig, ModelParams


def make_params(variant="HATransE-CT", seed=0):
    rng = np.random.default_rng(seed)
    config = ModelConfig.from_variant(variant, 6, 4)
    params = ModelParams.init(config, 5, 3, 4, 2, rng, dtype=np.float32)
    return config, params


HASHES = {"entities": "0" * 16, "relations": "1" * 16,
          "concepts": "2" * 16, "meta_relations": "3" * 16}


class TestFnv:
    def test_known_vectors(self):
        # standard FNV-1a 64-bit test vectors
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_vocab_hash_order_independent(self):
        assert vocab_hash(Vocab(["b", "a"])) == vocab_hash(Vocab(["a", "b"]))
        assert vocab_hash(Vocab(["a"])) != vocab_hash(Vocab(["b"]))


class TestRoundTrip:
    def test_bitwise_roundtrip(self, tmp_path):
        config, params = make_params()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, params, config, HASHES, seed=7, epoch=3)
        loaded, config2, header = load_checkpoint(p1)
        save_checkpoint(p2, loaded, config2, header["vocab_hashes"],
                        header["seed"], header["epoch"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_identical(self, tmp_path):
        config, params = make_params()
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params, config, HASHES, seed=0, epoch=1)
        loaded, config2, _ = load_checkpoint(path)
        assert config2 == config
        assert np.array_equal(loaded.entities, params.entities)
        assert np.array_equal(loaded.relations, params.relations)
        assert np.array_equal(loaded.concepts, params.concepts)
        assert np.array_equal(loaded.meta_relations, params.meta_relations)
        assert np.array_equal(loaded.ct_map.W, params.ct_map.W)
        assert np.array_equal(loaded.ha_map.b, params.ha_map.b)

    def test_cg_variant_has_no_maps(self, tmp_path):
        config = ModelConfig.from_variant("Mult-CG", 6, 6)
        rng = np.random.default_rng(1)
        params = ModelParams.init(config, 5, 3, 4, 2, rng)
        path = tmp_path / "cg.ckpt"
        save_checkpoint(path, params, config, HASHES, seed=0, epoch=0)
        loaded, config2, _ = load_checkpoint(path)
        assert loaded.ct_map is None and loaded.ha_map is None

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        config = ModelConfig.from_variant("TransE-CT", 16, 8)
        params = ModelParams.init(config, 200, 5, 20, 3,
                                  np.random.default_rng(2), dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, config, HASHES, seed=0, epoch=1)
        before = path.read_bytes()
        header_end = 16 + int.from_bytes(before[8:16], "little")
        mid_payload = header_end + (len(before) - header_end) // 2

        class DiskFull:
            """Writes through until the middle of the payload, then raises."""

            def __init__(self, fh):
                self.fh, self.written = fh, 0

            def write(self, data):
                room = mid_payload - self.written
                if len(data) > room:
                    self.fh.write(data[:room])
                    raise OSError("no space left on device")
                self.written += self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(checkpoint, "open",
                            lambda *a, **kw: DiskFull(open(*a, **kw)),
                            raising=False)
        params.entities *= 0.5
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, params, config, HASHES, seed=0, epoch=2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        monkeypatch.undo()
        save_checkpoint(path, params, config, HASHES, seed=0, epoch=2)
        assert load_checkpoint(path)[2]["epoch"] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_empty_table_roundtrips_bitwise(self, tmp_path):
        config = ModelConfig.from_variant("HATransE-CT", 6, 4)
        params = ModelParams.init(config, 5, 3, 4, 0, np.random.default_rng(4),
                                  dtype=np.float32)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, config, HASHES, seed=0, epoch=0)
        loaded, config2, header = load_checkpoint(p1)
        assert loaded.meta_relations.shape == (0, 4)
        save_checkpoint(p2, loaded, config2, header["vocab_hashes"],
                        header["seed"], header["epoch"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_blocks_own_c_order_float32(self, tmp_path):
        config, params = make_params()
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params, config, HASHES, seed=0, epoch=0)
        loaded = load_checkpoint(path)[0]
        assert [n for n, _ in loaded.blocks()] == [n for n, _ in params.blocks()]
        for name, arr in loaded.blocks():
            assert arr.dtype == np.float32, name
            assert arr.flags.c_contiguous and arr.flags.writeable, name
            assert arr.flags.owndata, name


class TestMemory:
    """tracemalloc sees numpy's array buffers, so its peak counts every
    copy of the parameters a save or a load makes."""

    @pytest.fixture
    def big(self, tmp_path):
        config = ModelConfig.from_variant("TransE-CT", 256, 32)
        params = ModelParams.init(config, 4500, 20, 100, 5,
                                  np.random.default_rng(3), dtype=np.float32)
        payload = sum(a.nbytes for _, a in params.blocks())
        assert payload >= 4 << 20
        return config, params, payload, tmp_path / "big.ckpt"

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_holds_one_copy_of_the_parameters(self, big):
        config, params, payload, path = big
        save_checkpoint(path, params, config, HASHES, seed=0, epoch=0)
        assert self._peak(lambda: load_checkpoint(path)) < 1.5 * payload

    def test_save_copies_no_block(self, big):
        config, params, payload, path = big
        peak = self._peak(lambda: save_checkpoint(path, params, config, HASHES,
                                                  seed=0, epoch=0))
        assert peak < 0.1 * payload


def _framed(header: bytes) -> bytes:
    return MAGIC + struct.pack("<Q", len(header)) + header


def _rewritten(edit):
    """A case that applies ``edit`` to the header dict, payload kept."""
    def case(good):
        (header_len,) = struct.unpack("<Q", good[8:16])
        header = json.loads(good[16:16 + header_len])
        edit(header)
        text = json.dumps(header, sort_keys=True, separators=(",", ":"))
        return _framed(text.encode()) + good[16 + header_len:]
    return case


def _with_block(name, **changes):
    """A case that changes block ``name``'s header entry, payload kept."""
    return _rewritten(lambda header: next(
        b for b in header["blocks"] if b["name"] == name).update(changes))


def _relations_declared(rows):
    """A case whose header declares ``rows`` relations throughout: vocabulary
    size, block shape, offsets, byte sizes and payload length agree."""
    def case(good):
        (header_len,) = struct.unpack("<Q", good[8:16])
        header = json.loads(good[16:16 + header_len])
        header["vocab_sizes"]["relations"] = rows
        offset = 0
        for block in header["blocks"]:
            if block["name"] == "relations":
                block["shape"] = [rows, 6]
            block["offset"], block["nbytes"] = offset, 4 * math.prod(block["shape"])
            offset += block["nbytes"]
        header["payload_nbytes"] = offset
        text = json.dumps(header, sort_keys=True, separators=(",", ":"))
        return _framed(text.encode()) + good[16 + header_len:][:offset]
    return case


# each case turns the bytes of a valid checkpoint (HATransE-CT, d_e=6,
# d_c=4) into a malformed file
MALFORMED = {
    "bad-magic": lambda good: b"NOTMAGIC" + b"\x00" * 32,
    "truncated-payload": lambda good: good[:-8],
    "ten-bytes": lambda good: good[:10],
    "empty-object-header": lambda good: _framed(b"{}"),
    "list-header": lambda good: _framed(b"[]"),
    "header-length-past-eof": lambda good: MAGIC + struct.pack("<Q", 64) + b"{}",
    "entities-declared-10x3": _with_block("entities", shape=[10, 3]),
    "ct_W-declared-transposed": _with_block("ct_W", shape=[6, 4]),
    "ct_b-declared-int32": _with_block("ct_b", dtype="<i4"),
    "ct_b-offset-0": _with_block("ct_b", offset=0),
    "relations-offset-0": _with_block("relations", offset=0),
    "minus-one-relations": _relations_declared(-1),
    "nan-in-payload": lambda good: good[:-4] + struct.pack("<f", float("nan")),
    "vocab-hashes-list": _rewritten(lambda h: h.update(vocab_hashes=[])),
    "vocab-hashes-string": _rewritten(lambda h: h.update(vocab_hashes="x")),
    "vocab-hashes-null": _rewritten(lambda h: h.update(vocab_hashes=None)),
    "vocab-hashes-missing": _rewritten(lambda h: h.pop("vocab_hashes")),
    "vocab-hashes-missing-table": _rewritten(lambda h: h["vocab_hashes"].pop("concepts")),
    "vocab-hash-not-string": _rewritten(lambda h: h["vocab_hashes"].update(concepts=2)),
}


class TestValidation:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_rejected(self, tmp_path, case):
        config, params = make_params()
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, params, config, HASHES, seed=0, epoch=0)
        p.write_bytes(MALFORMED[case](p.read_bytes()))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(p)
        assert str(p) in str(exc.value)

    def test_every_prefix_and_trailing_bytes_rejected(self, tmp_path):
        config, params = make_params()
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, params, config, HASHES, seed=0, epoch=0)
        good = p.read_bytes()
        cases = [good[:n] for n in range(len(good))]
        cases += [good + b"\x00", good + b"\x00\x01\x02\x03"]
        for bad in cases:
            p.write_bytes(bad)
            with pytest.raises(CheckpointError) as exc:
                load_checkpoint(p)
            assert str(p) in str(exc.value), len(bad)

    def test_file_shrinking_after_fstat_rejected(self, tmp_path, monkeypatch):
        config, params = make_params()
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, params, config, HASHES, seed=0, epoch=0)
        p.write_bytes(p.read_bytes()[:-8])
        fstat = os.fstat
        monkeypatch.setattr(checkpoint.os, "fstat",
                            lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 8))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(p)
        assert str(exc.value) == f"{p}: file ends inside block 'ha_b'"

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()],
                             ids=["missing", "directory"])
    def test_unreadable_file_rejected(self, tmp_path, make):
        p = tmp_path / "t.ckpt"
        make(p)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(p)
        assert str(exc.value).startswith(f"cannot read checkpoint {p}: ")

    def test_vocab_hash_mismatch_refused(self, tmp_path):
        config, params = make_params()
        vocabs = {"entities": Vocab(["a", "b", "c", "d", "e"]),
                  "relations": Vocab(["r1", "r2", "r3"]),
                  "concepts": Vocab(["x", "y", "z", "w"]),
                  "meta_relations": Vocab(["m1", "m2"])}
        hashes = {k: vocab_hash(v) for k, v in vocabs.items()}
        p = tmp_path / "h.ckpt"
        save_checkpoint(p, params, config, hashes, seed=0, epoch=0)
        _, _, header = load_checkpoint(p)
        check_vocab_hashes(header, vocabs)  # matching: no error
        vocabs["entities"] = Vocab(["a", "b", "c", "d", "DIFFERENT"])
        with pytest.raises(CheckpointError) as exc:
            check_vocab_hashes(header, vocabs)
        assert "entities" in str(exc.value)

    def test_vocab_size_mismatch_refused(self, tmp_path):
        """A checkpoint whose entity table has one more row than the
        dataset's vocabulary is refused even under the dataset's own hashes."""
        config, params = make_params()
        vocabs = {"entities": Vocab(["a", "b", "c", "d"]),
                  "relations": Vocab(["r1", "r2", "r3"]),
                  "concepts": Vocab(["x", "y", "z", "w"]),
                  "meta_relations": Vocab(["m1", "m2"])}
        p = tmp_path / "n.ckpt"
        save_checkpoint(p, params, config, {k: vocab_hash(v) for k, v in vocabs.items()},
                        seed=0, epoch=0)
        with pytest.raises(CheckpointError, match="vocabulary size mismatch for 'entities': "
                                                  "checkpoint has 5, dataset has 4"):
            check_vocab_hashes(load_checkpoint(p)[2], vocabs)

    def test_tampered_header_hash_refused(self, tmp_path):
        config, params = make_params()
        vocabs = {"entities": Vocab(["a", "b", "c", "d", "e"]),
                  "relations": Vocab(["r1", "r2", "r3"]),
                  "concepts": Vocab(["x", "y", "z", "w"]),
                  "meta_relations": Vocab(["m1", "m2"])}
        hashes = {k: vocab_hash(v) for k, v in vocabs.items()}
        p = tmp_path / "tamper.ckpt"
        save_checkpoint(p, params, config, hashes, seed=0, epoch=0)
        # flip one byte inside the stored entities hash
        raw = bytearray(p.read_bytes())
        (header_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + header_len].decode())
        target = header["vocab_hashes"]["entities"][:8].encode()
        idx = raw.find(target, 16)
        raw[idx + 10] = ord("f") if raw[idx + 10] != ord("f") else ord("0")
        p.write_bytes(bytes(raw))
        _, _, tampered_header = load_checkpoint(p)
        with pytest.raises(CheckpointError):
            check_vocab_hashes(tampered_header, vocabs)
