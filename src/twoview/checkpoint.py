"""Checkpoint files: a canonical JSON header followed by raw little-endian
32-bit float blocks.

Layout: 8 magic bytes, a little-endian uint64 header length, the UTF-8 JSON
header (sorted keys, no whitespace), then the payload.  The header lists
every block with its byte offset into the payload, so the format is readable
from any language without a serialization framework.  Vocabulary content
hashes (FNV-1a over the sorted names) bind a checkpoint to the dataset it
was trained on.  The saver writes each block from a flat byte view of its
C-ordered float32 array, and the loader reads each block from the file into
a new array of its own, so neither makes a bytes copy of the parameters.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError
from .kb import Vocab
from .model import ModelConfig, ModelParams

MAGIC = b"TVKB0001"
FORMAT_VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def vocab_hash(vocab: Vocab) -> str:
    """Hex digest of FNV-1a over the NUL-joined sorted vocabulary names."""
    payload = b"\x00".join(name.encode("utf-8") for name in sorted(vocab.names))
    return f"{fnv1a_64(payload):016x}"


def save_checkpoint(path, params: ModelParams, config: ModelConfig,
                    vocab_hashes: dict[str, str], seed: int, epoch: int) -> None:
    """Write parameters and header to ``path``.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` in one rename, so a write that fails part-way leaves
    any earlier checkpoint at ``path`` intact.
    """
    blocks = params.blocks()
    block_meta, payload_nbytes = _block_table((name, a.shape) for name, a in blocks)
    header = {
        "format_version": FORMAT_VERSION,
        "variant": config.variant,
        "d_e": config.d_e,
        "d_c": config.d_c,
        "vocab_sizes": {name: params.table(name).shape[0]
                        for name in ModelParams.TABLES},
        "vocab_hashes": vocab_hashes,
        "seed": seed,
        "epoch": epoch,
        "blocks": block_meta,
        "payload_nbytes": payload_nbytes,
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for _, arr in blocks:
                if arr.size:    # an empty block holds no bytes and its view cannot be cast
                    fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f4")).cast("B"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig, dict]:
    """Read a checkpoint, validating magic, sizes and payload length.

    Each block is read from the file straight into its own array, after
    the header and the file size agree on the payload, so a load holds one
    copy of the parameters.  Every malformed file raises
    ``CheckpointError`` naming ``path``.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            frame = fh.read(16)
            if frame[:8] != MAGIC:
                raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
            header_len = int.from_bytes(frame[8:16], "little")
            if len(frame) < 16 or 16 + header_len > size:
                raise CheckpointError(f"{path}: file ends inside the header")
            try:
                return _decode(fh.read(header_len), fh, size - 16 - header_len, path)
            except (KeyError, TypeError, ValueError, ConfigError) as exc:
                raise CheckpointError(
                    f"{path}: unreadable header ({type(exc).__name__}: {exc})") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from None


def _decode(header_bytes: bytes, fh, payload_nbytes: int, path):
    header = json.loads(header_bytes.decode("utf-8"))
    if not isinstance(header, dict):
        raise TypeError("header is not a JSON object")
    if payload_nbytes != header["payload_nbytes"]:
        raise CheckpointError(
            f"{path}: payload is {payload_nbytes} bytes, header declares "
            f"{header['payload_nbytes']}")
    config = ModelConfig.from_variant(header["variant"], header["d_e"],
                                      header["d_c"])
    hashes, sizes = header["vocab_hashes"], header["vocab_sizes"]
    if not isinstance(hashes, dict) or sorted(hashes) != sorted(ModelParams.TABLES) \
            or not all(isinstance(v, str) for v in hashes.values()):
        raise CheckpointError(f"{path}: vocabulary hashes {hashes!r} are not one string per table")
    if not all(isinstance(sizes[t], int) and sizes[t] >= 0 for t in ModelParams.TABLES):
        raise CheckpointError(f"{path}: vocabulary sizes {sizes} are not all counts")
    want, nbytes = _block_table(ModelParams.layout(config, sizes))
    if header["blocks"] != want or nbytes != payload_nbytes:
        raise CheckpointError(
            f"{path}: header declares blocks {header['blocks']}; {config.variant} "
            f"with d_e={config.d_e}, d_c={config.d_c} and these vocabulary sizes "
            f"needs {want}, {nbytes} bytes in all")
    arrays = []
    for meta in want:
        name, arr = meta["name"], np.empty(meta["shape"], dtype="<f4")
        # into the array itself: a zero-row block's view cannot be cast to bytes
        if fh.readinto(arr) != meta["nbytes"]:
            raise CheckpointError(f"{path}: file ends inside block {name!r}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: block {name!r} holds non-finite values")
        arrays.append((name, arr))
    return ModelParams.from_blocks(arrays), config, header


def _block_table(layout) -> tuple[list[dict], int]:
    """The header entries of (name, shape) blocks stored back to back as
    little-endian float32, in order, and the payload size they add up to."""
    table, offset = [], 0
    for name, shape in layout:
        nbytes = 4 * math.prod(shape)
        table.append({"name": name, "shape": list(shape), "dtype": "<f4",
                      "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return table, offset


def check_vocab_hashes(header: dict, vocabs: dict[str, Vocab]) -> None:
    """Refuse to pair a checkpoint with a dataset it was not trained on."""
    for name, vocab in vocabs.items():
        expected = header["vocab_hashes"].get(name)
        actual = vocab_hash(vocab)
        if expected != actual:
            raise CheckpointError(
                f"vocabulary hash mismatch for {name!r}: checkpoint has "
                f"{expected}, dataset has {actual}")
        if header["vocab_sizes"].get(name) != len(vocab):
            raise CheckpointError(
                f"vocabulary size mismatch for {name!r}: checkpoint has "
                f"{header['vocab_sizes'].get(name)}, dataset has {len(vocab)}")
