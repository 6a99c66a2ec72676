"""Checkpointing: save and restore model states — torn-write safe.

Long climate integrations restart from checkpoints; these helpers store a
:class:`ModelState` (plus minimal metadata for shape validation) in NumPy's
``.npz`` container.

Integrity model
---------------
A checkpoint that a crash can tear mid-write is worse than no checkpoint:
a resume that loads half a file restarts the run from garbage.  Writes
here are therefore *atomic* — the payload goes to a temporary file in the
same directory, is flushed and ``fsync``-ed, and only then renamed over
the final name (``os.replace`` is atomic on POSIX), so readers only ever
see either the previous complete file or the new complete file.  Every
write also leaves a **checksum sidecar** (``<name>.sha256``) written the
same way; readers verify the sidecar before trusting the payload, and the
resume path (:func:`latest_verified_checkpoint`) walks checkpoints newest
first until one passes — a crash between the payload rename and the
sidecar rename therefore falls back to the previous good checkpoint
instead of loading a torn or half-trusted file.
"""
from __future__ import annotations

import hashlib
import io
import logging
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.state.variables import ModelState

logger = logging.getLogger(__name__)

#: format version written into every checkpoint
CHECKPOINT_VERSION = 1

#: suffix of the checksum sidecar written next to every atomic payload
CHECKSUM_SUFFIX = ".sha256"


# ---------------------------------------------------------------------------
# generic atomic-write + checksum machinery
# ---------------------------------------------------------------------------
def checksum_path(path: str | Path) -> Path:
    """Sidecar filename of ``path`` (``<name>.sha256``)."""
    path = Path(path)
    return path.with_name(path.name + CHECKSUM_SUFFIX)


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes (chunked read)."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fsync_directory(directory: Path) -> None:
    """Make a rename in ``directory`` durable (best effort off POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _replace_atomically(data: bytes, path: Path) -> None:
    """tmp file in ``path``'s directory → write → fsync → rename."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(
    path: str | Path, data: bytes, checksum: bool = True
) -> str:
    """Write ``data`` to ``path`` atomically; returns its hex SHA-256.

    The payload lands via tmp+fsync+rename so a crash can never leave a
    torn file under the final name.  With ``checksum`` (default), a
    ``<name>.sha256`` sidecar is written the same way *after* the payload
    rename — the unsafe crash window therefore fails safe: a stale or
    missing sidecar makes verification reject the entry, never accept a
    torn one.
    """
    path = Path(path)
    digest = hashlib.sha256(data).hexdigest()
    _replace_atomically(data, path)
    if checksum:
        _replace_atomically(
            f"{digest}  {path.name}\n".encode(), checksum_path(path)
        )
    _fsync_directory(path.parent)
    return digest


def verify_sidecar(path: str | Path) -> bool | None:
    """Checksum verdict on ``path``: ``True`` ok, ``False`` corrupt.

    ``None`` means no sidecar exists (a legacy file written before the
    integrity discipline) — the caller decides whether to trust it.
    Any read error on either file counts as corrupt.
    """
    path = Path(path)
    side = checksum_path(path)
    if not side.exists():
        return None
    try:
        expected = side.read_text().split()[0]
        return file_sha256(path) == expected
    except (OSError, IndexError):
        return False


# ---------------------------------------------------------------------------
# model-state checkpoints
# ---------------------------------------------------------------------------
def state_npz_bytes(state: ModelState, step: int = 0) -> bytes:
    """The ``.npz`` serialization of one checkpoint, as bytes."""
    buf = io.BytesIO()
    # stored, not deflated: float64 fields shrink ~8 % for ~12x the write time
    np.savez(
        buf,
        version=np.int64(CHECKPOINT_VERSION),
        step=np.int64(step),
        U=state.U,
        V=state.V,
        Phi=state.Phi,
        psa=state.psa,
    )
    return buf.getvalue()


def save_state(path: str | Path, state: ModelState, step: int = 0) -> None:
    """Write ``state`` to ``path`` (.npz) atomically, overwriting.

    The write is tmp+fsync+rename with a ``.sha256`` sidecar (see the
    module docstring) — a crash mid-save leaves the previous checkpoint
    intact and verifiable.
    """
    atomic_write_bytes(Path(path), state_npz_bytes(state, step=step))


def checkpoint_path(directory: str | Path, step: int) -> Path:
    """Canonical checkpoint filename for ``step`` inside ``directory``."""
    return Path(directory) / f"ckpt_{step:08d}.npz"


def _checkpoints_by_step(directory: Path) -> list[tuple[Path, int]]:
    """All well-named checkpoints in ``directory``, newest step first."""
    found: list[tuple[Path, int]] = []
    for p in directory.glob("ckpt_*.npz"):
        digits = p.stem[len("ckpt_"):]
        if digits.isdigit():
            found.append((p, int(digits)))
    found.sort(key=lambda item: item[1], reverse=True)
    return found


def latest_verified_checkpoint(
    directory: str | Path,
) -> tuple[Path, int] | None:
    """Newest checkpoint that passes integrity checks, or ``None``.

    Walks checkpoints newest first.  A candidate is accepted when its
    checksum sidecar matches; a legacy candidate with no sidecar is
    accepted only if its container parses (torn legacy files raise).  A
    candidate that fails is skipped with a warning so a crash
    mid-checkpoint falls back to the previous good checkpoint instead of
    aborting the resume.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    for path, step in _checkpoints_by_step(directory):
        verdict = verify_sidecar(path)
        if verdict is False:
            logger.warning(
                "checkpoint %s fails its checksum — skipping (torn write?)",
                path,
            )
            continue
        if verdict is None:
            try:
                load_state(path, verify=False)
            except Exception as exc:
                logger.warning(
                    "checkpoint %s is unreadable (%s) — skipping", path, exc
                )
                continue
        return path, step
    return None


def load_state(
    path: str | Path, verify: bool = True
) -> tuple[ModelState, int]:
    """Read a checkpoint; returns ``(state, step)``.

    Raises
    ------
    ValueError
        On a checksum-sidecar mismatch (``verify=True``, the default), a
        missing field, wrong version, or inconsistent shapes.
    """
    if verify and verify_sidecar(path) is False:
        raise ValueError(
            f"checkpoint {path} does not match its checksum sidecar "
            "(torn or corrupted write)"
        )
    with np.load(path) as data:
        missing = {"version", "step", "U", "V", "Phi", "psa"} - set(data.files)
        if missing:
            raise ValueError(f"checkpoint missing fields: {sorted(missing)}")
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {version} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        state = ModelState(
            U=data["U"], V=data["V"], Phi=data["Phi"], psa=data["psa"],
        )
        return state, int(data["step"])
