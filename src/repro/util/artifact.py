"""One envelope for every durable artifact the repro writes.

Study checkpoints, scan checkpoints, scan baselines, risk indexes, typo
models and scenarios all persist through :func:`write_artifact` (canonical
JSON, an optional SHA-256 self-digest, tmp → flush → fsync →
``os.replace``, so a crash leaves the previous file, never a torn one)
and load through :func:`read_artifact`, which maps every failure onto
the error taxonomy: unreadable or torn bytes, any ``OSError`` included,
→ :class:`~repro.util.errors.CheckpointCorruptError`; a foreign format
tag → :class:`~repro.util.errors.CheckpointMismatchError`.  Owners keep
only their payload semantics.

The digest covers the canonical encoding of the payload without its
digest field, so it does not depend on on-disk whitespace.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.util.errors import CheckpointCorruptError, CheckpointMismatchError

__all__ = [
    "ArtifactKind",
    "canonical_json",
    "payload_digest",
    "write_artifact",
    "read_artifact",
    "corrupt_payload",
]


def canonical_json(payload) -> str:
    """The one JSON encoding used for digests and on-disk bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload) -> str:
    """SHA-256 of the canonical encoding."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ArtifactKind:
    """How one artifact kind is tagged, digested and named in errors."""

    label: str                   # how messages name the file
    format: Optional[str]        # the ``format`` tag (None: untagged)
    digest_field: Optional[str] = None
    #: hand-written files may omit the digest; a present one must match
    digest_optional: bool = False
    remedy: str = "delete it"    # what to do with a broken file


def write_artifact(path: Union[str, Path], payload: Dict,
                   kind: ArtifactKind) -> Optional[str]:
    """Atomically persist ``payload``; returns its self-digest (if any)."""
    path = Path(path)
    body = dict(payload)
    digest = None
    if kind.digest_field is not None:
        digest = payload_digest(body)
        body[kind.digest_field] = digest
    tmp = path.with_name(path.name + ".tmp")
    try:
        # fsync before the rename: os.replace is atomic against other
        # writers, but without the flush a crash can still publish a
        # torn file (the rename survives, the data blocks may not)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(body))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest


def read_artifact(path: Union[str, Path], kind: ArtifactKind) -> Dict:
    """Read, tag-check and digest-verify one artifact; return its payload.

    The returned dict still holds the digest field.  Payload semantics
    (identity, schema, re-derived structure) stay with the caller.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointCorruptError(f"{kind.label} {path} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("root is not a JSON object")
    except (OSError, ValueError) as error:
        raise CheckpointCorruptError(
            f"{kind.label} {path} is unreadable ({error}); "
            f"{kind.remedy}") from error
    if kind.format is not None and data.get("format") != kind.format:
        raise CheckpointMismatchError(
            f"{path} has format {data.get('format')!r}, "
            f"expected {kind.format!r}")
    field = kind.digest_field
    if field is not None and not (kind.digest_optional
                                  and field not in data):
        stored = data.get(field)
        actual = payload_digest({key: value for key, value in data.items()
                                 if key != field})
        if stored != actual:
            raise CheckpointCorruptError(
                f"{kind.label} {path} failed its digest check (stored "
                f"{str(stored)[:12]}…, computed {actual[:12]}…); "
                f"{kind.remedy}")
    return data


@contextmanager
def corrupt_payload(path: Union[str, Path],
                    kind: ArtifactKind) -> Iterator[None]:
    """Map a payload that parses but will not decode onto
    :class:`~repro.util.errors.CheckpointCorruptError`."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise CheckpointCorruptError(
            f"{kind.label} {path} is corrupt ({error}); "
            f"{kind.remedy}") from error
