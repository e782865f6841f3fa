"""Shared low-level utilities: atomic file writes and content digests.

Two disciplines live here because more than one subsystem depends on
them being *exactly* the same:

* **Atomic writes** — every persistent artefact (the eval cache's pickle
  entries and digest sidecars, the schedule registry's entries, telemetry
  worker dumps) is written to a uniquely-named temp file in the target
  directory and renamed into place with ``os.replace``.  The temp name
  carries the writer's pid and a uuid so concurrent workers producing
  the same artefact can never rename each other's half-written file into
  place; the rename makes readers see either the old bytes or the new
  bytes, never a torn file.

* **Image digests** — the content identity of a compiled binary is
  ``sha256(image.serialize())``.  The eval cache, the CLI entry points
  and the schedule registry all key by this one function, so a schedule
  computed by any of them is addressable by all of them.  A process-wide
  memo (plus an optional on-disk :class:`DigestCache`) means repeated
  invocations over the same bytes hash once.

* **Code digest** — :func:`code_digest` identifies the code that computed
  a cached result, so a cache key that carries it never serves a result
  of different code.
"""

from __future__ import annotations

import functools
import hashlib
import os
import uuid


# -- atomic writes -----------------------------------------------------------


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (unique temp + ``os.replace``)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode())


# -- content digests ---------------------------------------------------------


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def image_digest(image) -> str:
    """The content identity of one compiled binary (sha256 of its bytes)."""
    return sha256_hex(image.serialize())


@functools.cache
def code_digest() -> str:
    """sha256 over every ``.py`` source of the ``repro`` package.

    Any edit to the package changes it, so keys that carry it turn every
    entry written by other code into a miss.  Computed once per process.
    """
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, "rb") as fh:
                    source = fh.read()
                digest.update(f"{os.path.relpath(path, root)}\0"
                              f"{len(source)}\0".encode())
                digest.update(source)
    return digest.hexdigest()


def is_digest(text: str) -> bool:
    """True for a well-formed sha256 hex digest (the sidecar validity check)."""
    return len(text) == 64 and all(c in "0123456789abcdef" for c in text)


def read_digest_file(path: str) -> str | None:
    """A digest sidecar's contents, or ``None`` if missing/corrupt."""
    try:
        with open(path, "r") as fh:
            digest = fh.read().strip()
    except (OSError, UnicodeDecodeError):
        return None
    return digest if is_digest(digest) else None


def write_digest_file(path: str, digest: str) -> None:
    """Persist a digest sidecar atomically (safe under concurrent writers)."""
    atomic_write_text(path, digest)


# Raw-bytes sha256 -> image digest, shared by every entry point in this
# process.  Because JELF serialisation round-trips exactly, the raw file
# bytes identify the image; the memo still stores the canonical
# serialize() digest so a non-canonical file cannot alias a cache key.
_DIGEST_MEMO: dict[str, str] = {}


class DigestCache:
    """Optional persistent digest side-cache (a directory of sidecars).

    Maps an arbitrary string *tag* (e.g. the sha256 of a binary's file
    bytes, or the eval harness's workload-source tag) to an image
    digest.  Misses are recomputed by the caller; entries are one 64-hex
    line each, written atomically, validated on read.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def _path(self, tag: str) -> str:
        return os.path.join(self.root,
                            "digest-" + sha256_hex(tag.encode())[:32] + ".txt")

    def get(self, tag: str) -> str | None:
        return read_digest_file(self._path(tag))

    def put(self, tag: str, digest: str) -> None:
        write_digest_file(self._path(tag), digest)


def cached_image_digest(raw: bytes, cache: DigestCache | None = None,
                        deserialize=None) -> str:
    """Image digest for serialised binary bytes, memoised.

    ``deserialize`` maps raw bytes to an image (defaults to
    ``JELF.deserialize``); it only runs on a cold miss.  The in-process
    memo answers repeat lookups for free; ``cache`` persists answers
    across invocations so the CLI and the service share one keying path
    even without the eval harness's cache directory.
    """
    tag = "imgdigest|" + sha256_hex(raw)
    digest = _DIGEST_MEMO.get(tag)
    if digest is not None:
        # A memo hit still backfills the persistent cache so later
        # *processes* (not just later calls) share the answer.
        if cache is not None and cache.get(tag) is None:
            cache.put(tag, digest)
        return digest
    if cache is not None:
        digest = cache.get(tag)
    if digest is None:
        if deserialize is None:
            from repro.jbin.image import JELF
            deserialize = JELF.deserialize
        digest = image_digest(deserialize(raw))
        if cache is not None:
            cache.put(tag, digest)
    _DIGEST_MEMO[tag] = digest
    return digest
