"""Generation-change notification on top of the atomic symlink install.

:func:`repro.storage.snapshot.save_snapshot` installs every snapshot
generation by renaming a *symlink* over the target path, and the
payload directory the link points at gets a fresh, unique name per
install (``<target>.data-<pid>-<seq>``). That makes the link text
itself a cheap, race-free change token: one ``readlink`` syscall — no
manifest parse, no directory walk — tells a watcher whether a new
generation has been installed since it last looked.

:class:`SnapshotWatcher` wraps that into the polling primitive the
prefork dispatcher uses: ``poll()`` answers "did the snapshot under
this path change since construction / the last poll?". Because an
unlinked-but-still-mapped payload directory remains fully readable
(the PR-5 mmap-lifetime guarantee), a watcher firing *after* the old
payload was replaced is safe — readers on the old generation keep
working until they are drained and closed.

Quarantine (the defense-in-depth half): a generation that *installed*
fine but cannot be **opened** — checksum mismatch, mmap failure, torn
payload — must not be re-offered to workers on every poll, and the
compactor must not truncate the WAL past a horizon no worker durably
adopted. :func:`quarantine` drops a marker file in a ``.quarantine``
sibling directory keyed by the bad generation's token;
:func:`is_quarantined` / :func:`has_quarantine` are the single checks
the watcher and the compactor's truncation gate read. Markers are
plain JSON files on disk, so they survive a dispatcher restart and are
visible across processes; :func:`clear_quarantine` removes them once
the pool has adopted a newer, valid generation.
:func:`rollback_generation` points the link back at the last good
payload while it still exists.
:class:`SnapshotWatcher` owns that policy for a pool of readers; its
caller only counts and reports.
"""

from __future__ import annotations

import json
import os
import time

from repro.storage.snapshot import _flip_link, is_snapshot, read_manifest

__all__ = [
    "generation_token",
    "rollback_generation",
    "SnapshotWatcher",
    "quarantine_path",
    "quarantine",
    "is_quarantined",
    "quarantined",
    "clear_quarantine",
    "has_quarantine",
]

_LINK = "link:"


def generation_token(path: "str | os.PathLike") -> "str | None":
    """Opaque token identifying the snapshot generation at ``path``.

    Two calls return equal tokens iff no new generation was installed
    in between. ``None`` means no snapshot exists there (yet). The
    fast path is a single ``readlink``; a non-symlink snapshot (e.g.
    one copied with ``cp -r``, which dereferences links) falls back to
    the manifest's generation counter.
    """
    target = os.fspath(path)
    try:
        return _LINK + os.path.basename(os.readlink(target))
    except OSError:
        pass
    if is_snapshot(target):
        return "gen:" + str(read_manifest(target).get("generation", 0))
    return None


def rollback_generation(
    path: "str | os.PathLike", bad_token: str, good_token: "str | None"
) -> bool:
    """Point the snapshot symlink at ``path`` back at ``good_token``.

    Only possible when (a) the link still shows ``bad_token`` (nothing
    newer raced in), (b) ``good_token`` is a symlink install, and (c)
    its payload directory survived (the regular installer deletes the
    old payload after a flip, so rollback mostly applies to externally
    or partially performed installs — exactly the corrupt-install
    case). Returns whether the link was flipped; a failed flip raises
    :class:`OSError`.
    """
    target = os.fspath(path)
    if good_token is None or not good_token.startswith(_LINK):
        return False
    if good_token == bad_token or generation_token(target) != bad_token:
        return False
    payload = os.path.join(
        os.path.dirname(os.path.abspath(target)), good_token[len(_LINK):]
    )
    if not os.path.isdir(payload):
        return False
    _flip_link(target, payload)
    return True


# ----------------------------------------------------------------------
# Generation quarantine
# ----------------------------------------------------------------------


def quarantine_path(path: "str | os.PathLike") -> str:
    """The marker directory paired with a snapshot path.

    A ``.quarantine`` sibling (like the ``.wal`` sibling): the snapshot
    directory itself is replaced wholesale by every atomic install, and
    the markers must survive exactly those installs.
    """
    return os.fspath(path) + ".quarantine"


def _marker_name(token: str) -> str:
    """A filesystem-safe marker filename for one generation token."""
    safe = "".join(
        c if c.isalnum() or c in "._-" else "_" for c in token
    )
    return safe[:200] + ".json"


def quarantine(
    path: "str | os.PathLike", token: str, reason: str = ""
) -> str:
    """Mark the generation ``token`` of snapshot ``path`` as unopenable.

    Drops a JSON marker file (idempotent — re-quarantining refreshes
    it) and returns its path. The marker records the raw token, the
    reason, and a wall-clock timestamp for the operator.
    """
    directory = quarantine_path(path)
    os.makedirs(directory, exist_ok=True)
    marker = os.path.join(directory, _marker_name(token))
    payload = {"token": token, "reason": reason, "time": time.time()}
    tmp = marker + f".tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, marker)
    return marker


def is_quarantined(path: "str | os.PathLike", token: "str | None") -> bool:
    """True iff ``token`` carries a live quarantine marker."""
    if token is None:
        return False
    return os.path.exists(
        os.path.join(quarantine_path(path), _marker_name(token))
    )


def quarantined(path: "str | os.PathLike") -> "list[dict]":
    """Every live marker for ``path`` (token, reason, time), sorted."""
    directory = quarantine_path(path)
    entries = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return entries
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(
                os.path.join(directory, name), "r", encoding="utf-8"
            ) as handle:
                entries.append(json.load(handle))
        except (OSError, ValueError):
            # A half-written or vanished marker is treated as absent.
            continue
    return entries


def has_quarantine(path: "str | os.PathLike") -> bool:
    """True iff *any* generation of ``path`` is quarantined.

    The compactor's truncation gate: while a marker is live, some
    installed generation was never adopted by the pool, so the WAL must
    keep every record the last *adopted* generation does not contain.
    """
    directory = quarantine_path(path)
    try:
        return any(
            name.endswith(".json") for name in os.listdir(directory)
        )
    except OSError:
        return False


def clear_quarantine(
    path: "str | os.PathLike", token: "str | None" = None
) -> int:
    """Remove one marker (``token``) or all of them; returns how many."""
    directory = quarantine_path(path)
    if token is not None:
        names = [_marker_name(token)]
    else:
        try:
            names = [
                n for n in os.listdir(directory) if n.endswith(".json")
            ]
        except OSError:
            return 0
    removed = 0
    for name in names:
        try:
            os.unlink(os.path.join(directory, name))
            removed += 1
        except OSError:
            continue
    if removed:
        try:
            os.rmdir(directory)  # succeeds only once empty
        except OSError:
            pass
    return removed


class SnapshotWatcher:
    """Polls a snapshot path for newly installed generations.

    Stateful: remembers the token seen at construction (or last
    ``poll``) and reports only *changes*. A path with no snapshot yet
    arms the watcher — the first install fires it.

    A newly installed generation that carries a quarantine marker is
    *consumed without firing*: the watcher remembers its token — so the
    same bad generation is never re-offered on every poll — but
    reports no change; the next install of a non-quarantined
    generation fires normally.

    :attr:`adopted` is the last generation every reader opened: build
    the watcher once they have opened the current one.
    """

    def __init__(self, path: "str | os.PathLike"):
        self.path = os.fspath(path)
        self._token = generation_token(self.path)
        #: The rollback target when a later install cannot be opened.
        self.adopted: "str | None" = (
            None if is_quarantined(self.path, self._token) else self._token
        )

    @property
    def token(self) -> "str | None":
        """The most recently observed generation token."""
        return self._token

    def poll(self) -> bool:
        """True iff a new generation appeared since the last look.

        A snapshot *vanishing* (token ``None``) does not fire — there
        is nothing new to hand off to; the next install will.
        """
        current = generation_token(self.path)
        if current is None or current == self._token:
            return False
        self._token = current
        return not is_quarantined(self.path, current)

    def sync(self) -> "str | None":
        """Adopt the current token without firing; returns it.

        Used after a generation *rollback*: the dispatcher re-points
        the symlink at the last known-good payload, which changes the
        token — without a resync the next poll would fire and re-offer
        the generation every worker is already serving.
        """
        self._token = generation_token(self.path)
        return self._token

    def adopt(self, token: str) -> int:
        """Record that every reader opened ``token``.

        Moving on to a new good generation makes the markers earlier
        bad installs left obsolete: they are cleared, and the count of
        cleared markers is returned.
        """
        previous, self.adopted = self.adopted, token
        return 0 if previous == token else clear_quarantine(self.path)

    def reject(self, token: str, reason: str = ""):
        """Quarantine ``token``, which a reader could not open, then roll
        the link back to :attr:`adopted` (:func:`rollback_generation`).

        Returns ``(quarantined, rolled_back, errors)``: disk trouble in
        either step is listed, not raised, and does not skip the other.
        The watcher then syncs (:meth:`sync`): a rollback fires no reload.
        """
        errors = []
        try:
            quarantine(self.path, token, reason=reason)
            marked = True
        except OSError as exc:
            marked = False
            errors.append(f"could not quarantine {token!r}: {exc}")
        try:
            rolled_back = rollback_generation(self.path, token, self.adopted)
        except OSError as exc:
            rolled_back = False
            errors.append(f"rollback to {self.adopted!r} failed: {exc}")
        self.sync()
        return marked, rolled_back, errors
