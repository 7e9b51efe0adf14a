"""Generation quarantine: markers, the watcher, rollback, and the
compaction gate.

Quarantine is how the serving stack remembers — across processes and
restarts — that an *installed* snapshot generation turned out to be
unopenable. These tests pin the disk format's observable behavior: the
markers survive anything short of :func:`clear_quarantine`, the
dispatcher's watcher never re-offers a marked token, a rollback flips
the link back only while the bad generation is still current and the
good payload still exists,
and :func:`repro.storage.recovery.compact` refuses to truncate the WAL
while any marker is live (the only adoptable state may still need
those records).
"""

from __future__ import annotations

import os
import shutil

from repro.graph.builder import GraphBuilder
from repro.storage import (
    SnapshotWatcher,
    clear_quarantine,
    generation_token,
    has_quarantine,
    is_quarantined,
    open_store,
    quarantine,
    quarantine_path,
    quarantined,
    save_snapshot,
    scan_wal,
)
from repro.storage.generations import rollback_generation
from repro.storage.recovery import close_store, compact, wal_path_for


def _store(n=3):
    builder = GraphBuilder()
    for i in range(n):
        builder.edge(f"a{i}", "p", f"b{i}")
    return builder.build(freeze=True)


# ----------------------------------------------------------------------
# Marker mechanics
# ----------------------------------------------------------------------


def test_quarantine_marker_roundtrip(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_store(), snap, generation=1)
    token = generation_token(snap)

    assert not is_quarantined(snap, token)
    assert not has_quarantine(snap)

    marker = quarantine(snap, token, reason="checksum mismatch")
    assert os.path.exists(marker)
    assert is_quarantined(snap, token)
    assert has_quarantine(snap)
    entries = quarantined(snap)
    assert [e["token"] for e in entries] == [token]
    assert entries[0]["reason"] == "checksum mismatch"

    # Idempotent: re-marking refreshes, never duplicates.
    quarantine(snap, token, reason="still bad")
    assert len(quarantined(snap)) == 1

    assert clear_quarantine(snap, token) == 1
    assert not has_quarantine(snap)
    # The (now empty) marker directory is removed with the last marker.
    assert not os.path.exists(quarantine_path(snap))


def test_quarantine_survives_a_new_install(tmp_path):
    """Markers live beside the snapshot, not inside it — an atomic
    install replacing the snapshot wholesale must not launder a bad
    generation's record."""
    snap = tmp_path / "snap"
    save_snapshot(_store(3), snap, generation=1)
    bad = generation_token(snap)
    quarantine(snap, bad, reason="unopenable")
    save_snapshot(_store(5), snap, overwrite=True, generation=2)
    assert is_quarantined(snap, bad)
    assert not is_quarantined(snap, generation_token(snap))


def test_marker_names_are_filesystem_safe(tmp_path):
    snap = tmp_path / "snap"
    hostile = "link:../../etc/passwd\n" + "x" * 500
    quarantine(snap, hostile)
    assert is_quarantined(snap, hostile)
    # Everything stayed inside the marker directory.
    (name,) = os.listdir(quarantine_path(snap))
    assert "/" not in name and len(name) <= 205
    assert clear_quarantine(snap) == 1


def test_clear_all_markers(tmp_path):
    snap = tmp_path / "snap"
    quarantine(snap, "link:a")
    quarantine(snap, "link:b")
    assert len(quarantined(snap)) == 2
    assert clear_quarantine(snap) == 2
    assert quarantined(snap) == []
    assert clear_quarantine(snap) == 0  # idempotent on nothing


# ----------------------------------------------------------------------
# Watcher integration
# ----------------------------------------------------------------------


def test_watcher_skips_quarantined_generation_without_refiring(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_store(3), snap, generation=1)
    watcher = SnapshotWatcher(snap)

    # Generation 2 installs but is immediately found bad.
    save_snapshot(_store(4), snap, overwrite=True, generation=2)
    bad = generation_token(snap)
    quarantine(snap, bad, reason="mmap failure")

    # The watcher consumes the token silently — and *stays* silent on
    # every subsequent poll (no re-offer loop).
    assert watcher.poll() is False
    assert watcher.poll() is False
    assert watcher.token == bad

    # A valid generation 3 fires normally.
    save_snapshot(_store(5), snap, overwrite=True, generation=3)
    assert watcher.poll() is True
    assert watcher.poll() is False


def test_watcher_sync_adopts_without_firing(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_store(3), snap, generation=1)
    watcher = SnapshotWatcher(snap)
    save_snapshot(_store(4), snap, overwrite=True, generation=2)
    assert watcher.sync() == generation_token(snap)
    assert watcher.poll() is False  # the change was adopted, not fired


# ----------------------------------------------------------------------
# Rollback
# ----------------------------------------------------------------------


def _flip_to_copy(snap) -> "tuple[str, str]":
    """Point ``snap`` at a copy of its payload and keep the original —
    an install that did not delete its predecessor. Returns the
    ``(good, bad)`` tokens."""
    snap = os.fspath(snap)
    parent = os.path.dirname(snap)
    good = generation_token(snap)
    bad_payload = os.path.basename(snap) + ".data-copy"
    shutil.copytree(
        os.path.join(parent, os.readlink(snap)),
        os.path.join(parent, bad_payload),
    )
    os.symlink(bad_payload, snap + ".flip")
    os.replace(snap + ".flip", snap)
    return good, generation_token(snap)


def test_rollback_flips_the_link_back_to_the_good_payload(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_store(), snap, generation=1)
    good, bad = _flip_to_copy(snap)

    assert rollback_generation(snap, bad, good) is True
    assert generation_token(snap) == good
    # The temporary link was renamed over the target, not left behind.
    assert not [n for n in os.listdir(tmp_path) if ".lnk" in n]


def test_rollback_refuses_when_a_newer_generation_raced_in(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_store(), snap, generation=1)
    good, bad = _flip_to_copy(snap)
    save_snapshot(_store(4), snap, overwrite=True, generation=2)
    newer = generation_token(snap)

    assert rollback_generation(snap, bad, good) is False
    assert generation_token(snap) == newer


def test_rollback_refuses_a_gen_token(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_store(), snap, generation=1)
    _good, bad = _flip_to_copy(snap)

    assert rollback_generation(snap, bad, "gen:1") is False
    assert generation_token(snap) == bad


def test_rollback_refuses_when_the_good_payload_is_gone(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_store(), snap, generation=1)
    good, bad = _flip_to_copy(snap)
    shutil.rmtree(tmp_path / good[len("link:"):])

    assert rollback_generation(snap, bad, good) is False
    assert generation_token(snap) == bad


# ----------------------------------------------------------------------
# The watcher's generation policy: adopt, reject
# ----------------------------------------------------------------------


def test_watcher_rejects_to_the_adopted_generation_and_adopt_clears(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_store(), snap, generation=1)
    watcher = SnapshotWatcher(snap)
    good = watcher.adopted
    assert good == generation_token(snap)

    _good, bad = _flip_to_copy(snap)
    assert watcher.poll() is True
    assert watcher.reject(bad, reason="checksum mismatch") == (True, True, [])
    assert is_quarantined(snap, bad)
    assert generation_token(snap) == good
    assert watcher.poll() is False  # the rollback fires nothing
    assert watcher.adopted == good

    assert watcher.adopt(good) == 0  # no move, markers stay
    save_snapshot(_store(4), snap, overwrite=True, generation=2)
    assert watcher.poll() is True
    assert watcher.adopt(generation_token(snap)) == 1
    assert not has_quarantine(snap)


def test_watcher_reports_disk_trouble_instead_of_raising(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_store(), snap, generation=1)
    with open(quarantine_path(snap), "w"):  # a file where the dir goes
        pass
    watcher = SnapshotWatcher(snap)
    good, bad = _flip_to_copy(snap)

    marked, rolled_back, errors = watcher.reject(bad)
    assert (marked, rolled_back) == (False, True)
    assert len(errors) == 1 and "could not quarantine" in errors[0]
    assert generation_token(snap) == good


def test_watcher_never_adopts_a_quarantined_generation(tmp_path):
    snap = tmp_path / "snap"
    save_snapshot(_store(), snap, generation=1)
    quarantine(snap, generation_token(snap))
    assert SnapshotWatcher(snap).adopted is None
    assert SnapshotWatcher(tmp_path / "missing").adopted is None


# ----------------------------------------------------------------------
# Compaction gate
# ----------------------------------------------------------------------


def test_compact_refuses_wal_truncation_under_quarantine(tmp_path):
    snap = tmp_path / "snap"
    store = open_store(snap)
    store.add_term_triples([("a", "p", "b"), ("b", "p", "c")])
    assert scan_wal(wal_path_for(snap)).records

    quarantine(snap, "link:somewhere-bad", reason="pool rejected it")
    try:
        manifest = compact(store)
        # The snapshot is still written (it may be the fix)...
        assert manifest["generation"] == 1
        assert manifest["wal_truncated"] is False
        # ...but every WAL record survives: the only generation the
        # pool durably adopted may still need them.
        assert len(scan_wal(wal_path_for(snap)).records) == 1

        clear_quarantine(snap)
        manifest = compact(store)
        assert manifest["wal_truncated"] is True
        assert scan_wal(wal_path_for(snap)).records == []
    finally:
        close_store(store)
