"""Tests for index persistence."""

import pytest

from repro.graph.static import Graph
from repro.index.deltagraph import DeltaGraphIndex
from repro.index.tgi import TGI, TGIConfig
from repro.storage import PersistenceError, load_index, save_index
from tests.helpers import random_history


@pytest.fixture(scope="module")
def events():
    return random_history(steps=120, seed=55)


def test_save_load_roundtrip_tgi(tmp_path, events):
    tgi = TGI(TGIConfig(events_per_timespan=60, eventlist_size=15,
                        micro_partition_size=8))
    tgi.build(events)
    path = tmp_path / "index.hgs"
    save_index(tgi, path)
    loaded = load_index(path)
    t = events[-1].time
    assert loaded.get_snapshot(t) == Graph.replay(events, until=t)


def test_save_load_roundtrip_deltagraph(tmp_path, events):
    idx = DeltaGraphIndex(eventlist_size=20)
    idx.build(events)
    path = tmp_path / "dg.hgs"
    save_index(idx, path)
    loaded = load_index(path)
    assert loaded.get_snapshot(50) == idx.get_snapshot(50)


def test_loaded_index_supports_update(tmp_path, events):
    tgi = TGI(TGIConfig(events_per_timespan=60, eventlist_size=15,
                        micro_partition_size=8))
    tgi.build(events[:100])
    path = tmp_path / "index.hgs"
    save_index(tgi, path)
    loaded = load_index(path)
    loaded.update(events[100:])
    t = events[-1].time
    assert loaded.get_snapshot(t) == Graph.replay(events, until=t)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.hgs"
    path.write_bytes(b"not an index")
    with pytest.raises(PersistenceError):
        load_index(path)


def test_load_rejects_wrong_payload(tmp_path):
    import pickle

    from repro.storage import _FORMAT_VERSION

    path = tmp_path / "wrong.hgs"
    path.write_bytes(pickle.dumps({"magic": "hgs-index",
                                   "format": _FORMAT_VERSION,
                                   "class": "X", "index": 42}))
    with pytest.raises(PersistenceError):
        load_index(path)


def test_load_rejects_pre_exec_layer_format(tmp_path):
    import pickle

    path = tmp_path / "old.hgs"
    path.write_bytes(pickle.dumps({"magic": "hgs-index", "format": 1,
                                   "class": "TGI", "index": None}))
    with pytest.raises(PersistenceError):
        load_index(path)


def test_load_rejects_future_format(tmp_path):
    import pickle

    path = tmp_path / "future.hgs"
    path.write_bytes(pickle.dumps({"magic": "hgs-index", "format": 99,
                                   "class": "TGI", "index": None}))
    with pytest.raises(PersistenceError):
        load_index(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(PersistenceError):
        load_index(tmp_path / "missing.hgs")


def test_load_rejects_format_8_pickled_envelope(tmp_path):
    import pickle

    path = tmp_path / "v8.hgs"
    path.write_bytes(pickle.dumps({"magic": "hgs-index", "format": 8,
                                   "class": "TGI", "index": None}))
    with pytest.raises(PersistenceError, match="format 8"):
        load_index(path)


def test_load_wraps_unpickling_errors(tmp_path):
    from repro.storage import (
        _FORMAT_VERSION, _HEADER_MAGIC, _VERSION, _digest,
    )

    # a well-formed header whose digest matches a payload that still
    # fails to unpickle (e.g. written by a build with a missing class)
    payload = b"\x80\x05cno_such_module\nNoSuchClass\n."
    version = _VERSION.pack(_FORMAT_VERSION)
    path = tmp_path / "bad-payload.hgs"
    path.write_bytes(
        _HEADER_MAGIC + version + _digest(version, payload) + payload
    )
    with pytest.raises(PersistenceError, match="ModuleNotFoundError"):
        load_index(path)


def test_corrupted_index_files_fail_typed(tmp_path, events):
    """Seeded fuzz: every truncation and every single-bit flip of a
    saved index raises PersistenceError — never a raw exception, never
    a silent load."""
    import random

    tgi = TGI(TGIConfig(events_per_timespan=60, eventlist_size=15,
                        micro_partition_size=8))
    tgi.build(events)
    good = tmp_path / "good.hgs"
    save_index(tgi, good)
    data = good.read_bytes()
    rng = random.Random(1234)
    header = 64  # magic + version + digest, plus the payload's start
    cases = [("truncate", n) for n in range(0, header)]
    cases += [("truncate", rng.randrange(len(data))) for _ in range(40)]
    cases += [("flip", pos) for pos in range(header)]
    cases += [("flip", rng.randrange(len(data))) for _ in range(300)]
    bad = tmp_path / "bad.hgs"
    for kind, pos in cases:
        if kind == "truncate":
            blob = data[:pos]
        else:
            flipped = bytearray(data)
            flipped[pos] ^= 1 << rng.randrange(8)
            blob = bytes(flipped)
        bad.write_bytes(blob)
        try:
            load_index(bad)
        except PersistenceError:
            continue
        except Exception as exc:  # pragma: no cover - the failure mode
            pytest.fail(f"{kind}@{pos}: raw {type(exc).__name__}: {exc}")
        pytest.fail(f"{kind}@{pos}: corrupted file loaded silently")
