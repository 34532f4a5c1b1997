"""The shared journal primitive: one contract over every journal class."""

from __future__ import annotations

import json
import warnings

import pytest

from repro import faultinject
from repro.parallel.session import JOURNAL_NAME, SessionJournal
from repro.serve.journal import STATE_NAME, ServeJournal

#: (factory, the fault site it fires, a phrase of its failure warning)
JOURNALS = [
    pytest.param(lambda d: SessionJournal(d), "journal.write", "resumed",
                 id="session"),
    pytest.param(lambda d: SessionJournal(d, durable=False), "journal.write",
                 "resumed", id="request-log"),
    pytest.param(lambda d: ServeJournal(d), "serve.journal", "crash-recovered",
                 id="state"),
]


@pytest.fixture(autouse=True)
def _disarm_faults():
    faultinject.clear()
    yield
    faultinject.clear()


def _tenant(i: int) -> dict:
    return {"type": "tenant", "graph": f"g{i}", "seed": 0}


@pytest.mark.parametrize("make, site, phrase", JOURNALS)
class TestJournalContract:
    def test_append_scan_round_trip(self, tmp_path, make, site, phrase):
        j = make(tmp_path)
        j.open()
        assert j.append({"type": "session", "tasks_fp": "abc"})
        assert j.append({"type": "done", "key": "k", "row": {"x": 1.5}})
        j.close()
        records, valid = type(j).scan(j.path)
        assert [r["type"] for r in records] == ["session", "done"]
        assert [r["seq"] for r in records] == [0, 1]
        assert records[1]["row"] == {"x": 1.5}
        assert valid == j.path.stat().st_size

    def test_torn_tail_truncated_and_seq_continues(self, tmp_path, make, site,
                                                   phrase):
        j = make(tmp_path)
        j.open()
        for i in range(3):
            j.append(_tenant(i))
        j.close()
        intact = j.path.stat().st_size
        with open(j.path, "ab") as fh:
            fh.write(b'{"seq":3,"type":"tenant","gr')  # torn mid-record
        records, valid = type(j).scan(j.path)
        assert len(records) == 3
        assert valid == intact
        j2 = make(tmp_path)
        j2.open()
        assert j2.path.stat().st_size == valid
        assert j2.append(_tenant(3))
        j2.close()
        records, valid2 = type(j).scan(j.path)
        assert [r["seq"] for r in records] == [0, 1, 2, 3]
        assert valid2 == j.path.stat().st_size

    def test_scan_missing_file(self, tmp_path, make, site, phrase):
        j = make(tmp_path)
        assert type(j).scan(tmp_path / "nope.jsonl") == ([], 0)
        assert type(j).scan(j.path) == ([], 0)

    def test_write_failure_disarms_with_one_warning(self, tmp_path, make, site,
                                                   phrase):
        j = make(tmp_path)
        assert j.site == site
        j.open()
        assert j.append(_tenant(0))
        faultinject.install(f"{site}:oserror", export_env=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not j.append(_tenant(1))
            # once degraded, appends are silent no-ops
            assert not j.append(_tenant(2))
        assert [w.category for w in caught] == [RuntimeWarning]
        assert phrase in str(caught[0].message)
        assert j.disabled
        assert j.write_failures == 1
        j.close()
        records, _ = type(j).scan(j.path)
        assert [r["graph"] for r in records] == ["g0"]


def test_reopen_after_torn_tail_keeps_every_later_record(tmp_path):
    """The daemon's request log reopens with a bare ``open()``: records
    written after a torn tail from an earlier run must stay visible."""
    j = SessionJournal(tmp_path, durable=False)
    j.open()
    for i in range(2):
        j.append({"type": "served", "op": "ping", "n": i})
    j.close()
    with open(j.path, "ab") as fh:
        fh.write(b'{"op":"partition","seq":2,"ty')
    j2 = SessionJournal(tmp_path, durable=False)
    j2.open()
    for i in range(2, 7):
        j2.append({"type": "served", "op": "ping", "n": i})
    j2.close()
    records, valid = SessionJournal.scan(j2.path)
    assert [r["seq"] for r in records] == list(range(7))
    assert [r["n"] for r in records] == list(range(7))
    assert valid == j2.path.stat().st_size


# ------------------------------------------------------- on-disk format

#: a 3-record state journal and a 3-record session journal, as written
#: before the journal classes shared one implementation; an existing
#: ``--log-dir`` or ``--resume`` directory must stay readable
GOLDEN_STATE = (
    b'{"graph":"ppa","seed":0,"seq":0,"sha":"fd1e03b73fdb3140","type":"tenant"}\n'
    b'{"key":["ppa",0,"gpu","hec","sort",false],"seq":1,"sha":"605a59409631fed6",'
    b'"tape_sha":"0123456789abcdef","type":"hierarchy"}\n'
    b'{"add":[[1,2,2.5]],"graph":"ppa","idem":"abc-1","remove":[],'
    b'"row":{"cut":0.125,"edges":10},"seed":0,"seq":2,"sha":"c111cb857709a379",'
    b'"type":"update"}\n'
)
GOLDEN_SESSION = (
    b'{"n_tasks":2,"schema":1,"seq":0,"tasks_fp":"ffffffffffffffff",'
    b'"type":"session"}\n'
    b'{"attempt":0,"digest":"34b4c9e793522ea6","key":"ppa|0",'
    b'"row":{"graph":"ppa","seed":0,"total_s":0.00015},"seq":1,"type":"done"}\n'
    b'{"attempt":2,"error":"ValueError: boom","key":"web|1","seq":2,'
    b'"type":"failed"}\n'
)


@pytest.mark.parametrize("cls, name, blob", [
    pytest.param(ServeJournal, STATE_NAME, GOLDEN_STATE, id="state"),
    pytest.param(SessionJournal, JOURNAL_NAME, GOLDEN_SESSION, id="session"),
])
def test_golden_bytes_scan_and_rewrite(tmp_path, cls, name, blob):
    expected = [json.loads(line) for line in blob.splitlines()]
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / name).write_bytes(blob)
    records, valid = cls.scan(tmp_path / "old" / name)
    assert records == expected
    assert valid == len(blob)

    j = cls(tmp_path / "new")
    j.open()
    for rec in expected:
        assert j.append({k: v for k, v in rec.items() if k not in ("seq", "sha")})
    j.close()
    assert j.path.name == name
    assert j.path.read_bytes() == blob
