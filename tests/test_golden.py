"""Every scheme and primitive gives the schedules, message bytes, labels and
outputs stored in `tests/data/golden_digests.json`, and the large runs the
traces stored in `tests/data/large_digests.json` (see `golden.py` for the
sweeps and the regeneration command)."""

import json

import pytest

from golden import (
    GOLDEN,
    LARGE,
    LARGE_RUNS,
    PARTS,
    SCHEMES,
    byte_digest,
    large_digest,
    schedule_digest,
    sweep,
    trace_digest,
)
from radiolab.graphs import gen_grid
from radiolab.schemes import build_bundle
from radiolab.sim import RoundRecord, run
from radiolab.toprec import TopRecProgram

STORED = json.loads(GOLDEN.read_text())


def test_every_stored_scheme_is_swept():
    assert sorted(STORED) == sorted(SCHEMES)
    assert all(sorted(parts) == sorted(PARTS) for parts in STORED.values())


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sweep_matches_golden(scheme):
    got, want = sweep(scheme), STORED[scheme]
    assert got.keys() == want.keys()
    for part in want:
        changed = sorted(gid for gid in want[part] if got[part].get(gid) != want[part][gid])
        assert got[part].keys() == want[part].keys(), part
        assert not changed, f"{scheme} {part}: {len(changed)} graph(s) differ: {changed[:10]}"


@pytest.mark.parametrize("key", LARGE_RUNS)
def test_large_run_matches_golden(key):
    assert large_digest(key) == json.loads(LARGE.read_text())[key]


def test_every_large_run_is_stored():
    assert sorted(json.loads(LARGE.read_text())) == sorted(LARGE_RUNS)


class TestDigest:
    """The digest sees every message byte and output round, and nothing of
    the container type of an output."""

    @staticmethod
    def _trace():
        g = gen_grid(3, 3)
        tr = run(g, build_bundle("toprec", g).labels, TopRecProgram)
        assert all(type(out) is tuple for out in tr.outputs)
        return tr

    @staticmethod
    def _flip(message: bytes) -> bytes:
        return bytes([message[0] ^ 1]) + message[1:]

    def test_transmitted_byte_changes_digest(self):
        tr = self._trace()
        before = trace_digest(tr, "toprec")
        i = next(i for i, rec in enumerate(tr.rounds) if rec.transmitters)
        rec = tr.rounds[i]
        (v, m), *rest = rec.transmitters.items()
        tr.rounds[i] = RoundRecord({v: self._flip(m), **dict(rest)}, rec.heard)
        assert trace_digest(tr, "toprec") != before

    def test_heard_byte_changes_digest(self):
        tr = self._trace()
        before = trace_digest(tr, "toprec")
        i = next(i for i, rec in enumerate(tr.rounds) if rec.heard)
        rec = tr.rounds[i]
        (w, m), *rest = rec.heard.items()
        tr.rounds[i] = RoundRecord(rec.transmitters, {w: self._flip(m), **dict(rest)})
        assert trace_digest(tr, "toprec") != before

    def test_output_round_changes_digest(self):
        tr = self._trace()
        before = trace_digest(tr, "toprec")
        tr.output_round[-1] += 1
        assert trace_digest(tr, "toprec") != before

    def test_tuple_output_as_list_keeps_digest(self):
        tr = self._trace()
        before = trace_digest(tr, "toprec")
        tr.outputs = [list(out) for out in tr.outputs]
        assert trace_digest(tr, "toprec") == before


class TestTwoLayers:
    """The schedule digest sees transmitters, who heard whom, round counts
    and outputs but no message byte; the byte digest sees every message
    byte, sent or heard."""

    _trace = staticmethod(TestDigest._trace)
    _flip = staticmethod(TestDigest._flip)

    @staticmethod
    def digests(tr):
        return schedule_digest(tr, "toprec"), byte_digest(tr)

    def test_transmitted_byte_moves_only_the_byte_digest(self):
        tr = self._trace()
        schedule, data = self.digests(tr)
        i = next(i for i, rec in enumerate(tr.rounds) if rec.transmitters)
        rec = tr.rounds[i]
        tr.rounds[i] = RoundRecord({v: self._flip(m) for v, m in rec.transmitters.items()},
                                   {w: self._flip(m) for w, m in rec.heard.items()})
        assert self.digests(tr)[0] == schedule
        assert self.digests(tr)[1] != data

    def test_heard_byte_moves_only_the_byte_digest(self):
        tr = self._trace()
        schedule, data = self.digests(tr)
        i = next(i for i, rec in enumerate(tr.rounds) if rec.heard)
        rec = tr.rounds[i]
        (w, m), *rest = rec.heard.items()
        tr.rounds[i] = RoundRecord(rec.transmitters, {w: self._flip(m), **dict(rest)})
        assert self.digests(tr)[0] == schedule
        assert self.digests(tr)[1] != data

    def test_dropped_listener_or_transmitter_moves_the_schedule(self):
        tr = self._trace()
        schedule, _ = self.digests(tr)
        i = next(i for i, rec in enumerate(tr.rounds) if len(rec.heard) > 1)
        rec = tr.rounds[i]
        _, *rest = rec.heard.items()
        tr.rounds[i] = RoundRecord(rec.transmitters, dict(rest))
        assert self.digests(tr)[0] != schedule
        tr.rounds[i] = RoundRecord({}, rec.heard)  # heard from no neighbour
        assert self.digests(tr)[0] != schedule
        tr.rounds[i] = rec
        assert self.digests(tr)[0] == schedule

    def test_output_round_moves_only_the_schedule_digest(self):
        tr = self._trace()
        schedule, data = self.digests(tr)
        tr.output_round[-1] += 1
        assert self.digests(tr) != (schedule, data)
        assert self.digests(tr)[1] == data

    def test_tuple_output_as_list_keeps_the_schedule_digest(self):
        tr = self._trace()
        before = self.digests(tr)
        tr.outputs = [list(out) for out in tr.outputs]
        assert self.digests(tr) == before
