"""Every scheme and primitive gives the schedules, message bytes, labels and
outputs stored in `tests/data/golden_digests.json`, the large runs the
traces stored in `tests/data/large_digests.json`, and label synthesis the
outputs stored in `tests/data/synthesis_digests.json` (see `golden.py` for
the sweeps and the regeneration command)."""

import json

import pytest

from golden import (
    GOLDEN,
    LARGE,
    LARGE_RUNS,
    LARGE_SYNTHESIS,
    LB_SIZES,
    MULTI_SOURCE_CORES,
    PARTS,
    SCHEMES,
    SYNTHESIS,
    SYNTHESIS_GROUPS,
    build,
    byte_digest,
    large_digest,
    schedule_digest,
    sweep,
    synthesis_digest,
    synthesis_keys,
    synthesis_sweep,
    trace_digest,
)
from radiolab.broadcast import synthesize_core
from radiolab.graphs import gen_grid, gen_lb_family
from radiolab.schemes import build_bundle
from radiolab.sim import RoundRecord, run
from radiolab.toprec import TopRecProgram

STORED = json.loads(GOLDEN.read_text())
STORED_SYNTHESIS = json.loads(SYNTHESIS.read_text())


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


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cd_run_keeps_the_nocd_digests(scheme):
    """Collision detection only marks the trace: on G_16..G_144 a run with
    it gives the stored schedule and byte digests of the run without."""
    for n in (16, 36, 64, 100, 144):
        g, gid = gen_lb_family(n)[0], f"G_{n}"
        labels, program = build(scheme, g)
        trace = run(g, labels, program, cd=True)
        assert trace.cd
        assert schedule_digest(trace, scheme) == STORED[scheme]["schedule/nocd"][gid], gid
        assert byte_digest(trace) == STORED[scheme]["bytes/nocd"][gid], gid


@pytest.mark.parametrize("key", LARGE_RUNS)
def test_large_run_matches_golden(key):
    assert large_digest(key) == json.loads(LARGE.read_text())[key]


def test_every_large_run_is_stored():
    assert sorted(json.loads(LARGE.read_text())) == sorted(LARGE_RUNS)


# (test id, synthesis group, slice of its inputs): each corpus in four
# parts, every other input on its own, so the parts cover every input
SYNTHESIS_PARTS = [
    *((f"size-{p}", "size corpus", slice(p, None, 4)) for p in range(4)),
    *((f"toprec-{p}", "toprec corpus", slice(p, None, 4)) for p in range(4)),
    *((f"G_{n}", "lower bound", slice(i, i + 1)) for i, n in enumerate(LB_SIZES)),
    *((gid, "large", slice(i, i + 1)) for i, gid in enumerate(LARGE_SYNTHESIS)),
    *((f"seed-{i}", "multi-source cores", slice(i, i + 1)) for i in range(MULTI_SOURCE_CORES)),
]


def test_every_synthesis_input_is_stored():
    assert sorted(STORED_SYNTHESIS) == sorted(SYNTHESIS_GROUPS)
    for group in SYNTHESIS_GROUPS:
        assert STORED_SYNTHESIS[group].keys() == synthesis_keys(group), group


@pytest.mark.parametrize("group,part", [case[1:] for case in SYNTHESIS_PARTS],
                         ids=[case[0] for case in SYNTHESIS_PARTS])
def test_synthesis_matches_golden(group, part):
    got, want = synthesis_sweep(group, part), STORED_SYNTHESIS[group]
    assert got and got.keys() <= want.keys()
    changed = sorted(key for key in got if got[key] != want[key])
    assert not changed, f"{group}: {len(changed)} output(s) differ: {changed[:10]}"


class TestSynthesisDigest:
    """The synthesis digest sees every label bit and every field of a stage
    record, and nothing of a dict's insertion order."""

    def test_label_bit_changes_digest(self):
        bundle = build_bundle("compact", gen_grid(3, 3))
        before = synthesis_digest(bundle)
        label = bundle.labels[4]
        bundle.labels[4] = label[:-1] + "10"[int(label[-1])]
        assert synthesis_digest(bundle) != before

    def test_stage_record_changes_digest(self):
        syn = synthesize_core(gen_grid(3, 3), {0})
        before = synthesis_digest(syn)
        rec = next(rec for rec in syn.stages if rec.newly)
        v = next(iter(rec.feedback))
        rec.feedback[v] = max(u for u, p in rec.newly.items() if p == v) + 1
        assert synthesis_digest(syn) != before

    def test_dict_order_keeps_digest(self):
        syn = synthesize_core(gen_grid(3, 3), {0})
        before = synthesis_digest(syn)
        for rec in syn.stages:
            rec.newly = dict(reversed(rec.newly.items()))
        assert synthesis_digest(syn) == before


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
