"""Golden move-for-move parity for the sequential refiners.

FM, greedy graph growing, exact rebalance and greedy k-way refinement
are sequential by design: a faster rewrite must make exactly the same
moves.  Each case hashes the final part array, the cut, and the
simulated seconds (total and refinement phase) of one corpus run; the
digests below were recorded before the refiners moved their per-move
state onto Python-native containers, and any change to a move, a
tie-break or a ledger charge shows up here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench.harness import run_partition, run_partition_kway
from repro.generators import corpus
from repro.partition import baselines
from repro.trace import Tracer


def _digest(part: np.ndarray, cut, tracer: Tracer) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(part).tobytes())
    h.update(repr(cut).encode())
    h.update(repr(tracer.total_seconds()).encode())
    h.update(repr(tracer.phase_seconds("refinement")).encode())
    return h.hexdigest()


def _fm_case(graph: str, seed: int) -> str:
    g, spec = corpus.load(graph)
    r = run_partition(g, spec, refinement="fm", seed=seed)
    return _digest(r["result"].part, r["cut"], r["trace"])


def _kway_case(graph: str, k: int) -> str:
    g, spec = corpus.load(graph)
    r = run_partition_kway(g, spec, k=k)
    return _digest(r["part"], r["cut"], r["trace"])


def _metis_case(graph: str, monkeypatch) -> str:
    # metis_like builds its own space; trace it through the factory
    tracers = []
    make_space = baselines.cpu_space

    def traced_space(seed):
        space = make_space(seed)
        tracers.append(Tracer("metis_like").attach(space))
        return space

    monkeypatch.setattr(baselines, "cpu_space", traced_space)
    g, _ = corpus.load(graph)
    res = baselines.metis_like(g)
    (tracer,) = tracers
    tracer.close()
    return _digest(res.part, res.cut, tracer)


FM_GOLDEN = {
    ("ppa", 0): "3f8edde6e2bb7eb1d6efbc093885f1341288e4c97be542180a401e3dc91a7646",
    ("ppa", 1): "c846705d4c66feb799c7250fce1c1ea1fb764ef3faf2123e20917bc0ab4cd7c1",
    ("ppa", 2): "b2ad90e2696321590a1324bfdaeb665faa095059391ce476bafc4fe886ea217e",
    ("citation", 0): "0752bc5a6ef50a22ef2b0c90bac3f9cde8d3fdd57622cf2a2cae7d5c2b0a5b7b",
    ("citation", 1): "d5df4375537b31e57974f6a28c99929ca46b5f8409d58deda184fa4047d786f6",
    ("citation", 2): "c7c2adfe7916fb07cf184290faf52df1c6223af8a761d122c43701a7ebfd4eb4",
    ("kron21", 0): "f28257db4678ee73cfd817eef8985860ff7b9fb45c2c745d2fd950431b033aa1",
    ("kron21", 1): "132b6590998671bfbf460622d28cd51d1dc91397b66c7ba8b49029e6819516b1",
    ("kron21", 2): "d0e62887e8e116a9ea1daa04c5f3383cd651e7261ecda78b6550149cf105e7e9",
    ("mycielskian17", 0): "8922351041e8a0ded5fe57de9ff94bf87b511566cffd424052f7ae8c5f8eb98e",
    ("mycielskian17", 1): "8922351041e8a0ded5fe57de9ff94bf87b511566cffd424052f7ae8c5f8eb98e",
    ("mycielskian17", 2): "b86a006d85ea804ab28efe882ef84740e280c09d6a44037c1c328b93a3222df5",
    ("Flan1565", 0): "c0a5da72f2a9589b53d4ba14cc68bd809e1306e08715f50a4d3eab5f0e64f292",
    ("Flan1565", 1): "c2d8c95008d3276b54dcec35ff94428802f003297a2e9a83da2c3c5ee3c8985a",
    ("Flan1565", 2): "72333a1bc4596caf4a6a4ebc3b2facc1399adf581fa5c7dc58f9d676759fc542",
}

METIS_GOLDEN = {
    "ppa": "1954778648fe994071499cbfcbcd68fdc5e7d7ce9dfcefdb9f8b537bfa196f7a",
    "citation": "c437504d3861bcad6480cbe985f5ed6427b0986a2590578a130e80bacd3a1061",
}

KWAY_GOLDEN = {
    ("ppa", 4): "31d5de76906358bede2d682cf64f5677aa05c9f8019d7a13eeed5f83c8cbc84e",
    ("ppa", 16): "86b6e1e3b47fe5e853b52aeab3e7021cef87c4ec90d4ccd92afcacf25381f5f6",
    ("citation", 4): "a923f9be2391a23a5b313f16e9a4001efc32ca83605f4fe70551443b41e6266a",
    ("citation", 16): "ba57ec135a1a17301a90ecddd9141a617bc89668a71bf887f8ec3238e61ebd16",
}


@pytest.mark.parametrize("graph,seed", sorted(FM_GOLDEN))
def test_fm_bisection_parity(graph, seed):
    assert _fm_case(graph, seed) == FM_GOLDEN[graph, seed]


@pytest.mark.parametrize("graph", sorted(METIS_GOLDEN))
def test_metis_like_parity(graph, monkeypatch):
    assert _metis_case(graph, monkeypatch) == METIS_GOLDEN[graph]


@pytest.mark.parametrize("graph,k", sorted(KWAY_GOLDEN))
def test_kway_parity(graph, k):
    assert _kway_case(graph, k) == KWAY_GOLDEN[graph, k]
