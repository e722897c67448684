"""Trace content pins for the synthetic workload generators.

``test_workloads.py`` checks volume, determinism and shape; this file pins the
*content*: a SHA-256 over the five lane columns of every application at two
shapes and two seeds, recorded from the per-record generator chain before it
was replaced.  Every golden, ``RANDOM_GOLDENS``, census row and ``sim_digest``
rests on these traces staying byte-identical, and the generators spell some
RNG draws out by hand (``getrandbits`` rejection sampling, ``-log(1 - random())``),
so the digests also guard those spellings on every Python CI runs.
"""

import hashlib
import time

import pytest

from repro.simulation import SimulationConfig, SimulationEngine
from repro.trace.binary import LaneChunk, LaneTrace
from repro.trace.record import MemoryAccess
from repro.workloads.suite import APPLICATION_NAMES, make_workload


def lane_digest(lanes) -> str:
    """SHA-256 over the column bytes (little-endian hosts, like the lane decoder)."""
    digest = hashlib.sha256()
    for column in (lanes.pc, lanes.address, lanes.code, lanes.cpu, lanes.instruction_count):
        digest.update(column.tobytes())
    return digest.hexdigest()


#: (application, cpus, accesses per cpu, seed) -> digest at commit a578404.
TRACE_DIGESTS = {
    ("oltp-db2", 1, 1000, 1): "84c1fffa52121bb586f48567cc2223e651805193f15aa082901486f56457fbb8",
    ("oltp-db2", 1, 1000, 42): "21d04d58052a7b6469ef9339cf97f2eefcd5a59ca8ceeec6a8c66ddabb446b28",
    ("oltp-db2", 4, 1500, 1): "3910f6310a5acd8b89a764c4db4cf36e958d4d64596904e7be53313d8b2e8cb2",
    ("oltp-db2", 4, 1500, 42): "ea6d05e795b4ed78082505370aef34c1472a5f5ba3f321fe38e055a32c4bb882",
    ("oltp-oracle", 1, 1000, 1): "a98814069545bdaaaaf5101f9f9b850b11b15441f15d0a28cf75bfe9cba9acf1",
    ("oltp-oracle", 1, 1000, 42): "89efe057663d4c4828d8dcbe4258bb944d0d7dc002cf6c1d863ad86ea983cd19",
    ("oltp-oracle", 4, 1500, 1): "efdf1ef7b0c6407b16adeea43e72686d92eaa0dcb280bc69dfba194bc9469945",
    ("oltp-oracle", 4, 1500, 42): "7827fc692b4d7154fbe7a4d237739666e22d22f0bb99e526aef8fd5823d1fbf7",
    ("dss-qry1", 1, 1000, 1): "0a75c5c32c05bd7a57277db180abb57b8c046d4b3ad88c9bdd07a626ba42f788",
    ("dss-qry1", 1, 1000, 42): "59541063b0f64997883ea284de42516dfbee002a7c4040f7fc9750773a1c5a98",
    ("dss-qry1", 4, 1500, 1): "f7164fc140d542411d5651297706e888ef2195f10772e4c192021c08b1b70a7e",
    ("dss-qry1", 4, 1500, 42): "20addee34f1443ef289a8d99af47cd390030619f3991b0a522a14ae01b7fcfa3",
    ("dss-qry2", 1, 1000, 1): "2375cae284cb01cc16b0e8b0b8e99556a0580b5f60b707e84e6f6bc839047f30",
    ("dss-qry2", 1, 1000, 42): "ab02cda34af0a5a13f2c02672b12c2339bd072f23eddffcd8e160150e84c3ecb",
    ("dss-qry2", 4, 1500, 1): "f3851e8cbe8ef48d256cb061aa54e5b5690ea40345083c146e69217a0cba098a",
    ("dss-qry2", 4, 1500, 42): "048f552aa3174fcec07f26f708c0957c278469b9d575773ad9319e92f56749de",
    ("dss-qry16", 1, 1000, 1): "fa985ad0ae66beb947204ec5e0a20fc6df7e591a12eded331ca06c6f25cc7d24",
    ("dss-qry16", 1, 1000, 42): "e1724899573aa65297481c27f7995377dcf56bcfff804adfc137449010e004c3",
    ("dss-qry16", 4, 1500, 1): "82f541c57e35c5d9327f036bb9a62fb793f433bd1c198d769bf4f641895facac",
    ("dss-qry16", 4, 1500, 42): "35424767210800d7147ec129112b1872f28ca416813728e31d75f1410315fdb8",
    ("dss-qry17", 1, 1000, 1): "732967fc62716e6c2f40fc544dca1e973c6441e03dd229248834fcd7570771b8",
    ("dss-qry17", 1, 1000, 42): "479277ba184dec0b5226b6d5d3d2464b1282eac3b287c2fdf55daa2f09177ce4",
    ("dss-qry17", 4, 1500, 1): "4c216b54bfee7e0484a9aec2a00db42d81a18c2fd6027c0c7de114a1c11df44a",
    ("dss-qry17", 4, 1500, 42): "0cf6249648d5aef69d404e5ad8f93638539861e464c22d392b79f345cd02f6f6",
    ("web-apache", 1, 1000, 1): "4369be6c2ff3ca390acf2be2fc9a08b2942679dffb40e24d44a6dc0f1966f368",
    ("web-apache", 1, 1000, 42): "176ce27daa0ee91f36bdade6d091e914e8d2f55d084ab0b63b4a82cb888f1de4",
    ("web-apache", 4, 1500, 1): "d4c1b6643dc5184a14fd2e5fdc136579b464d2a06dac6c31afacee824328e9d1",
    ("web-apache", 4, 1500, 42): "a59f1a50be4deb545ae65c5f32ebbc8db7a5a2c3d1ff28108fe073d9b70550e3",
    ("web-zeus", 1, 1000, 1): "e21dc113b5531d9843dccb9e9cc22f9f18d84ed037a121c60b21e17468f3e243",
    ("web-zeus", 1, 1000, 42): "989549eed19d64deb2c0f46c9bf3ad1644b5fa1a7dc7382017f6bd96df0289d2",
    ("web-zeus", 4, 1500, 1): "d98ddbad75002c3f1b4fc0a4e2bec25708e6eb23c0ae20d5ba3adc92d2096dcc",
    ("web-zeus", 4, 1500, 42): "f7ea5103b6a3b628140d38444188f64b695c562da26b843584e4bd6ae45aa3e0",
    ("em3d", 1, 1000, 1): "18bb382a33a1bdff9cfc779599142bcc9f76dd85e198cc6ddb4ad7a818c54260",
    ("em3d", 1, 1000, 42): "4121666048c7cd5ae8279129c9bbdb2e038bc8ee8778ec5b43c7e5852e397eb4",
    ("em3d", 4, 1500, 1): "8c998747d3774483148f958d93b945bb6ba1aa07429b87766bf1c9f874db9048",
    ("em3d", 4, 1500, 42): "9f9db77277d0d6a2b3f730db77659463562f2c9a801aaba7700b2a8942703343",
    ("ocean", 1, 1000, 1): "a382134b6e99c3678883f76bfcdd6e2553fc8f5c728a7b9c3cfee61f98f145c2",
    ("ocean", 1, 1000, 42): "264406bd03483b99938494b1323afda046a9ad8843bc8d473fd622698b8f6747",
    ("ocean", 4, 1500, 1): "cddb51a6b534810f298173442f215bbe3c9d34680c66d6382b20dec5ba3e70ad",
    ("ocean", 4, 1500, 42): "44728ce9ac4bd34da7946965d5138147c7667e5d00b855f963896b6a4f6d420e",
    ("sparse", 1, 1000, 1): "7ca8549e6f7697f059b8d058e17921647d8e78bb1f6f7f4974bda99768869929",
    ("sparse", 1, 1000, 42): "50885163c6b504c18b57f24756e0938ec92c64f6952691a6bf35e2e9da765990",
    ("sparse", 4, 1500, 1): "afb8b6da4f2211d1791e0d5a03875436e180a590ed45839c702657fa4ebb843e",
    ("sparse", 4, 1500, 42): "a48d0fd17e323fc12a0a7e54d7cd4f2f8abddfc029e0b667e6a471e943ee8600",
}


def test_every_application_is_pinned():
    assert {key[0] for key in TRACE_DIGESTS} == set(APPLICATION_NAMES)
    assert len(TRACE_DIGESTS) == len(APPLICATION_NAMES) * 4


@pytest.mark.parametrize("name,cpus,accesses,seed", sorted(TRACE_DIGESTS))
def test_trace_content_is_pinned(name, cpus, accesses, seed):
    workload = make_workload(name, num_cpus=cpus, accesses_per_cpu=accesses, seed=seed)
    lanes = LaneTrace.from_records(workload).lanes
    assert len(lanes) == cpus * accesses
    assert lane_digest(lanes) == TRACE_DIGESTS[(name, cpus, accesses, seed)]


# --------------------------------------------------------------------------- #
# The lane-native generator: chunking, boxing and laziness.
# --------------------------------------------------------------------------- #
SHAPE = dict(num_cpus=3, accesses_per_cpu=700, seed=9)


@pytest.mark.parametrize("name", ["oltp-db2", "dss-qry2", "web-apache", "ocean"])
def test_chunk_size_does_not_change_the_trace(name):
    whole = LaneTrace.from_records(make_workload(name, **SHAPE)).lanes
    for chunk_size in (1, 7, 4096):
        chunks = list(make_workload(name, **SHAPE).iter_lane_chunks(chunk_size))
        assert all(len(chunk) == chunk_size for chunk in chunks[:-1])
        assert 0 < len(chunks[-1]) <= chunk_size
        joined = LaneChunk.empty()
        for chunk in chunks:
            joined.extend(chunk)
        assert joined == whole


def test_chunk_size_must_be_positive():
    with pytest.raises(ValueError):
        next(make_workload("ocean", **SHAPE).iter_lane_chunks(0))


@pytest.mark.parametrize("name", APPLICATION_NAMES)
def test_records_are_the_boxed_lanes(name):
    workload = make_workload(name, **SHAPE)
    records = list(workload)
    boxed = LaneTrace.from_records(workload).lanes.records()
    assert [tuple(record) for record in records] == [tuple(record) for record in boxed]
    assert all(type(record) is MemoryAccess for record in records)


def test_generation_is_lazy():
    """An effectively endless workload under ``limit`` does finite work."""
    workload = make_workload("oltp-db2", num_cpus=4, accesses_per_cpu=10**8)
    started = time.perf_counter()
    config = SimulationConfig(num_cpus=4, warmup_fraction=0.0)
    result = SimulationEngine(config).run(workload, limit=5_000)
    assert result.accesses == 5_000
    assert time.perf_counter() - started < 30.0
