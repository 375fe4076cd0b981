"""Shared-memory and process hygiene for every runtime test.

The sharded runtime promises that nothing outlives it: no ``/dev/shm``
segment, no mapping of one and no worker process, whether a runner was
closed, abandoned to the garbage collector, or had its workers
SIGKILLed under it.  The autouse guard below holds *every* test in this
directory to that, so individual tests assert only the behaviour they
are about.  The mapping check reads this process's own
``/proc/self/maps``, which sees a block that was unlinked but is still
mapped — a ``/dev/shm`` listing cannot.
"""

from __future__ import annotations

import gc
import multiprocessing
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.openflow import pipeline as pipeline_module
from repro.openflow.pipeline import OpenFlowPipeline
from repro.runtime.faults import FaultPlan
from repro.runtime.protocol import ShmRequest
from repro.runtime.transport import BlockWriter, aligned, reply_nbytes

_DEV_SHM = Path("/dev/shm")

needs_dev_shm = pytest.mark.skipif(
    not _DEV_SHM.is_dir(), reason="no /dev/shm on this platform"
)


def shm_segments() -> set[str]:
    """Names currently in ``/dev/shm`` (empty where there is none)."""
    if not _DEV_SHM.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {path.name for path in _DEV_SHM.iterdir()}


def shm_mappings(pid: int | str = "self") -> set[str]:
    """Names of the ``/dev/shm`` segments process ``pid`` maps, unlinked
    ones included (empty where there is no ``/proc/<pid>/maps``)."""
    maps = Path("/proc") / str(pid) / "maps"
    if not maps.is_file():  # pragma: no cover - non-Linux
        return set()
    return {
        Path(line.split(maxsplit=5)[5].removesuffix(" (deleted)")).name
        for line in maps.read_text().splitlines()
        if " /dev/shm/" in line
    }


def unlink_segments(names: set[str]) -> None:
    """Unlink segments whose owner was SIGKILLed on purpose — the one
    death no in-process guard survives."""
    for name in names:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        segment.close()
        segment.unlink()


_REPLAY_PATH = OpenFlowPipeline.replay_path


def replay_path_without_the_action_set(pipeline, matched):
    """``OpenFlowPipeline.replay_path`` with the action-set execution
    knocked out of it (``process`` keeps its own executor).
    Monkeypatched in, it gets Write-Actions wrong for whoever builds
    outcomes through ``replay_path`` — which is how the tests prove the
    columnar walk and the sharded decode both do."""
    ordered = pipeline_module.action_set_order
    pipeline_module.action_set_order = lambda action_set: ()
    try:
        return _REPLAY_PATH(pipeline, matched)
    finally:
        pipeline_module.action_set_order = ordered


def serve_one_batch(replica, batch):
    """``batch`` through a replica's serve path (``_Replica.serve``, the
    worker's), on a block of its own: the request lanes, then the reply
    region the request names."""
    writer = BlockWriter()
    layout = replica.codec.encode_batch(writer, batch, "pkt")
    writer.put("members/0", np.arange(len(batch), dtype=np.int64))
    tables = len(replica.runner.pipeline.tables)
    region = (aligned(writer.nbytes), reply_nbytes(len(batch), tables))
    buf = memoryview(bytearray(sum(region)))
    segments = writer.write_to(buf)
    request = ShmRequest(
        "shm", 0, (), "", segments, layout, "members/0", False, region
    )
    return replica.serve(request, buf, FaultPlan(), 0)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Note on the test item whether its body raised: the traceback
    pytest keeps for the report holds that body's views alive."""
    report = (yield).get_result()
    if report.when == "call":
        item.body_raised = call.excinfo is not None


@pytest.fixture(autouse=True)
def nothing_outlives_the_test(request):
    before, mapped = shm_segments(), shm_mappings()
    yield
    leaked = shm_segments() - before
    assert not leaked, f"segments left in /dev/shm: {sorted(leaked)}"
    children = multiprocessing.active_children()
    assert not children, f"processes left running: {children}"
    if getattr(request.node, "body_raised", False):
        return  # its kept traceback maps what its frames viewed
    still = shm_mappings() - mapped
    if still:  # a view in a reference cycle holds its map until collected
        gc.collect()
        still = shm_mappings() - mapped
    assert not still, f"segments still mapped: {sorted(still)}"
