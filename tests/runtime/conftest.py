"""Shared-memory and process hygiene for every runtime test.

The sharded runtime promises that nothing outlives it: no ``/dev/shm``
segment and no worker process, whether a runner was closed, abandoned
to the garbage collector, or had its workers SIGKILLed under it.  The
autouse guard below holds *every* test in this directory to that, so
individual tests assert only the behaviour they are about.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.openflow import pipeline as pipeline_module
from repro.openflow.pipeline import OpenFlowPipeline
from repro.runtime.faults import FaultPlan
from repro.runtime.protocol import ShmRequest
from repro.runtime.transport import BlockWriter

_DEV_SHM = Path("/dev/shm")

needs_dev_shm = pytest.mark.skipif(
    not _DEV_SHM.is_dir(), reason="no /dev/shm on this platform"
)


def shm_segments() -> set[str]:
    """Names currently in ``/dev/shm`` (empty where there is none)."""
    if not _DEV_SHM.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {path.name for path in _DEV_SHM.iterdir()}


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
    worker's), on request and reply buffers of its own."""
    writer = BlockWriter()
    layout = replica.codec.encode_batch(writer, batch, "pkt")
    writer.put("members/0", np.arange(len(batch), dtype=np.int64))
    request_buf = memoryview(bytearray(writer.nbytes))
    segments = writer.write_to(request_buf)
    request = ShmRequest(
        "shm", 0, (), "", segments, layout, "members/0", False, ""
    )
    return replica.serve(
        request, request_buf, memoryview(bytearray(1 << 16)), FaultPlan(), 0
    )


@pytest.fixture(autouse=True)
def nothing_outlives_the_test():
    before = shm_segments()
    yield
    leaked = shm_segments() - before
    assert not leaked, f"segments left in /dev/shm: {sorted(leaked)}"
    children = multiprocessing.active_children()
    assert not children, f"processes left running: {children}"
