"""The leak guard judges what its own test process did.

``conftest.py``'s autouse guard fails a test that leaves a segment in
``/dev/shm``.  It must count only the segments this process created: a
second suite or a benchmark on the same host creates ``psm_*`` segments
of its own while a test runs, and those are no leak of the test's.
Both tests call the guard's own check (the ``leaked_segments``
fixture) while the test runs.
"""

from __future__ import annotations

import subprocess
import sys
from multiprocessing import shared_memory

from tests.runtime.conftest import (
    _DEV_SHM,
    needs_dev_shm,
    shm_segments,
    unlink_segments,
)

#: Creates one shared-memory object the way ``shm_open`` does — a file
#: in ``/dev/shm`` — and leaves it there; prints its name.
_FOREIGN_SEGMENT = """
import os, secrets
name = "psm_" + secrets.token_hex(4)
os.close(os.open(os.path.join("/dev/shm", name), os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600))
print(name)
"""


@needs_dev_shm
class TestLeakGuardScope:
    def test_a_segment_another_process_creates_is_not_a_leak(
        self, leaked_segments
    ):
        before = shm_segments()
        name = subprocess.run(
            [sys.executable, "-c", _FOREIGN_SEGMENT],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()
        try:
            # A listing of /dev/shm sees it appear...
            assert name in shm_segments() - before
            # ...but this process did not create it.
            assert name not in leaked_segments()
        finally:
            (_DEV_SHM / name).unlink()

    def test_a_segment_this_process_leaks_is_one(self, leaked_segments):
        segment = shared_memory.SharedMemory(create=True, size=64)
        name = segment.name
        segment.close()  # unmapped, never unlinked: a leak
        try:
            assert name in leaked_segments()
        finally:
            unlink_segments({name})
        assert not leaked_segments()
