# Seeded violation for the blocking-recv-timeout rule: pipe receives
# with no way to notice a dead or wedged peer.


class BlockingCollector:
    def _take_frame(self, worker):
        # Bare blocking receive: a crashed worker never writes, so the
        # parent parks here forever.
        return self._conns[worker].recv()

    def _await(self, owing):
        from multiprocessing import connection

        # Readiness wait with neither a timeout nor a process sentinel
        # in the wait set: the same indefinite block, one layer up.
        return connection.wait([self._conns[worker] for worker in owing])
