# Legitimate pipe waits the blocking-recv-timeout rule must not flag:
# every recv() sits behind a sentinel-aware or bounded readiness guard.
# The shapes mirror the sharded parent: one wait, one frame sorter, one
# bounded bye-wait at shutdown.


class OneListener:
    def _await(self, owing, remaining):
        from multiprocessing import connection

        # The one collect-side wait: pipes *and* sentinels of every
        # worker owing a reply, bounded by what is left of the wedge
        # deadline (None without one — the sentinels still wake it).
        waitables = {}
        for worker in owing:
            waitables[self._conns[worker]] = worker
            waitables[self._procs[worker].sentinel] = worker
        ready = connection.wait(list(waitables), remaining)
        return [self._take_frame(waitables[obj]) for obj in ready]

    def _take_frame(self, worker):
        # Poll-then-recv: never blocks, so a dry pipe is an answer.
        conn = self._conns[worker]
        if not conn.poll(0):
            return None
        return conn.recv()

    def _shutdown_worker(self, conn, proc):
        from multiprocessing import connection

        # Bounded and sentinel-aware: a worker that died (or wedged)
        # during shutdown cannot park close().
        if conn in connection.wait([conn, proc.sentinel], 5.0):
            return conn.recv()
        return None
