# repro-lint fixture: should NOT fire bounded-queue.
from collections import deque


class RingAdmission:
    # The AdmissionQueue idiom: nothing growable to bound — the lanes
    # are preallocated at the capacity and indexed as a ring, so the
    # rule has no queue construction to find here.
    def __init__(self, capacity):
        self.capacity = capacity
        self._rows = [0] * capacity
        self._head = self._size = 0

    def admit(self, row):
        if self._size == self.capacity:
            return False  # tail-drop
        self._rows[(self._head + self._size) % self.capacity] = row
        self._size += 1
        return True

    def take(self):
        row = self._rows[self._head]
        self._head = (self._head + 1) % self.capacity
        self._size -= 1
        return row


class BoundedAdmission:
    # The guarded-append idiom: the deque itself is unbounded, but
    # every append is guarded by a len() comparison against a declared
    # capacity — the bound lives in the class, findable class-wide.
    def __init__(self, capacity):
        self.capacity = capacity
        self._queue = deque()

    def offer(self, item):
        if len(self._queue) >= self.capacity:
            return False  # tail-drop: the bound is enforced here
        self._queue.append(item)
        return True


class MirroredOrder:
    # The shard-transport idiom: deques that mirror an in-flight map
    # one-to-one, so the same depth bound caps them via asserts.
    def __init__(self, depth):
        self.depth = depth
        self._order = deque()
        self._pending = [deque() for _ in range(4)]

    def submit(self, seq, worker):
        assert len(self._order) < self.depth
        self._order.append(seq)
        assert len(self._pending[worker]) < self.depth
        self._pending[worker].append(seq)


def sliding_window(values):
    # maxlen= IS the declared bound.
    window = deque(values, maxlen=8)
    return list(window)


def local_bounded(items, cap):
    # Locals are searched within the enclosing function.
    queue = deque()
    for item in items:
        if len(queue) >= cap:
            break
        queue.append(item)
    return queue


def trim_head(queue, keep):
    # Head-pops below a len() bound: a capped drain, not unbounded use.
    while len(queue) > keep:
        queue.pop(0)


def stack_use(frames):
    # append/pop() from the tail is a stack, out of scope for the rule.
    stack = list(frames)
    while stack:
        stack.pop()
