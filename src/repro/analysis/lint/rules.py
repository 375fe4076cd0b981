"""The project's invariant rule set.

Each rule encodes one contract the runtime tests enforce dynamically,
so a new call site that violates it fails CI *statically* instead of
compiling clean until the right property test happens to cover it:

- ``shm-lifecycle`` — shared-memory segments register unlink guards;
- ``finalize-no-self`` — those guards must be able to fire;
- ``frame-len-exclusion`` — ``frame_len`` never enters a key or mask;
- ``hot-path-purity`` — the columnar tiers never materialise dicts;
- ``snapshot-discipline`` — the mutation log is snapshotted once per
  submitted batch, never re-read on the collect side;
- ``dtype-discipline`` — numpy constructions carry explicit dtypes;
- ``blocking-recv-timeout`` — pipe receives stay crash/wedge-aware
  (no bare blocking ``recv()``; readiness waits carry a timeout or a
  process-sentinel wait set);
- ``wall-clock-ban`` — simulation code never reads the wall clock
  (``time.time()`` / ``time.monotonic()`` / ``datetime.now()``); flow
  lifecycle runs on the deterministic :class:`~repro.runtime.lifecycle.VirtualClock`;
- ``bounded-queue`` — every queue declares its capacity: a ``deque``
  carries ``maxlen=`` or a ``len()`` bound check in scope, and lists
  are never used as FIFOs without one (an unbounded admission queue is
  exactly the overload failure mode the streaming layer exists to
  prevent);
- ``unused-import`` — a module-scope import the module never reads is
  dead coupling (``__future__``, package ``__init__.py`` re-exports and
  names in ``__all__`` are exempt).

Rules are deliberately *syntactic*: they key on the project's naming
contracts (``SharedMemory(create=True)``, the hot-tier method names,
the ``_log`` attribute) rather than attempting type inference, so a
finding is always a one-line read for a reviewer.  False positives are
suppressed inline (``# repro-lint: disable=<rule>``) or per-file in
``repro-lint.toml`` — both reviewable, neither silent.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.lint.core import (
    Finding,
    ModuleContext,
    Rule,
    register,
)

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _callee_name(node: ast.Call) -> str | None:
    """The bare name a call targets: ``foo(...)`` and ``x.y.foo(...)``
    both give ``"foo"``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_numpy_attr(node: ast.expr, name: str) -> bool:
    """True for ``np.<name>`` / ``numpy.<name>``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _walk_scoped(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, tuple[ast.AST, ...], tuple[ast.ClassDef, ...]]]:
    """Yield every node with its enclosing function and class stacks."""

    def visit(
        node: ast.AST,
        funcs: tuple[ast.AST, ...],
        classes: tuple[ast.ClassDef, ...],
    ) -> Iterator[
        tuple[ast.AST, tuple[ast.AST, ...], tuple[ast.ClassDef, ...]]
    ]:
        for child in ast.iter_child_nodes(node):
            yield child, funcs, classes
            if isinstance(child, _FuncDef):
                yield from visit(child, funcs + (child,), classes)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, funcs, classes + (child,))
            else:
                yield from visit(child, funcs, classes)

    yield from visit(tree, (), ())


def _mentions_frame_len(node: ast.AST) -> bool:
    """True when the subtree references ``frame_len`` *as data* — the
    name :data:`~repro.packet.headers.FRAME_LEN_FIELD` or the literal
    string — outside a comparison (comparisons are the exclusion idiom:
    ``name != FRAME_LEN_FIELD`` filters it *out* of a key)."""

    def scan(sub: ast.AST, in_compare: bool) -> bool:
        if isinstance(sub, ast.Compare):
            in_compare = True
        if not in_compare:
            if isinstance(sub, ast.Name) and sub.id == "FRAME_LEN_FIELD":
                return True
            if isinstance(sub, ast.Constant) and sub.value == "frame_len":
                return True
        return any(
            scan(child, in_compare) for child in ast.iter_child_nodes(sub)
        )

    return scan(node, False)


@register
class ShmLifecycleRule(Rule):
    """Every created shared-memory segment needs an unlink guard."""

    name = "shm-lifecycle"
    description = (
        "SharedMemory(create=True) must sit in a scope that registers a "
        "weakref.finalize unlink guard or in a class owning a close()/"
        "__exit__ teardown"
    )
    hint = (
        "register weakref.finalize(owner, <unlink fn>, <segment>) next to "
        "the creation, or create through transport.SharedBlock, whose "
        "ensure()/close() own the guard"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node, funcs, classes in _walk_scoped(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _callee_name(node) != "SharedMemory":
                continue
            if not self._creates(node):
                continue
            if funcs and self._scope_guards(funcs[-1]):
                continue
            if classes and self._class_tears_down(classes[-1]):
                continue
            yield ctx.finding(
                self,
                node,
                "shared-memory segment created without an unlink guard "
                "(abandoned runs would strand it in /dev/shm)",
            )

    @staticmethod
    def _creates(call: ast.Call) -> bool:
        for keyword in call.keywords:
            if keyword.arg == "create":
                value = keyword.value
                return not (
                    isinstance(value, ast.Constant) and value.value is False
                )
        if len(call.args) >= 2:
            value = call.args[1]
            return not (
                isinstance(value, ast.Constant) and value.value is False
            )
        return False  # attach-only (create defaults to False)

    @staticmethod
    def _scope_guards(func: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Call) and _callee_name(sub) == "finalize"
            for sub in ast.walk(func)
        )

    @staticmethod
    def _class_tears_down(cls: ast.ClassDef) -> bool:
        return any(
            isinstance(member, _FuncDef)
            and member.name in ("close", "__exit__", "__del__")
            for member in cls.body
        )


@register
class FinalizeNoSelfRule(Rule):
    """``weakref.finalize`` guards must be able to fire."""

    name = "finalize-no-self"
    description = (
        "weakref.finalize(owner, ...) must not reference the owner from "
        "its callback or arguments (the finalizer would keep the owner "
        "alive and never run)"
    )
    hint = (
        "pass a module-level function and the resources it releases "
        "(e.g. weakref.finalize(self, _release_segment, self._shm)); "
        "never a bound method of the owner or the owner itself"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _callee_name(node) != "finalize":
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and not (
                isinstance(func.value, ast.Name)
                and func.value.id == "weakref"
            ):
                continue  # some other object's .finalize()
            if len(node.args) < 2:
                continue
            owner = node.args[0]
            if not isinstance(owner, ast.Name):
                continue
            callback = node.args[1]
            if self._references_owner(callback, owner.id, as_callback=True):
                yield ctx.finding(
                    self,
                    node,
                    f"finalizer callback holds a reference to its owner "
                    f"{owner.id!r}; the guard can never fire",
                )
                continue
            for arg in [*node.args[2:], *(kw.value for kw in node.keywords)]:
                if isinstance(arg, ast.Name) and arg.id == owner.id:
                    yield ctx.finding(
                        self,
                        node,
                        f"finalizer argument is the owner {owner.id!r} "
                        f"itself; the guard can never fire",
                    )
                    break

    @staticmethod
    def _references_owner(
        callback: ast.expr, owner: str, as_callback: bool
    ) -> bool:
        # self.method — the bound method keeps `self` alive.
        if isinstance(callback, ast.Attribute):
            return isinstance(callback.value, ast.Name) and (
                callback.value.id == owner
            )
        # lambda: ...self... — the closure keeps `self` alive.
        if isinstance(callback, ast.Lambda):
            return any(
                isinstance(sub, ast.Name) and sub.id == owner
                for sub in ast.walk(callback.body)
            )
        return False


#: Callees that build cache keys, megaflow masks or shard hashes.
#: ``frame_len`` flowing into any of them breaks either correctness
#: (a per-packet length in an exact-match key splinters every flow)
#: or cache locality (lengths scattering one aggregate across shards).
_KEY_CALLEES = frozenset(
    {
        "key_hashes",
        "masked_key_codes",
        "masked_keys",
        "mask_signature",
        "consult",
    }
)

#: Keyword arguments that define match schemas at construction.
_SCHEMA_KEYWORDS = frozenset({"field_names"})


@register
class FrameLenExclusionRule(Rule):
    """``frame_len`` is switch metadata, never key material."""

    name = "frame-len-exclusion"
    description = (
        "FRAME_LEN_FIELD / 'frame_len' must not flow into cache-key, "
        "megaflow-mask or shard-hash construction"
    )
    hint = (
        "frame lengths feed FlowStats.record and byte accounting only; "
        "filter the field out (name != FRAME_LEN_FIELD) before building "
        "keys, masks or shard schemas"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node)
            if callee in _KEY_CALLEES:
                for arg in node.args:
                    if _mentions_frame_len(arg):
                        yield ctx.finding(
                            self,
                            arg,
                            f"frame_len flows into {callee}() — it must "
                            f"never be part of a key or mask",
                        )
            for keyword in node.keywords:
                if (
                    keyword.arg in _SCHEMA_KEYWORDS
                    and _mentions_frame_len(keyword.value)
                ):
                    yield ctx.finding(
                        self,
                        keyword.value,
                        f"frame_len appears in the {keyword.arg}= schema — "
                        f"match schemas must exclude it",
                    )


#: Hot functions that never leave the lanes at all: the columnar
#: classify entry point and its non-crediting half, the one credit of a
#: classified batch, the miss-path walk's wave functions, the keyed
#: table/cache lookups under it, the microflow tier's batch lookup,
#: the bulk megaflow install, and the
#: sharded reply path — the worker's per-traversal encode, the parent's
#: decode and the collect that merges it.  A megaflow miss costs per
#: *distinct key* and a sharded reply per *distinct traversal*, so here
#: even one lazily materialised row (``fields_at`` / ``row_fields``) is
#: a finding.
_LANE_ONLY_HOT = frozenset(
    {
        "classify_columnar",
        "classify",
        "credit_outcomes",
        "encode_outcomes",
        "decode_outcomes",
        "_collect",
        "_walk_misses",
        "_wave",
        "_keys",
        "_values",
        "_extend_paths",
        "_extend_captures",
        "_advance",
        "lookup_keys",
        "lookup_batch_columnar",
        "search_keys",
        "install_batch",
        "masked_keys",
    }
)

#: Hot functions that must never bulk-materialise row dicts *or*
#: construct per-row PipelineResults: the probe tier, whose whole
#: point is replaying without touching a dict, plus everything
#: lane-only.
_DICT_FREE_HOT = frozenset({"probe_batch", "probe"}) | _LANE_ONLY_HOT

#: Hot functions that never replay a path: the miss-path walk and its
#: waves, the megaflow probe and bulk install, the one credit, and the
#: sharded parent's decode and collect.  They carry path references and
#: credit lanes; ``replay_path`` runs only for a result somebody reads
#: (``ColumnarOutcomes.outcome``).
_REPLAY_FREE_HOT = frozenset(
    {
        "_walk_misses",
        "_wave",
        "run",
        "install_batch",
        "probe",
        "credit_outcomes",
        "decode_outcomes",
        "_collect",
    }
)

#: Hot functions that address a matched entry only by its action slot:
#: the walk's wave and path extension, the megaflow probe and bulk
#: install, the one credit, and the sharded reply's encode, decode and
#: collect.  What they need of an entry — its counter row, its counted
#: facts — is a lane gathered by slot (live, or pinned at submission)
#: or a credit lane, never a ``FlowStats`` reached through the entry.
_ADDRESS_ONLY_HOT = frozenset(
    {
        "_wave",
        "_extend_paths",
        "install_batch",
        "probe",
        "credit_outcomes",
        "encode_outcomes",
        "decode_outcomes",
        "_collect",
    }
)

#: Attribute calls that materialise every row of a batch as dicts.
_BULK_MATERIALISERS = frozenset({"dicts", "decode"})

#: Attribute calls that materialise one row as a dict.
_ROW_MATERIALISERS = frozenset({"fields_at", "row_fields"})


@register
class HotPathPurityRule(Rule):
    """The columnar fast path stays on the lanes."""

    name = "hot-path-purity"
    description = (
        "columnar hot-tier functions (lookup_batch_columnar, probe, "
        "classify_columnar, ...) must not bulk-materialise dicts "
        "(.dicts()/.decode()) nor, in the probe/credit tiers, construct "
        "per-row PipelineResults; the classify entry point, the batch "
        "credit (credit_outcomes), the miss-path wave functions, the "
        "microflow batch lookup (lookup_batch_columnar), "
        "install_batch and the sharded reply path (encode_outcomes, "
        "decode_outcomes, _collect) must not materialise even a single "
        "row (.fields_at()/.row_fields()); the walk, the megaflow probe "
        "and install, the credit and the sharded decode and collect must "
        "not replay a path (replay_path); the wave, the path extension, "
        "the megaflow probe and install, the credit and the sharded "
        "encode, decode and collect must not read an entry's .stats "
        "(nor attrgetter(\"stats...\"))"
    )
    hint = (
        "stay on the uint64 lanes: aggregate stats from the frame_len "
        "lane, replay megaflow templates, key waves off the lanes plus "
        "override lanes, reply once per distinct traversal, carry path "
        "references and credit lanes, gather an entry's counter row and "
        "counted facts off the action table's slot lanes; row dicts, "
        "replayed paths and per-packet results belong to whoever reads "
        "a ColumnarOutcomes"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node, funcs, _classes in _walk_scoped(ctx.tree):
            if _reads_stats(node):
                addressing = next(
                    (
                        f.name
                        for f in reversed(funcs)
                        if isinstance(f, _FuncDef) and f.name in _ADDRESS_ONLY_HOT
                    ),
                    None,
                )
                if addressing is not None:
                    yield ctx.finding(
                        self,
                        node,
                        f"{addressing}() reads an entry's .stats — the "
                        f"miss path addresses an entry by its action slot "
                        f"and gathers its counter row off the slot lanes",
                    )
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node)
            if callee == "replay_path":
                replaying = next(
                    (
                        f.name
                        for f in reversed(funcs)
                        if isinstance(f, _FuncDef) and f.name in _REPLAY_FREE_HOT
                    ),
                    None,
                )
                if replaying is not None:
                    yield ctx.finding(
                        self,
                        node,
                        f"{replaying}() replays a path via replay_path() — "
                        f"the miss path carries path references and credit "
                        f"lanes, and only a read result is replayed",
                    )
                continue
            hot = next(
                (
                    f.name
                    for f in reversed(funcs)
                    if isinstance(f, _FuncDef)
                    and f.name in _DICT_FREE_HOT
                ),
                None,
            )
            if hot is None:
                continue
            if callee in _BULK_MATERIALISERS and isinstance(
                node.func, ast.Attribute
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{hot}() bulk-materialises dicts via .{callee}() — "
                    f"the columnar fast path must stay on the lanes",
                )
            elif (
                hot in _LANE_ONLY_HOT
                and callee in _ROW_MATERIALISERS
                and isinstance(node.func, ast.Attribute)
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{hot}() materialises a row dict via .{callee}() — "
                    f"the columnar miss path keys waves off the lanes",
                )
            elif (
                hot in _DICT_FREE_HOT
                and isinstance(node.func, ast.Name)
                and node.func.id == "PipelineResult"
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{hot}() constructs a PipelineResult per row — the "
                    f"probe/credit tiers replay templates instead",
                )


def _reads_stats(node: ast.AST) -> bool:
    """``x.stats`` (read, not assigned) of anything but ``self`` — a
    runner's own record is not an entry's — or
    ``attrgetter("stats...")``."""
    if isinstance(node, ast.Attribute):
        return (
            node.attr == "stats"
            and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        )
    return (
        isinstance(node, ast.Call)
        and _callee_name(node) == "attrgetter"
        and any(
            isinstance(arg, ast.Constant)
            and isinstance(arg.value, str)
            and arg.value.split(".")[0] == "stats"
            for arg in node.args
        )
    )


_COLLECT_SIDE = re.compile(r"collect|drain|reply|decode", re.IGNORECASE)
_DISPATCH_SIDE = re.compile(r"send|submit|dispatch|collect", re.IGNORECASE)


@register
class SnapshotDisciplineRule(Rule):
    """The mutation log is snapshotted once per submitted batch."""

    name = "snapshot-discipline"
    description = (
        "len(..._log) is read at most once per function and never in "
        "collect/drain paths; log slices in dispatch paths must be "
        "bounded by the submission snapshot, not open-ended"
    )
    hint = (
        "snapshot the log length once at submission (under the mutation "
        "lock), carry it with the in-flight batch, and slice/compare "
        "against that snapshot everywhere downstream"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func in ctx.functions():
            reads = self._direct_reads(func)
            collect_side = bool(_COLLECT_SIDE.search(func.name))
            for i, node in enumerate(reads):
                if collect_side:
                    yield ctx.finding(
                        self,
                        node,
                        f"{func.name}() re-reads the mutation-log length "
                        f"on the collect side — batches must resolve "
                        f"against the length snapshotted at submission",
                    )
                elif i > 0:
                    yield ctx.finding(
                        self,
                        node,
                        f"{func.name}() reads the mutation-log length "
                        f"more than once — a mutator can land between "
                        f"reads, splitting one batch across two table "
                        f"states",
                    )
            if _DISPATCH_SIDE.search(func.name):
                for node in ast.walk(func):
                    if self._open_ended_log_slice(node):
                        yield ctx.finding(
                            self,
                            node,
                            f"{func.name}() ships an open-ended mutation-"
                            f"log slice — bound it by the submission "
                            f"snapshot so every worker catches up to the "
                            f"same point",
                        )

    @staticmethod
    def _is_log_len(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "_log"
        )

    @classmethod
    def _direct_reads(cls, func: ast.AST) -> list[ast.Call]:
        """``len(..._log)`` calls in this function, nested defs excluded."""
        reads: list[ast.Call] = []

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _FuncDef):
                    continue
                if cls._is_log_len(child):
                    reads.append(child)  # type: ignore[arg-type]
                visit(child)

        visit(func)
        return reads

    @staticmethod
    def _open_ended_log_slice(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "_log"
            and isinstance(node.slice, ast.Slice)
            and node.slice.upper is None
        )


#: numpy constructors and the positional index their dtype lives at
#: (None = keyword-only in practice for this codebase).
_NP_CONSTRUCTORS: dict[str, int | None] = {
    "zeros": 1,
    "ones": 1,
    "empty": 1,
    "full": 2,
    "array": 1,
    "asarray": 1,
    "ascontiguousarray": 1,
    "fromiter": 1,
    "frombuffer": 1,
    "arange": 3,
}


@register
class DtypeDisciplineRule(Rule):
    """Array constructions say what they mean."""

    name = "dtype-discipline"
    description = (
        "numpy array constructions must carry an explicit dtype (the "
        "uint64 lanes silently promote to float64/object otherwise)"
    )
    hint = (
        "pass dtype= explicitly (np.uint64 for lanes, np.int64 for "
        "indices/picks, np.uint8 for presence bytes)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else None
            )
            if name is None or name not in _NP_CONSTRUCTORS:
                continue
            if not _is_numpy_attr(node.func, name):
                continue
            if any(keyword.arg == "dtype" for keyword in node.keywords):
                continue
            position = _NP_CONSTRUCTORS[name]
            if position is not None and len(node.args) > position:
                continue
            yield ctx.finding(
                self,
                node,
                f"np.{name}(...) without an explicit dtype — the result "
                f"dtype depends on the input and silently promotes",
            )


#: Readiness-guard callees: any call whose name contains one of these
#: marks the enclosing function as wait-aware.  ``wait`` also matches
#: wrappers around ``connection.wait``; ``poll`` covers the worker-side
#: ``conn.poll(interval)`` watch loops and the parent's
#: poll-then-recv frame sorter.
_READINESS_GUARDS = re.compile(r"wait|poll|select", re.IGNORECASE)

#: Receivers whose ``wait()`` is the multiprocessing readiness wait
#: (``connection.wait`` / ``mp_connection.wait``); other objects' .wait
#: methods (events, futures) are out of scope.
_CONNECTION_MODULES = frozenset({"connection", "mp_connection"})


@register
class BlockingRecvTimeoutRule(Rule):
    """Parent/worker pipe waits must be able to observe a dead peer."""

    name = "blocking-recv-timeout"
    description = (
        "a function calling Connection.recv() must also consult a "
        "readiness guard (connection.wait / .poll / a wait wrapper), "
        "and connection.wait() calls must carry a timeout or a "
        "process-sentinel wait set — a bare blocking recv() parks "
        "forever on a crashed or wedged peer"
    )
    hint = (
        "wait on [conn, proc.sentinel] with a timeout before recv() "
        "(see ShardedBatchPipeline._await in repro.runtime.shard — the "
        "one collect-side wait; add to it rather than beside it), or "
        "guard the recv with conn.poll(interval) in a loop that can "
        "notice the peer dying"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func in ctx.functions():
            recvs = [
                node
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "recv"
            ]
            if recvs and not self._wait_aware(func):
                for node in recvs:
                    yield ctx.finding(
                        self,
                        node,
                        f"{func.name}() blocks in recv() with no "
                        f"readiness guard in scope — a dead or wedged "
                        f"peer parks it forever",
                    )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_connection_wait(node):
                continue
            has_timeout = len(node.args) >= 2 or any(
                keyword.arg == "timeout" for keyword in node.keywords
            )
            if has_timeout or self._mentions_sentinel(node):
                continue
            yield ctx.finding(
                self,
                node,
                "connection.wait() without a timeout or a process "
                "sentinel in its wait set — it cannot observe a "
                "crashed or wedged peer",
            )

    @staticmethod
    def _wait_aware(func: ast.AST) -> bool:
        return any(
            isinstance(node, ast.Call)
            and (name := _callee_name(node)) is not None
            and _READINESS_GUARDS.search(name)
            for node in ast.walk(func)
        )

    @staticmethod
    def _is_connection_wait(node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "wait"
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "wait"
            and isinstance(func.value, ast.Name)
            and func.value.id in _CONNECTION_MODULES
        )

    @staticmethod
    def _mentions_sentinel(node: ast.Call) -> bool:
        return any(
            (isinstance(sub, ast.Attribute) and "sentinel" in sub.attr)
            or (isinstance(sub, ast.Name) and "sentinel" in sub.id)
            for arg in node.args
            for sub in ast.walk(arg)
        )


#: ``time.<attr>`` calls that read the wall clock.  ``perf_counter`` is
#: deliberately absent: measuring how long something *took* is fine —
#: what simulation logic must never do is branch on what time it *is*.
_WALL_CLOCK_TIME_ATTRS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns"}
)

#: ``datetime``-style constructors that capture the current moment.
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


@register
class WallClockBanRule(Rule):
    """Simulation time comes from the virtual clock, never the host."""

    name = "wall-clock-ban"
    description = (
        "time.time()/time.monotonic() (and their _ns variants) and "
        "datetime.now()/utcnow()/today() are banned — flow lifecycle, "
        "expiry and replay must run on the deterministic VirtualClock, "
        "or two runs of the same workload diverge"
    )
    hint = (
        "thread the tick through as a parameter (runners advance a "
        "repro.runtime.lifecycle.VirtualClock via ('advance', dt) "
        "events); time.perf_counter() remains available for measuring "
        "durations, and genuine supervision deadlines (watching for "
        "dead worker processes) may keep time.monotonic() under an "
        "inline `# repro-lint: disable=wall-clock-ban` pragma"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            attr = node.func.attr
            receiver = node.func.value
            if (
                attr in _WALL_CLOCK_TIME_ATTRS
                and isinstance(receiver, ast.Name)
                and receiver.id == "time"
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"time.{attr}() reads the wall clock — simulation "
                    f"logic must take its time from the VirtualClock",
                )
            elif attr in _WALL_CLOCK_DATETIME_ATTRS and self._is_datetime(
                receiver
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"datetime {attr}() captures the current moment — "
                    f"deterministic code cannot depend on when it runs",
                )

    @staticmethod
    def _is_datetime(receiver: ast.expr) -> bool:
        """``datetime.now()``, ``datetime.datetime.now()`` and
        ``date.today()`` shapes; other objects' ``.now()`` are out of
        scope."""
        if isinstance(receiver, ast.Name):
            return receiver.id in ("datetime", "date")
        return isinstance(receiver, ast.Attribute) and receiver.attr in (
            "datetime",
            "date",
        )


#: List methods that turn a plain list into a FIFO: popping or
#: inserting at the head.  Stack use (``append``/``pop()``) is fine —
#: stacks drain before they grow in this codebase's recursion helpers.
_LIST_QUEUE_OPS = frozenset({"pop", "insert"})


@register
class BoundedQueueRule(Rule):
    """Every queue in the runtime declares its capacity."""

    name = "bounded-queue"
    description = (
        "deque(...) must carry maxlen= or sit behind a len() capacity "
        "check in scope, and lists must not be used as FIFOs "
        "(.pop(0)/.insert(0, ...)) without one — an unbounded queue "
        "turns overload into unbounded memory growth and unbounded "
        "latency instead of deterministic shedding"
    )
    hint = (
        "pass maxlen= at construction, or guard every append with a "
        "len(<queue>) comparison against the capacity (class-wide for "
        "self attributes, within the function for locals) — or hold no "
        "growable container at all: preallocate capacity-long lanes and "
        "index them as a ring, as repro.runtime.streaming.AdmissionQueue "
        "does"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        targets = self._assignment_targets(ctx.tree)
        for node, funcs, classes in _walk_scoped(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _callee_name(node) == "deque":
                if self._has_maxlen(node):
                    continue
                target = targets.get(id(node))
                if target is not None and self._len_bounded(
                    target, funcs, classes
                ):
                    continue
                yield ctx.finding(
                    self,
                    node,
                    "deque() without maxlen= and with no len() capacity "
                    "check in scope — queues must declare their bound",
                )
            elif isinstance(node.func, ast.Attribute) and (
                self._is_head_op(node)
            ):
                if self._len_bounded(node.func.value, funcs, classes):
                    continue
                yield ctx.finding(
                    self,
                    node,
                    f"list used as a FIFO via .{node.func.attr}(0, ...) "
                    f"with no len() capacity check in scope — use a "
                    f"bounded deque or guard the producer side",
                )

    @staticmethod
    def _has_maxlen(call: ast.Call) -> bool:
        if any(keyword.arg == "maxlen" for keyword in call.keywords):
            return True
        return len(call.args) >= 2  # deque(iterable, maxlen)

    @staticmethod
    def _is_head_op(call: ast.Call) -> bool:
        func = call.func
        assert isinstance(func, ast.Attribute)
        if func.attr not in _LIST_QUEUE_OPS or not call.args:
            return False
        head = call.args[0]
        return isinstance(head, ast.Constant) and head.value == 0

    @staticmethod
    def _assignment_targets(tree: ast.Module) -> dict[int, ast.expr]:
        """Map each call node id inside an assignment's value to the
        (single) assignment target, so ``self._q = deque()`` and
        ``self._pending = [deque() for ...]`` both resolve to the
        attribute whose bound we then look for."""
        targets: dict[int, ast.expr] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            for sub in ast.walk(value):
                if isinstance(sub, ast.Call):
                    targets[id(sub)] = target
        return targets

    @staticmethod
    def _target_key(target: ast.expr) -> tuple[str, str] | None:
        """A scope-searchable identity: ``("attr", name)`` for
        ``self.<name>`` (and any subscript of it), ``("name", id)``
        for locals."""
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            return ("attr", target.attr)
        if isinstance(target, ast.Name):
            return ("name", target.id)
        return None

    @classmethod
    def _len_bounded(
        cls,
        target: ast.expr,
        funcs: tuple[ast.AST, ...],
        classes: tuple[ast.ClassDef, ...],
    ) -> bool:
        """True when a ``len(<target>)`` comparison exists in the
        target's scope: the enclosing class for attributes (the bound
        may guard appends in a different method than the constructor),
        the enclosing function for locals."""
        key = cls._target_key(target)
        if key is None:
            return False
        scope: ast.AST | None
        if key[0] == "attr":
            scope = classes[-1] if classes else None
        else:
            scope = funcs[-1] if funcs else None
        if scope is None:
            return False
        return any(
            cls._bounds(node, key)
            for node in ast.walk(scope)
            if isinstance(node, ast.Compare)
        )

    @classmethod
    def _bounds(cls, compare: ast.Compare, key: tuple[str, str]) -> bool:
        for side in [compare.left, *compare.comparators]:
            if (
                isinstance(side, ast.Call)
                and _callee_name(side) == "len"
                and len(side.args) == 1
                and cls._target_key(side.args[0]) == key
            ):
                return True
        return False


@register
class UnusedImportRule(Rule):
    """A module-scope import the module never references."""

    name = "unused-import"
    description = (
        "a module-scope import whose bound name the module never reads "
        "— code that outlived its last use still couples the module to "
        "the dependency (__future__, package __init__.py re-exports and "
        "names listed in __all__ are exempt)"
    )
    hint = (
        "delete the import; a deliberate re-export belongs in __all__ or "
        "a package __init__.py"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.path.replace("\\", "/").rsplit("/", 1)[-1] == "__init__.py":
            return
        used = self._referenced(ctx.tree) | self._exported(ctx.tree)
        for node in self._module_imports(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in used:
                    yield ctx.finding(
                        self, alias, f"{bound!r} is imported but never used"
                    )

    @classmethod
    def _module_imports(
        cls, node: ast.AST
    ) -> Iterator[ast.Import | ast.ImportFrom]:
        """Imports outside every function and class body (module-level
        ``if``/``try`` blocks included)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child
            elif not isinstance(child, (*_FuncDef, ast.ClassDef)):
                yield from cls._module_imports(child)

    @staticmethod
    def _referenced(tree: ast.Module) -> set[str]:
        """Every name the module reads, quoted annotations included."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, (ast.arg, ast.AnnAssign, *_FuncDef)):
                annotation = getattr(node, "annotation", None) or getattr(
                    node, "returns", None
                )
                for sub in ast.walk(annotation) if annotation else ():
                    if isinstance(sub, ast.Constant) and isinstance(
                        sub.value, str
                    ):
                        try:
                            quoted = ast.parse(sub.value, mode="eval")
                        except SyntaxError:
                            continue
                        names.update(
                            n.id
                            for n in ast.walk(quoted)
                            if isinstance(n, ast.Name)
                        )
        return names

    @staticmethod
    def _exported(tree: ast.Module) -> set[str]:
        """The string constants a module-level ``__all__`` is assigned
        (or extended with)."""
        names: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if value is None or not any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                continue
            names.update(
                sub.value
                for sub in ast.walk(value)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            )
        return names
