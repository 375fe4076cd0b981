"""The parent ↔ worker wire protocol, as named message types.

Every message crossing a shard pipe is one of the :class:`NamedTuple`
shapes below, so the protocol is statically checked: a parent-side
``send`` and the worker-side destructuring compile against the same
schema, and adding a field is a one-place change mypy traces to every
construction and unpacking site.

``NamedTuple`` (rather than ``TypedDict``/dataclass) is deliberate:
messages stay *tuples* on the wire — same pickle cost, same positional
indexing (``message[0]`` tag dispatch, ``message[1:]`` unpacking) the
transport has always used — so typed and historical call sites
interoperate and the pickled frames are byte-compatible with plain
tuples of the same shape.

Tag conventions:

- requests (parent → worker): ``"shm"`` (one batch, travelling as a
  shared-memory block), ``"close"`` (orderly shutdown); a worker raises
  on any other tag, so a stale frame surfaces as a crash instead of a
  reply that never comes;
- replies (worker → parent): ``"ok"`` — exactly one per request, the
  results written into the reply region the request named inside its
  own block — and ``"bye"`` acknowledging close; the parent treats any
  other frame as that worker's crash.

Work requests carry their batch ``seq`` explicitly: a respawned worker
replays lost batches from the same request messages (re-sent, not
re-encoded), and its fault plan matches faults on the seq the parent
assigned, not on however many messages the replacement has seen.

Mutation-log entries ride inside requests as :data:`Mutation` tuples —
``("add", table_id, entry)`` / ``("remove", table_id, match, priority)``
— the exact shapes :class:`~repro.runtime.shard.ShardedBatchPipeline`'s
log records.  A timeout expiry is logged as a removal: the parent's
lifecycle sweep decides it, and no receiver needs to tell the two
apart, so no clock ever crosses the pipe.

``docs/architecture.md`` ("Sharded shm transport") situates this wire
protocol in the runtime layer stack.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from repro.openflow.flow import FlowEntry
from repro.openflow.match import Match
from repro.runtime.transport import PacketBlockLayout, Segment


class AddMutation(NamedTuple):
    """One ``add_flow`` recorded in the mutation log."""

    kind: Literal["add"]
    table_id: int
    entry: FlowEntry


class RemoveMutation(NamedTuple):
    """One ``remove_flow`` — or timeout expiry — recorded in the
    mutation log."""

    kind: Literal["remove"]
    table_id: int
    match: Match
    priority: int


Mutation = AddMutation | RemoveMutation


class ShmRequest(NamedTuple):
    """Shared-memory work item: the batch travels as a block the worker
    attaches to; ``members_key`` names this worker's position array
    inside it, and ``reply_region`` the ``(offset, nbytes)`` of the same
    block to write the reply into — after every request lane, sized for
    the members, or the worker refuses it by dying.

    ``bypass`` asks the worker to skip its megaflow tier for this batch
    (the streaming ladder's rung 2); it rides in the request template,
    so a replayed batch degrades exactly as the original did.  ``slot``
    is the parent's ring slot the block lives in: a block re-created in
    a slot replaces the worker's attachment to the old one."""

    kind: Literal["shm"]
    seq: int
    mutations: tuple[Mutation, ...]
    block_name: str
    segments: tuple[Segment, ...]
    layout: PacketBlockLayout
    members_key: str
    bypass: bool
    reply_region: tuple[int, int]
    slot: int


class CloseRequest(NamedTuple):
    """Orderly shutdown; the worker unmaps its attachments and replies
    :class:`ByeReply`."""

    kind: Literal["close"]


class ShmReply(NamedTuple):
    """One sub-batch's reply, which names entries, not outcomes: the
    block holds each distinct traversal's matched-entry refs, one code
    per position and the counts the request caused
    (:func:`~repro.runtime.transport.encode_outcomes`), and the parent
    replays the refs against its own pinned tables and counts each
    traversal's packets and bytes from the codes itself.

    The lanes always sit in the reply region the request named — whether
    a worker or the parent's in-process replica served it — which the
    parent sized for the sub-batch before sending
    (:func:`~repro.runtime.transport.reply_nbytes`), and segment offsets
    count from the region's start, so the frame itself is a tag, a seq
    and segment tuples: no bytes and no class instance cross the reply
    pipe.  ``seq`` echoes the request's, so a reply can
    only ever answer the batch its worker owes next."""

    kind: Literal["ok"]
    seq: int
    segments: tuple[Segment, ...]


class ByeReply(NamedTuple):
    """Shutdown acknowledgement; the pipe closes after it."""

    kind: Literal["bye"]


Request = ShmRequest | CloseRequest
Reply = ShmReply | ByeReply
