"""Packet substrate: typed headers, wire codecs and trace generation.

The lookup architecture classifies packets by their extracted header
fields.  This package provides:

- :mod:`repro.packet.headers` — immutable header dataclasses (Ethernet,
  802.1Q, MPLS, IPv4, IPv6, TCP, UDP, ICMP) that each know how to
  contribute OpenFlow match fields;
- :mod:`repro.packet.packet` — :class:`Packet`, a header stack plus switch
  context (ingress port) with :meth:`Packet.match_fields`;
- :mod:`repro.packet.parser` / :mod:`repro.packet.builder` — real
  byte-level wire-format codecs (parse/serialise round-trip);
- :mod:`repro.packet.generator` — deterministic packet-trace generation,
  including traces derived from rule sets so benchmarks can control hit
  rates;
- :mod:`repro.packet.batch` — :class:`PacketBatch`, the columnar batch
  container (uint64 lanes + presence bytes, shared rows under a ``pick``
  indirection) the runtime's vectorized cache tiers and decode-free
  shard workers operate on.
"""

from repro.packet.batch import PacketBatch
from repro.packet.headers import (
    Ethernet,
    Header,
    Icmp,
    IPv4,
    IPv6,
    Mpls,
    Tcp,
    Udp,
    Vlan,
)
from repro.packet.packet import Packet
from repro.packet.parser import ParseError, parse_batch, parse_packet
from repro.packet.builder import build_packet
from repro.packet.generator import PacketGenerator, TraceConfig

__all__ = [
    "Ethernet",
    "Header",
    "Icmp",
    "IPv4",
    "IPv6",
    "Mpls",
    "Packet",
    "PacketBatch",
    "PacketGenerator",
    "ParseError",
    "Tcp",
    "TraceConfig",
    "Udp",
    "Vlan",
    "build_packet",
    "parse_batch",
    "parse_packet",
]
