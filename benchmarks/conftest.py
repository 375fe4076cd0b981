"""Shared fixtures for the benchmark suite.

Heavy inputs (the calibrated filter sets, built tries) are session-scoped
and cached inside :mod:`repro.experiments.common`, so each benchmark
measures the operation of interest, not set generation.

Smoke mode (the ``--smoke`` flag) swaps the calibrated filter sets for
tiny synthetic ones, so the benchmark entry points can run under the
tier-1 test suite (typically together with ``--benchmark-disable``) in
seconds.
"""

from __future__ import annotations

import pytest

from repro.experiments import common
from repro.filters.paper_data import MacFilterStats, RoutingFilterStats
from repro.filters.rule import RuleSet
from repro.filters.synthetic import generate_mac_set, generate_routing_set
from repro.packet.generator import PacketGenerator, TraceConfig

#: Tiny stats rows used in smoke mode (mirrors tests/conftest.py scale).
SMOKE_MAC_STATS = MacFilterStats("smokemac", 151, 16, 26, 38, 55)
SMOKE_ROUTING_STATS = RoutingFilterStats("smokeroute", 400, 12, 40, 90)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="shrink benchmark inputs to smoke-test the entry points",
    )


@pytest.fixture(scope="session")
def smoke(request: pytest.FixtureRequest) -> bool:
    """True when running in smoke mode (tiny inputs, entry-point check)."""
    return request.config.getoption("--smoke", default=False)


@pytest.fixture(scope="session")
def mac_bbra(smoke: bool) -> RuleSet:
    if smoke:
        return generate_mac_set(SMOKE_MAC_STATS, seed=11)
    return common.mac_rule_set("bbra")


@pytest.fixture(scope="session")
def mac_gozb(smoke: bool) -> RuleSet:
    if smoke:
        return generate_mac_set(SMOKE_MAC_STATS, seed=12)
    return common.mac_rule_set("gozb")


@pytest.fixture(scope="session")
def routing_bbra(smoke: bool) -> RuleSet:
    if smoke:
        return generate_routing_set(SMOKE_ROUTING_STATS, seed=13)
    return common.routing_rule_set("bbra")


@pytest.fixture(scope="session")
def routing_yoza(smoke: bool) -> RuleSet:
    if smoke:
        return generate_routing_set(SMOKE_ROUTING_STATS, seed=14)
    return common.routing_rule_set("yoza")


@pytest.fixture(scope="session")
def trace_generator() -> PacketGenerator:
    return PacketGenerator(TraceConfig(seed=0xBE7C))
