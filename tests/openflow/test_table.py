"""Tests for the behavioural FlowTable (the semantic oracle)."""

import pytest

from repro.openflow.errors import PipelineError, TableFullError
from repro.openflow.flow import FlowEntry, FlowStats
from repro.openflow.instructions import GotoTable
from repro.openflow.match import Match, PrefixMatch
from repro.openflow.table import FlowTable


def entry(priority: int, **exact) -> FlowEntry:
    return FlowEntry.build(match=Match.exact(**exact), priority=priority)


class TestFlowEntry:
    def test_sort_key_priority_desc(self):
        high, low = entry(10, in_port=1), entry(5, in_port=1)
        assert high.sort_key < low.sort_key

    def test_sort_key_specificity_tiebreak(self):
        specific = FlowEntry.build(
            match=Match(
                {"ipv4_dst": PrefixMatch(value=0x0A000000, length=24, bits=32)}
            ),
            priority=1,
        )
        loose = FlowEntry.build(
            match=Match({"ipv4_dst": PrefixMatch(value=0x0A000000, length=8, bits=32)}),
            priority=1,
        )
        assert specific.sort_key < loose.sort_key

    def test_table_miss_detection(self):
        assert FlowEntry.build(match=Match({}), priority=0).is_table_miss
        assert not entry(0, in_port=1).is_table_miss
        assert not FlowEntry.build(match=Match({}), priority=5).is_table_miss

    def test_stats_record(self):
        stats = FlowStats()
        stats.record(byte_count=100)
        stats.record()
        assert stats.packet_count == 2
        assert stats.byte_count == 100


class TestFlowTable:
    def test_lookup_highest_priority(self):
        table = FlowTable()
        table.add(entry(1, in_port=1))
        table.add(entry(9, in_port=1))
        hit = table.lookup({"in_port": 1})
        assert hit is not None and hit.priority == 9

    def test_lookup_miss(self):
        table = FlowTable()
        table.add(entry(1, in_port=1))
        assert table.lookup({"in_port": 2}) is None

    def test_add_replaces_same_match_same_priority(self):
        table = FlowTable()
        table.add(entry(1, in_port=1))
        replacement = entry(1, in_port=1)
        table.add(replacement)
        assert len(table) == 1
        assert table.lookup({"in_port": 1}) is replacement

    def test_same_match_different_priority_coexist(self):
        table = FlowTable()
        table.add(entry(1, in_port=1))
        table.add(entry(2, in_port=1))
        assert len(table) == 2

    def test_remove(self):
        table = FlowTable()
        table.add(entry(1, in_port=1))
        assert table.remove(Match.exact(in_port=1), 1)
        assert not table.remove(Match.exact(in_port=1), 1)
        assert len(table) == 0

    def test_remove_where(self):
        table = FlowTable()
        for port in range(5):
            table.add(entry(1, in_port=port))
        removed = table.remove_where(lambda e: e.priority == 1)
        assert removed == 5 and len(table) == 0

    def test_capacity_enforced(self):
        table = FlowTable(max_entries=1)
        table.add(entry(1, in_port=1))
        with pytest.raises(TableFullError):
            table.add(entry(1, in_port=2))

    def test_capacity_allows_replacement(self):
        table = FlowTable(max_entries=1)
        table.add(entry(1, in_port=1))
        table.add(entry(1, in_port=1))  # replacement, not growth
        assert len(table) == 1

    def test_counters(self):
        table = FlowTable()
        table.add(entry(1, in_port=1))
        table.lookup({"in_port": 1})
        table.lookup({"in_port": 9})
        assert table.lookup_count == 2
        assert table.matched_count == 1

    def test_entry_stats_updated_on_hit(self):
        table = FlowTable()
        e = entry(1, in_port=1)
        table.add(e)
        table.lookup({"in_port": 1})
        assert e.stats.packet_count == 1

    def test_table_miss_entry_found(self):
        table = FlowTable()
        miss = FlowEntry.build(match=Match({}), priority=0)
        table.add(entry(5, in_port=1))
        table.add(miss)
        assert table.table_miss_entry is miss

    def test_miss_entry_matches_last(self):
        table = FlowTable()
        table.add(FlowEntry.build(match=Match({}), priority=0))
        table.add(entry(5, in_port=1))
        hit = table.lookup({"in_port": 1})
        assert hit is not None and hit.priority == 5

    def test_iteration_is_sorted(self):
        table = FlowTable()
        table.add(entry(1, in_port=1))
        table.add(entry(9, in_port=2))
        assert [e.priority for e in table] == [9, 1]

    def test_negative_table_id_rejected(self):
        with pytest.raises(ValueError):
            FlowTable(table_id=-1)

    def test_equal_priority_first_added_wins(self):
        table = FlowTable()
        first = entry(3, in_port=1)
        table.add(first)
        table.add(
            FlowEntry.build(match=Match.exact(in_port=1, eth_type=1), priority=3)
        )
        hit = table.lookup({"in_port": 1, "eth_type": 1})
        # Both match; the more specific one wins the specificity tiebreak.
        assert hit is not None and hit.match != first.match


class TestForwardOnlyGoto:
    """A table refuses an entry whose Goto-Table does not point to a
    later table, whichever door the entry comes through — so no walk
    can loop back to a table it has already left."""

    @staticmethod
    def goto(target):
        return FlowEntry.build(
            match=Match.exact(in_port=1),
            priority=1,
            instructions=[GotoTable(target)],
        )

    @pytest.mark.parametrize("target", [0, 1])
    def test_backward_or_self_goto_refused(self, target):
        table = FlowTable(table_id=1)
        with pytest.raises(PipelineError, match="must point to a later table"):
            table.add(self.goto(target))
        assert len(table) == 0 and table.version == 0

    def test_forward_goto_accepted(self):
        table = FlowTable(table_id=1)
        table.add(self.goto(2))
        table.add(entry(3, in_port=2))
        assert len(table) == 2
