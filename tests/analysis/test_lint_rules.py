"""Fixture corpus for the repro-lint rule set.

Every registered rule must have a ``fire.py`` (seeded violation the
rule flags) and a ``clean.py`` (legitimate code it must not flag) under
``lint_fixtures/<rule-name>/``.  The meta-test makes that structural:
registering a rule without fixtures fails the suite.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.lint import REGISTRY, check_source, rules

FIXTURES = Path(__file__).parent / "lint_fixtures"

RULE_NAMES = [rule.name for rule in REGISTRY]


def _run_rule(rule_name, fixture_path):
    rule = next(r for r in REGISTRY if r.name == rule_name)
    source = fixture_path.read_text(encoding="utf-8")
    return check_source(source, str(fixture_path), rules=[rule])


class TestFixtureCorpus:
    def test_rule_set_is_at_least_the_issue_floor(self):
        assert len(REGISTRY) >= 5

    @pytest.mark.parametrize("rule_name", RULE_NAMES)
    def test_every_rule_has_fixtures(self, rule_name):
        rule_dir = FIXTURES / rule_name
        assert (rule_dir / "fire.py").is_file(), (
            f"rule {rule_name!r} has no should-fire fixture"
        )
        assert (rule_dir / "clean.py").is_file(), (
            f"rule {rule_name!r} has no should-not-fire fixture"
        )

    def test_no_orphan_fixture_directories(self):
        on_disk = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
        assert on_disk == set(RULE_NAMES)

    @pytest.mark.parametrize("rule_name", RULE_NAMES)
    def test_fire_fixture_fires(self, rule_name):
        findings = _run_rule(rule_name, FIXTURES / rule_name / "fire.py")
        assert findings, f"{rule_name}: fire.py produced no findings"
        assert all(f.rule == rule_name for f in findings)
        assert all(f.line > 0 and f.hint for f in findings)

    @pytest.mark.parametrize("rule_name", RULE_NAMES)
    def test_clean_fixture_stays_clean(self, rule_name):
        findings = _run_rule(rule_name, FIXTURES / rule_name / "clean.py")
        assert not findings, (
            f"{rule_name}: clean.py flagged: "
            + "; ".join(f.render() for f in findings)
        )

    @pytest.mark.parametrize("rule_name", RULE_NAMES)
    def test_fire_fixture_is_quiet_for_other_rules(self, rule_name):
        """Fixtures are minimal: each seeds exactly one rule's violation."""
        source = (FIXTURES / rule_name / "fire.py").read_text(
            encoding="utf-8"
        )
        findings = check_source(
            source, f"{rule_name}/fire.py", rules=list(REGISTRY)
        )
        assert {f.rule for f in findings} == {rule_name}


class TestRuleDetails:
    """Pin the sharp edges each rule was designed around."""

    def test_shm_attach_never_flags(self):
        findings = check_source(
            "from multiprocessing import shared_memory\n"
            "def attach(name):\n"
            "    return shared_memory.SharedMemory(name=name)\n",
            "attach.py",
        )
        assert not findings

    def test_shm_positional_create_flags(self):
        findings = check_source(
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def make(n):\n"
            "    return SharedMemory(None, True, n)\n",
            "positional.py",
        )
        assert [f.rule for f in findings] == ["shm-lifecycle"]

    def test_frame_len_comparison_is_the_exclusion_idiom(self):
        findings = check_source(
            "def keyed(batch, names):\n"
            "    return batch.key_hashes(\n"
            "        tuple(n for n in names if n != 'frame_len')\n"
            "    )\n",
            "exclusion.py",
        )
        assert not findings

    def test_snapshot_single_read_is_fine(self):
        findings = check_source(
            "class S:\n"
            "    def _submit(self):\n"
            "        with self._lock:\n"
            "            return len(self._log)\n",
            "single.py",
        )
        assert not findings

    def test_snapshot_nested_defs_counted_separately(self):
        # One read in the outer function, one in a nested helper: each
        # scope snapshots once, so neither is a re-read.
        findings = check_source(
            "class S:\n"
            "    def _submit(self):\n"
            "        n = len(self._log)\n"
            "        def backlog():\n"
            "            return len(self._log)\n"
            "        return n, backlog\n",
            "nested.py",
        )
        assert not findings

    def test_dtype_positional_accepted(self):
        findings = check_source(
            "import numpy as np\n"
            "def f(n):\n"
            "    return np.zeros(n, np.uint64), np.full(n, 0, np.int64)\n",
            "positional_dtype.py",
        )
        assert not findings

    def test_hot_name_outside_hot_set_is_free(self):
        findings = check_source(
            "def report(batch):\n"
            "    return batch.dicts()\n",
            "cold.py",
        )
        assert not findings

    def test_single_rows_fire_only_in_the_lane_only_tier(self):
        """``fields_at`` / ``row_fields`` are what the probe tier's miss
        branch may still use, and what the columnar classify entry
        point, the wave functions, the microflow batch lookup,
        ``install_batch`` and the sharded reply path (encode, decode,
        collect) may not."""
        template = (
            "def {name}(self, batch, rows):\n"
            "    return [batch.row_fields(row) for row in rows]\n"
        )
        for name, fires in (
            ("probe", False),
            ("results", False),
            ("lookup_batch_columnar", True),
            ("classify_columnar", True),
            ("classify", True),
            ("credit_outcomes", True),
            ("_wave", True),
            ("_advance", True),
            ("install_batch", True),
            ("encode_outcomes", True),
            ("decode_outcomes", True),
            ("_collect", True),
        ):
            findings = check_source(template.format(name=name), f"{name}.py")
            assert bool(findings) is fires, name
            assert all(f.rule == "hot-path-purity" for f in findings)

    def test_reply_path_may_not_build_results_per_position(self):
        """The sharded reply is per traversal: a ``PipelineResult(...)``
        built inside the decode or the collect loop is per position by
        construction, and so is a bulk ``.dicts()`` / ``.decode()``."""
        for name in ("encode_outcomes", "decode_outcomes", "_collect"):
            for body in (
                "[PipelineResult(final_fields=f) for f in batch]",
                "batch.dicts()",
                "codec.decode(batch)",
            ):
                findings = check_source(
                    f"def {name}(self, codec, batch):\n    return {body}\n",
                    f"{name}.py",
                )
                assert [f.rule for f in findings] == ["hot-path-purity"], (
                    name,
                    body,
                )

    def test_miss_path_may_not_replay_a_path(self):
        """A path is replayed only for a result somebody reads: the
        walk, the megaflow probe and install, the credit and the
        sharded decode and collect carry references and credit lanes."""
        template = (
            "def {name}(self, paths):\n"
            "    return [self.pipeline.replay_path(p) for p in paths]\n"
        )
        for name in sorted(rules._REPLAY_FREE_HOT):
            findings = check_source(template.format(name=name), f"{name}.py")
            assert [f.rule for f in findings] == ["hot-path-purity"], name
            assert "replay_path" in findings[0].message
        for name in ("outcome", "results", "__iter__", "__getitem__"):
            assert not check_source(template.format(name=name), f"{name}.py")

    def test_address_only_tier_reads_no_entry_stats(self):
        """The miss path addresses a matched entry by its action slot:
        an entry's ``.stats`` read, or an ``attrgetter("stats...")``,
        in the wave, the path extension, the megaflow probe or install
        or the credit is a finding, and elsewhere it is not."""
        template = "{header}def {name}(self, entries):\n    return {body}\n"
        for header, body in (
            ("", "[entry.stats.row for entry in entries]"),
            (
                "from operator import attrgetter\n",
                'list(map(attrgetter("stats.row"), entries))',
            ),
        ):
            for name in sorted(rules._ADDRESS_ONLY_HOT):
                source = template.format(header=header, name=name, body=body)
                findings = check_source(source, f"{name}.py")
                assert [f.rule for f in findings] == ["hot-path-purity"], name
                assert ".stats" in findings[0].message
            for name in ("lookup", "entry_counters"):
                source = template.format(header=header, name=name, body=body)
                assert not check_source(source, f"{name}.py"), name

    def test_address_only_tier_may_read_its_own_record(self):
        """``self.stats`` is the runner's own counter record, not an
        entry's: the sharded collect credits into it."""
        template = "def {name}(self, shard):\n    self.stats.waves += shard\n"
        for name in sorted(rules._ADDRESS_ONLY_HOT):
            assert not check_source(template.format(name=name), f"{name}.py")

    def test_unused_import_spares_package_reexports_only(self):
        source = "from repro.core import build_prototype\n"
        for path, fires in (("pkg/__init__.py", False), ("pkg/mod.py", True)):
            findings = check_source(source, path)
            assert [f.rule for f in findings] == ["unused-import"] * fires
            assert all(f.line == 1 for f in findings)

    def test_every_guarded_name_is_defined_in_src(self):
        """The hot-function and key-callee lists match by bare name, so
        a deleted function would leave its rule guarding nothing."""
        guarded = (
            rules._LANE_ONLY_HOT
            | rules._DICT_FREE_HOT
            | rules._REPLAY_FREE_HOT
            | rules._ADDRESS_ONLY_HOT
            | rules._KEY_CALLEES
        )
        src = Path(rules.__file__).resolve().parents[2]
        defined = {
            node.name
            for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert guarded <= defined, sorted(guarded - defined)
