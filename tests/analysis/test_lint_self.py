"""The linter's own acceptance gate, plus regression tests for the
defects its first run over the tree surfaced.

``python -m repro.analysis src benchmarks examples`` must exit 0; this
suite enforces the same thing from tier-1 so a violation fails locally
before CI sees it.
"""

from pathlib import Path

import numpy as np

from repro.analysis.lint import Config, check_source, run_paths
from repro.filters.synthetic import _coverage_first
from repro.packet.batch import PacketBatch
from repro.runtime.transport import (
    BlockReader,
    BlockWriter,
    PacketBlockCodec,
    SharedBlock,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestTreeIsClean:
    def test_scanned_tree_has_no_findings(self):
        config = Config.load(REPO_ROOT / "repro-lint.toml")
        findings = run_paths(
            [str(REPO_ROOT / part) for part in ("src", "benchmarks", "examples")],
            config=config,
        )
        assert not findings, "\n".join(f.render() for f in findings)

    def test_fixture_corpus_is_excluded_by_repo_config(self):
        # `python -m repro.analysis tests` must not drown in the seeded
        # violations that exist precisely to test the rules.
        config = Config.load(REPO_ROOT / "repro-lint.toml")
        fixture = "tests/analysis/lint_fixtures/dtype-discipline/fire.py"
        source = (REPO_ROOT / fixture).read_text(encoding="utf-8")
        assert not check_source(source, fixture, config=config)
        # ...while the same code anywhere else still fires.
        assert check_source(source, "src/repro/elsewhere.py", config=config)


class TestDtypeRegressions:
    """The first tree-wide run flagged three dtype-less ``np.arange``
    calls (platform ``long`` — int32 on Windows — flowing into int64
    lanes).  Pin the fixed behaviour."""

    def test_attach_pick_indirection_is_int64(self):
        codec = PacketBlockCodec()
        writer = BlockWriter()
        batch = PacketBatch.from_dicts(
            [{"in_port": 1}, {"in_port": 2}, {"in_port": 1}], codec.field_bits
        )
        layout = codec.encode_batch(writer, batch, "pkt")
        block = SharedBlock()
        try:
            block.ensure(writer.nbytes)
            segments = writer.write_to(block.buf)
            reader = BlockReader(block.buf, segments)
            attached = codec.attach(reader, layout, positions=[2, 0])
            assert attached.pick.dtype == np.int64
            assert attached.dicts() == [{"in_port": 1}, {"in_port": 1}]
            del reader, attached  # release views before unmapping
        finally:
            block.close()

    def test_coverage_first_indices_are_int64(self):
        rng = np.random.default_rng(7)
        indices = _coverage_first(rng, pool_size=4, rows=9)
        assert indices.dtype == np.int64
        assert sorted(indices[:4].tolist()) == [0, 1, 2, 3]

    def test_fixed_modules_stay_dtype_clean(self):
        for module in (
            "src/repro/runtime/transport.py",
            "src/repro/filters/synthetic.py",
        ):
            path = REPO_ROOT / module
            source = path.read_text(encoding="utf-8")
            findings = [
                f
                for f in check_source(source, module)
                if f.rule == "dtype-discipline"
            ]
            assert not findings, "\n".join(f.render() for f in findings)
