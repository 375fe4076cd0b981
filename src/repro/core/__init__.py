"""The paper's contribution: the multiple-table lookup architecture.

Fig. 1 of the paper, end to end:

1. the **partitioner/selector** splits the packet header into the fields
   (and 16-bit partitions) used by the current table
   (:mod:`repro.core.partition`);
2. each partition is searched by its own single-field algorithm — hash
   LUT for EM fields, a 3-level multi-bit trie per 16-bit partition for
   LPM fields, an elementary-interval structure for RM fields — yielding
   **labels** (:mod:`repro.core.field_engine`);
3. the **index calculation** combines the per-partition labels through
   DCFL-style aggregation tables into the index of the matching rule
   (:mod:`repro.core.index`);
4. the **action table** holds the rule's OpenFlow instructions —
   Write-Actions and Goto-Table, or "send to controller" on a miss
   (:mod:`repro.core.action_table`);
5. :class:`repro.core.architecture.MultiTableLookupArchitecture` chains
   lookup tables into the OpenFlow v1.1+ multiple-table pipeline, and
   :mod:`repro.core.builder` assembles the whole thing from rule sets —
   either one multi-field table per application or the paper's
   per-field table split with metadata chaining.
"""

from repro.core.action_table import ActionTable
from repro.core.architecture import (
    ArchitectureResult,
    MultiTableLookupArchitecture,
)
from repro.core.builder import (
    build_architecture,
    build_lookup_table,
    build_per_field_pipeline,
)
from repro.core.config import ArchitectureConfig
from repro.core.field_engine import (
    FieldEngine,
    MetadataEngine,
    PartitionEngine,
    build_field_engine,
)
from repro.core.index import IndexCalculator
from repro.core.lookup_table import OpenFlowLookupTable
from repro.core.partition import HeaderPartitioner

__all__ = [
    "ActionTable",
    "ArchitectureConfig",
    "ArchitectureResult",
    "FieldEngine",
    "HeaderPartitioner",
    "IndexCalculator",
    "MetadataEngine",
    "MultiTableLookupArchitecture",
    "OpenFlowLookupTable",
    "PartitionEngine",
    "build_architecture",
    "build_field_engine",
    "build_lookup_table",
    "build_per_field_pipeline",
]
