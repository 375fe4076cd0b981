# repro-lint fixture: should NOT fire unused-import.
# Every import is read somewhere: in code, in a quoted annotation, in
# __all__ (a re-export), or excused by the inline pragma.
from __future__ import annotations

import os.path
from fractions import Fraction
from typing import TYPE_CHECKING

import json  # repro-lint: disable=unused-import

if TYPE_CHECKING:
    from decimal import Decimal

__all__ = ["Fraction", "joined"]


def joined(parts: list[str]) -> str:
    return os.path.join(*parts)


def scaled(value: "Decimal") -> "Decimal":
    return value * 2
