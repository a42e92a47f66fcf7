"""What each workload loads through the program before its first op."""
from __future__ import annotations

from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def load_inputs(name: str) -> dict:
    """Machine programs and the table for ``races``, the translations for
    ``diagonal``; ``decide`` and ``models`` generate all their input."""
    if name == "races":
        from theorybench.machines import load_program, load_table
        return {"a": load_program(DATA / "even.cm"), "table": load_table(DATA / "table")}
    if name == "diagonal":
        from theorybench.diagonal import enumerate_translations
        from theorybench.syntax import J_SIG
        return {"translations": enumerate_translations(J_SIG, 5)}
    if name in ("decide", "models"):
        return {}
    raise ValueError(f"unknown workload {name!r}")
