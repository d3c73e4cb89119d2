"""Knowledge-base triple store with per-relation argument indexes.

Triples are plain (subject, relation, object) strings. The index keeps,
per relation, its subject/object sets and the fan-out/fan-in counts that
the clue miner queries. Facts carry no multiplicity: duplicate triples
collapse to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

COMMENT_PREFIX = "#"
FIELD_SEPARATOR = "\t"


class DataFileError(ValueError):
    """Malformed data file; carries the path and the 1-based line number.
    Each file format's error derives from it."""

    def __init__(self, message: str, path: str | Path | None = None, line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        where = f"{self.path or '<input>'}:{line}" if line is not None else str(self.path)
        super().__init__(f"{where}: {message}")


class TripleFileError(DataFileError):
    """Malformed triple file."""


@dataclass(frozen=True, order=True)
class Triple:
    subject: str
    relation: str
    object: str

    def __post_init__(self):
        for field in ("subject", "relation", "object"):
            value = getattr(self, field)
            trimmed = value.strip()
            if not trimmed:
                raise ValueError(f"triple {field} is empty")
            if trimmed != value:
                object.__setattr__(self, field, trimmed)


class KbIndex:
    """Immutable index over a set of distinct triples.

    Entity identity is exact string equality after trimming; there is no
    aliasing or normalization layer.
    """

    def __init__(self, triples: Iterable[Triple]):
        self._triples = frozenset(triples)
        subjects: dict[str, set[str]] = {}
        objects: dict[str, set[str]] = {}
        fanout: dict[str, dict[str, int]] = {}
        fanin: dict[str, dict[str, int]] = {}
        for t in self._triples:
            subjects.setdefault(t.relation, set()).add(t.subject)
            objects.setdefault(t.relation, set()).add(t.object)
            rel_fanout = fanout.setdefault(t.relation, {})
            rel_fanout[t.subject] = rel_fanout.get(t.subject, 0) + 1
            rel_fanin = fanin.setdefault(t.relation, {})
            rel_fanin[t.object] = rel_fanin.get(t.object, 0) + 1
        self._subjects = {r: frozenset(s) for r, s in subjects.items()}
        self._objects = {r: frozenset(o) for r, o in objects.items()}
        self._fanout = fanout
        self._fanin = fanin

    @property
    def relations(self) -> tuple[str, ...]:
        return tuple(sorted(self._subjects))

    def subjects(self, relation: str) -> frozenset[str]:
        return self._subjects.get(relation, frozenset())

    def objects(self, relation: str) -> frozenset[str]:
        return self._objects.get(relation, frozenset())

    def subject_fanout(self, relation: str) -> Mapping[str, int]:
        """Per subject, the number of distinct objects under `relation`."""
        return dict(self._fanout.get(relation, {}))

    def object_fanin(self, relation: str) -> Mapping[str, int]:
        """Per object, the number of distinct subjects under `relation`."""
        return dict(self._fanin.get(relation, {}))

    def __len__(self) -> int:
        return len(self._triples)


def read_triples(path: str | Path) -> list[Triple]:
    """Parse a tab-separated triple file.

    Blank lines and `#` comment lines are skipped. Raises TripleFileError
    for a wrong field count or an empty field, with the offending line
    number. Duplicates are preserved here; indexing deduplicates.
    """
    triples: list[Triple] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith(COMMENT_PREFIX):
                continue
            fields = line.split(FIELD_SEPARATOR)
            if len(fields) != 3:
                raise TripleFileError(
                    f"expected 3 tab-separated fields, found {len(fields)}", path, lineno
                )
            try:
                triples.append(Triple(*fields))
            except ValueError as exc:
                raise TripleFileError(str(exc), path, lineno) from exc
    return triples


def write_triples(path: str | Path, triples: Iterable[Triple]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for t in triples:
            handle.write(f"{t.subject}{FIELD_SEPARATOR}{t.relation}{FIELD_SEPARATOR}{t.object}\n")


def load_triples(path: str | Path) -> KbIndex:
    """Read a triple file and build the fully indexed store."""
    return KbIndex(read_triples(path))

