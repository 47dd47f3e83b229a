"""Reading and writing the JSON and CSV artifacts of a run.

JSON artifacts are written in one canonical form: keys sorted, two-space
indent, floats by ``repr`` and a trailing newline, so a rerun writes the same
bytes.  CSV artifacts are `csv.writer`'s: comma separated, CRLF rows, a header
row first.  The readers turn a file that does not parse, or lacks what its
loader needs, into a ValueError that names the file.
"""

from __future__ import annotations

import csv
import hashlib
import json
from typing import Iterable, Sequence

__all__ = ["write_json", "read_json", "sha256_json", "write_csv", "read_csv"]


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, what: str, sections: Iterable[str] = ()) -> dict:
    """The JSON object in ``path``; ``what`` names the file in errors, and every
    key in ``sections`` must be present."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed {what} file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {what} file {path}: not a JSON object")
    missing = set(sections) - doc.keys()
    if missing:
        raise ValueError(f"{what} file {path} missing sections: {sorted(missing)}")
    return doc


def sha256_json(doc) -> str:
    """SHA-256 of the compact, key-sorted JSON form of ``doc``."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header: Sequence[str], what: str) -> list[list[str]]:
    """The rows after ``path``'s header row, which must equal ``header``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != list(header):
            raise ValueError(f"unexpected {what} header {found!r}")
        return list(reader)
