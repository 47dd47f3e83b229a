"""Reading and writing a run's JSON and CSV artifacts, and the config keys' domains.

JSON artifacts are written in one canonical form: keys sorted, two-space
indent, floats by ``repr`` and a trailing newline, so a rerun writes the same
bytes.  CSV artifacts are `csv.writer`'s: comma separated, CRLF rows, a header
row first.  The readers turn a file that does not parse, or lacks what its
loader needs, into a ValueError that names the file.

Each config key's domain is declared on its field by `bounded`, and its section's
``__post_init__`` enforces it by `check_domains`, so code and files are checked alike.
`_frozen` gives the read-only array copies that the frozen dataclasses hold.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import operator
from dataclasses import MISSING, field, fields
from typing import Iterable, Sequence

import numpy as np

__all__ = ["write_json", "read_json", "sha256_json", "write_csv", "read_csv", "bounded",
           "check_domains", "DomainError"]

# a domain's bounds: key -> (test, symbol)
_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "lt": (operator.lt, "<"),
           "le": (operator.le, "<=")}


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


def _number(value, types=(int, float)):
    """``value`` if it is a JSON number (an integer, for ``types=(int,)``): not ``true``."""
    if type(value) not in types:
        raise TypeError(f"expected {'an integer' if types == (int,) else 'a number'}, "
                        f"got {value!r}")
    return value


def bounded(default=MISSING, **domain):
    """A field whose values `check_domains` holds to ``domain``: a bound ``gt`` or
    ``ge`` and one ``lt`` or ``le``, ``integer=True`` and a tuple's ``length`` (the
    bounds hold for each entry).  Every value must be a finite number, not a bool.
    An integer key's value that is no integer breaks the rule "an integer", not
    its bounds."""
    assert set(domain) <= {*_BOUNDS, "integer", "length"}, domain
    words = {key: f"{bound:g}" if float(f"{bound:g}") == bound else repr(bound)
             for key, bound in domain.items() if key in _BOUNDS}
    if domain.get("integer") and words == {"ge": "0"}:
        rule = "a non-negative integer"
    else:  # "> 0", "> 0 and <= 0.01", or "finite" with no bound
        rule = " and ".join(f"{_BOUNDS[key][1]} {word}" for key, word in words.items()) or "finite"
    if "length" in domain:
        rule = f"{domain['length']} entries, each {rule}"
    metadata = {"domain": domain, "rule": rule}
    if domain.get("integer"):
        metadata["integer_rule"] = "an integer" if words != {"ge": "0"} else rule
    return field(default=default, metadata=metadata)


def _integral(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _within(value, domain: dict) -> bool:
    # an int is finite, and math.isfinite overflows on one past the float range
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (_integral(value) or not domain.get("integer") and math.isfinite(value))
            and all(_BOUNDS[k][0](value, bound) for k, bound in domain.items() if k in _BOUNDS))


class DomainError(ValueError):
    """``field`` must be ``rule``, got ``value``: a section's field outside its
    domain.  The config loader names the key from ``field``."""

    def __init__(self, field: str, rule: str, value):
        super().__init__(f"{field} must be {rule}, got {value!r}")
        self.field, self.rule, self.value = field, rule, value


def check_domains(obj) -> None:
    """Raise `DomainError` at the first field of the dataclass ``obj`` declared by
    `bounded` that is outside its domain."""
    for f in fields(obj):
        if "domain" in f.metadata:
            value, many = getattr(obj, f.name), isinstance(f.default, tuple)
            values, domain = value if many else (value,), f.metadata["domain"]
            if not (len(values) == domain.get("length", len(values))
                    and all(_within(v, domain) for v in values)):
                rule = f.metadata["rule"]
                if not all(map(_integral, values)):
                    rule = f.metadata.get("integer_rule", rule)
                raise DomainError(f.name, rule, list(value) if many else value)


def _frozen(values, dtype=float, shape=None) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``, reshaped to ``shape`` if given:
    freezing never touches the caller's array, and the caller's later writes never
    reach the copy."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr if shape is None else arr.reshape(shape)
