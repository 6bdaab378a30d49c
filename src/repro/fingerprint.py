"""Value-canonical fingerprints: one encoder, one hash, one chain.

Every run and report digest in the repository goes through this module, so
"equal fingerprints" means "equal values" everywhere:

* :func:`canonical` encodes plain data and dataclasses by value only.  It
  never looks at object identity (a shared sub-object and its copies encode
  the same), writes floats with :meth:`float.hex` (a 1-ulp change,
  ``0.0`` vs ``-0.0`` and ``1`` vs ``1.0`` all encode differently), and
  sorts nothing implicitly: callers order the collections whose order is
  not meaningful (``sorted(d.items())``), and sets are refused.
* :func:`digest` is the one hash: SHA-256 over the canonical encoding,
  always the full 64 hex characters.
* :func:`chain` folds a batch of pre-rendered lines into a running digest.
  Its state is a hex string, so it survives ``snapshot_state`` /
  ``restore_state`` (barrier checkpoints) as plain data, and per-event
  producers render one cheap line instead of encoding a value tree.

Seed derivation (``repro.sim.rng``) and byte-integrity checks
(``repro.checkpoint.state.payload_digest``, the checkpoint file header,
frame CRCs) are deliberately not here: they pin bytes, not values.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass

import numpy as np

__all__ = ["canonical", "digest", "chain"]


def _encode(value, out: list) -> None:
    """Append the canonical tokens of ``value`` to ``out``.

    Scalars are self-delimiting (``i<int>;``, ``d<float.hex>;``,
    ``s<len>:<text>``), so containers need no separators and no two
    distinct values share an encoding.
    """
    if value is None:
        out.append("N")
    elif value is True:
        out.append("T")
    elif value is False:
        out.append("F")
    elif isinstance(value, int):
        out.append(f"i{int(value)};")
    elif isinstance(value, float):
        out.append(f"d{float(value).hex()};")
    elif isinstance(value, str):
        out.append(f"s{len(value)}:{value}")
    elif isinstance(value, (list, tuple)):
        out.append("[" if isinstance(value, list) else "(")
        for item in value:
            _encode(item, out)
        out.append("]" if isinstance(value, list) else ")")
    elif isinstance(value, dict):
        out.append("{")
        for key, item in value.items():
            _encode(key, out)
            _encode(item, out)
        out.append("}")
    elif is_dataclass(value) and not isinstance(value, type):
        name = type(value).__qualname__
        out.append(f"@{len(name)}:{name}(")
        for field in fields(value):
            _encode(getattr(value, field.name), out)
        out.append(")")
    elif isinstance(value, np.generic):
        _encode(value.item(), out)
    else:
        raise TypeError(
            f"canonical() cannot encode {type(value).__name__!r}; pass "
            f"plain data (sets need an explicit order: use sorted())"
        )


def canonical(value) -> str:
    """The value-only encoding of plain data and dataclasses."""
    out: list[str] = []
    _encode(value, out)
    return "".join(out)


def _utf8(text: str) -> bytes:
    """UTF-8 bytes of any ``str``, lone surrogates included.

    ``surrogatepass`` leaves every encodable string byte-identical to plain
    ``str.encode()``, so it only extends the domain; it never moves an
    existing digest.
    """
    return text.encode("utf-8", "surrogatepass")


def digest(value) -> str:
    """SHA-256 (64 hex chars) of ``canonical(value)``.

    ``value`` is any plain data :func:`canonical` accepts -- a report
    tuple, a list of pre-rendered lines, a list of dataclass records.
    """
    return hashlib.sha256(_utf8(canonical(value))).hexdigest()


def chain(prev_hex: str, lines) -> str:
    """Fold one batch of newline-free ``lines`` into the chain ``prev_hex``.

    The new state is ``sha256(prev_hex + "\\n" + "\\n".join(lines))``; an
    empty batch leaves the chain unchanged, so only batch boundaries that
    carry data (barriers with events) are part of the digest.
    """
    if not lines:
        return prev_hex
    text = "\n".join(lines)
    if text.count("\n") != len(lines) - 1:
        raise ValueError("chain() lines must not contain newlines")
    return hashlib.sha256(_utf8(f"{prev_hex}\n{text}")).hexdigest()
