"""Witness model serialization: JSON files and DOT transition graphs."""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any

from .mas import Assignment, Model, ModelShape, decode_model, encode_model, state_locals, successors


def witness_to_dict(m: Model) -> dict[str, Any]:
    """JSON-ready description: shape, protocol rows as '0'/'1' strings,
    per-state true propositions, and the raw cell string."""
    return {
        "agents": [
            {"locals": n, "initial": init}
            for n, init in zip(m.shape.locals_per_agent, m.shape.initial_locals)
        ],
        "props": m.shape.prop_count,
        "protocols": [
            ["".join("1" if x else "0" for x in row) for row in table]
            for table in m.protocols
        ],
        "valuation": [
            [v for v, on in enumerate(row) if on] for row in m.valuation
        ],
        "bits": encode_model(m).to_string(),
    }


@contextmanager
def _field(name: str):
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"witness field {name!r}: {problem}") from None


def _protocol_row(row: Any) -> tuple[bool, ...]:
    if not isinstance(row, str) or not set(row) <= {"0", "1"}:
        raise ValueError(f"protocol row {row!r} is not a string of '0' and '1'")
    return tuple(ch == "1" for ch in row)


def _valuation_row(props: Any, prop_count: int) -> tuple[bool, ...]:
    if not all(type(v) is int and 0 <= v < prop_count for v in props):
        raise ValueError(f"{props!r} names a proposition outside 0..{prop_count - 1}")
    return tuple(v in props for v in range(prop_count))


def witness_from_dict(data: dict[str, Any]) -> Model:
    """Rebuild a model, checking the tables against the raw cell string.
    Malformed content raises ``ValueError`` naming the bad field."""
    data = data if isinstance(data, dict) else {}
    with _field("agents"):
        locs = [a["locals"] for a in data["agents"]]
        init = [a["initial"] for a in data["agents"]]
        ModelShape(locs, init)
    with _field("props"):
        shape = ModelShape(locs, init, data["props"])
    with _field("protocols"):
        protocols = tuple(
            tuple(_protocol_row(row) for row in table) for table in data["protocols"]
        )
        Model(shape, protocols, [[False] * shape.prop_count] * shape.state_count)
    with _field("valuation"):
        valuation = tuple(
            _valuation_row(props, shape.prop_count) for props in data["valuation"]
        )
        model = Model(shape, protocols, valuation)
    bits = data.get("bits")
    if bits is not None:
        with _field("bits"):
            recoded = decode_model(Assignment.from_string(shape, bits))
            if recoded != model:
                raise ValueError("the tables disagree with the raw cell string")
    return model


def write_witness_json(m: Model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(witness_to_dict(m), fh, indent=2)
        fh.write("\n")


def read_json(path: str) -> Any:
    """Decode a JSON file; nesting too deep to decode is a ``ValueError`` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def read_witness_json(path: str) -> Model:
    return witness_from_dict(read_json(path))


def witness_to_dot(m: Model) -> str:
    """The induced global transition graph: one node per state labeled with
    its true propositions, one edge per joint action."""
    shape = m.shape
    lines = ["digraph model {"]
    for s in range(shape.state_count):
        locs = state_locals(shape, s)
        props = ",".join(f"p{v}" for v, on in enumerate(m.valuation[s]) if on)
        loc_str = ",".join(str(l) for l in locs)
        label = f"s{s} ({loc_str})\\n{{{props}}}"
        extra = ", penwidth=2" if s == shape.initial_state else ""
        lines.append(f'  s{s} [label="{label}"{extra}];')
    for s in range(shape.state_count):
        for joint, target in successors(m, s):
            action = ",".join(str(a) for a in joint)
            lines.append(f'  s{s} -> s{target} [label="({action})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
