"""Input files (requirements, witness and formula text) and witness output (JSON, DOT)."""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, TextIO

from .mas import Assignment, Model, ModelShape, decode_model, encode_model, state_locals, successors
from .solver import Requirements


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
def _blame(culprit: str):
    """Re-raise bad input as a ``ValueError`` that starts with ``culprit``, a path or field."""
    try:
        yield
    except RecursionError:
        raise ValueError(f"{culprit}: JSON nested too deeply") from None
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{culprit}: {problem}") from None


def _read_shape(data: Any, kind: str) -> ModelShape:
    """The file's shape, checked without ``props`` first: ``'props'`` is blamed for its part."""
    data = data if isinstance(data, dict) else {}
    # Only a requirements file may leave out the initial locals and props.
    defaults = {"initial": 0, "props": 0} if kind == "requirements" else {}
    with _blame(f"{kind} field 'agents'"):
        agents = data["agents"]
        if not isinstance(agents, list) or not all(isinstance(a, dict) for a in agents):
            raise ValueError("expected a list of objects")
        locs = [a["locals"] for a in agents]
        init = [{**defaults, **a}["initial"] for a in agents]
        ModelShape(locs, init)
    with _blame(f"{kind} field 'props'"):
        return ModelShape(locs, init, {**defaults, **data}["props"])


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
    shape = _read_shape(data, "witness")
    with _blame("witness field 'protocols'"):
        protocols = tuple(
            tuple(_protocol_row(row) for row in table) for table in data["protocols"]
        )
        Model(shape, protocols, [[False] * shape.prop_count] * shape.state_count)
    with _blame("witness field 'valuation'"):
        valuation = tuple(
            _valuation_row(props, shape.prop_count) for props in data["valuation"]
        )
        model = Model(shape, protocols, valuation)
    bits = data.get("bits")
    if bits is not None:
        with _blame("witness field 'bits'"):
            recoded = decode_model(Assignment.from_string(shape, bits))
            if recoded != model:
                raise ValueError("the tables disagree with the raw cell string")
    return model


def write_text(fh: TextIO, text: str) -> None:
    """Write ``text`` to an open output file and close it; an error doing so
    is an ``OSError`` that starts with the file's path."""
    try:
        with fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"{fh.name}: {exc}") from None


def write_witness_json(m: Model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_text(fh, json.dumps(witness_to_dict(m), indent=2) + "\n")


def read_text(path: str) -> str:
    """The text of a UTF-8 file, less a leading byte-order mark; bytes that
    do not decode are a ``ValueError`` naming it."""
    with open(path, "r", encoding="utf-8-sig") as fh, _blame(path):
        return fh.read()


def read_json(path: str) -> Any:
    """Decode a JSON file; text that does not decode or parse is a ``ValueError`` naming it."""
    text = read_text(path)
    with _blame(path):
        return json.loads(text)


def read_witness_json(path: str) -> Model:
    return witness_from_dict(read_json(path))


def read_requirements_json(path: str) -> Requirements:
    """Read a requirements file; malformed content is a ``ValueError`` naming the field."""
    data = read_json(path)
    shape = _read_shape(data, "requirements")
    return Requirements(shape, data.get("cp", ()), data.get("cv", ()))


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
