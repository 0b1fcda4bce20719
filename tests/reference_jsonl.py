"""Reference JSON-lines decoder: one `json.loads` call per line.

`scmc.events.loads_run_jsonl` must return the same `Run`, or raise the
same error with the same message and line, as this straightforward
decoder, which reads each line with the standard library's own entry
point.  The one deliberate difference: an integer longer than `int()`
accepts makes `json.loads` raise a plain `ValueError` here, which
`loads_run_jsonl` reports as a `FormatError`.
"""
import json

from scmc.errors import FormatError, ParameterError
from scmc.events import InternalEvent, MemoryEvent, Params, Run

MEMORY_KEYS = {"op", "proc", "loc", "data"}
INTERNAL_KEYS = {"internal", "params"}


def _event(record, line):
    if not isinstance(record, dict):
        raise FormatError(f"expected an event object, got {record!r}", line)
    keys = set(record)
    if "op" in keys:
        if keys != MEMORY_KEYS:
            raise FormatError(f"memory event keys must be {sorted(MEMORY_KEYS)}", line)
        fields = (record["proc"], record["loc"], record["data"])
        if not all(type(x) is int for x in fields):
            raise FormatError("proc, loc and data must be integers", line)
        return MemoryEvent(record["op"], *fields)
    if "internal" in keys:
        if keys != INTERNAL_KEYS:
            raise FormatError(f"internal event keys must be {sorted(INTERNAL_KEYS)}", line)
        label, params = record["internal"], record["params"]
        if not isinstance(label, str):
            raise FormatError("internal label must be a string", line)
        if not (isinstance(params, list) and all(type(p) is int for p in params)):
            raise FormatError("params must be a list of integers", line)
        return InternalEvent(label, tuple(params))
    raise FormatError(f"event object needs an 'op' or 'internal' key, got {sorted(keys)}", line)


def reference_loads_run_jsonl(text: str) -> Run:
    header = None
    events = []
    for line, raw in enumerate(text.splitlines(), 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON ({exc.msg})", line) from None
        except RecursionError:
            raise FormatError("invalid JSON (nested too deeply)", line) from None
        if header is None:
            if not (isinstance(record, dict) and set(record) == {"n", "m", "v"}):
                raise FormatError('first line must be a header {"n", "m", "v"}', line)
            if not all(type(record[k]) is int for k in ("n", "m", "v")):
                raise FormatError("header values must be integers", line)
            header = Params(record["n"], record["m"], record["v"])
            continue
        events.append(_event(record, line))
    if header is None:
        raise FormatError("empty input: missing header line")
    try:
        return Run(tuple(events), header)
    except ParameterError as exc:
        raise FormatError(str(exc)) from None
