"""Validate an exported Chrome trace-event JSON file.

CI runs the mapping bench with ``--trace`` and feeds the result here
(see ``.github/workflows/ci.yml``); the checks are exactly the
invariants the telemetry layer promises:

1. **Well-formed**: the file is JSON with a ``traceEvents`` list, and
   every event carries the required keys for its phase.
2. **Balanced nesting**: per ``(pid, tid)`` track, ``B``/``E`` events
   form a properly nested stack — every begin has a matching end with
   the same name, timestamps are monotonically consistent (an ``E``
   never precedes its ``B``), and nothing is left open at the end.
3. **Flat stages**: no ``cat == "stage"`` span opens while another
   stage span is open on the same track — stages are sequential, and
   the stage table (a rollup of these spans) counts each one once.

Exit status is 0 when every check passes, 1 with a per-failure report
otherwise.

Run:  python tools/check_trace.py trace.json
"""

from __future__ import annotations

import argparse
import json
import sys

STAGE_CATEGORY = "stage"


def check_trace(payload: dict) -> list[str]:
    """All violated invariants of an exported Chrome trace (empty = pass)."""
    failures: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    if not events:
        failures.append("traceEvents is empty")

    # Balanced B/E per (pid, tid) track; stage spans may not nest.
    stacks: dict[tuple, list] = {}
    for position, event in enumerate(events):
        phase = event.get("ph")
        if phase not in ("B", "E", "M"):
            failures.append(f"event {position}: unknown phase {phase!r}")
            continue
        if "pid" not in event or "tid" not in event:
            failures.append(f"event {position}: missing pid/tid")
            continue
        if phase == "M":
            continue
        name = event.get("name")
        ts = event.get("ts")
        if name is None or not isinstance(ts, (int, float)):
            failures.append(f"event {position}: B/E event needs name and ts")
            continue
        key = (event["pid"], event["tid"])
        stack = stacks.setdefault(key, [])
        if phase == "B":
            category = event.get("cat")
            if category == STAGE_CATEGORY:
                outer = [n for n, _, c in stack if c == STAGE_CATEGORY]
                if outer:
                    failures.append(
                        f"event {position}: stage {name!r} opens inside "
                        f"stage {outer[-1]!r} on {key}"
                    )
            stack.append((name, ts, category))
        else:
            if not stack:
                failures.append(
                    f"event {position}: E {name!r} with empty stack on {key}"
                )
                continue
            open_name, open_ts, _ = stack.pop()
            if open_name != name:
                failures.append(
                    f"event {position}: E {name!r} closes B {open_name!r} "
                    f"on {key}"
                )
                continue
            if ts < open_ts:
                failures.append(
                    f"event {position}: {name!r} ends at {ts} before its "
                    f"begin at {open_ts}"
                )
    for key, stack in stacks.items():
        if stack:
            failures.append(
                f"track {key}: {len(stack)} span(s) left open "
                f"({', '.join(repr(name) for name, _, _ in stack)})"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file to check")
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as f:
            payload = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"FAIL: cannot read {args.trace}: {error}")
        return 1

    failures = check_trace(payload)
    n_events = len(payload.get("traceEvents", []))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"OK: {args.trace} — {n_events} events, balanced B/E and no "
        f"nested stage span on every track"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
