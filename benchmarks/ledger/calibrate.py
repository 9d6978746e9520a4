"""The machine-speed probe: a fixed piece of interpreter work, timed in
CPU seconds ten times a second, for as long as the process lives.

The sandbox's virtual cores run the same bytecode up to 1.5x slower for
minutes at a time (no steal time is reported; see README.md, "Sandbox
caveats"), which moves every timing of a run together. ``run.py`` starts
this probe beside the run, averages its readings over the interval a
metric was measured in, and scales the metric to the speed at which one
pass takes ``REFERENCE_MS``. The probe uses about 2 % of one core and
none of the program's code.

Prints ``<wall clock> <CPU seconds of one pass>`` per reading.
"""

import time

#: CPU milliseconds of one pass on the sandbox's cores at full speed
REFERENCE_MS = 1.4
INTERVAL_S = 0.1


def one_pass(rows) -> float:
    begin = time.process_time()
    groups: dict[int, float] = {}
    for key, value, _label in rows:
        groups[key] = groups.get(key, 0.0) + value
    sorted(rows)
    return time.process_time() - begin


def main() -> None:
    rows = [(i * 7919 % 1000, i * 0.5, str(i)) for i in range(4000)]
    while True:
        print(time.time(), one_pass(rows), flush=True)
        time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main()
