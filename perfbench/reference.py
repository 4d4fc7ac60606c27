"""Fixed reference op that the benchmark times next to every measured op.

    python3 perfbench/reference.py

The hosts this benchmark runs on share their cores, and their speed drifts
by 20-45% over tens of seconds. The reference does the same kind of work as
a ``crown`` op (interpreter start, JSON parsing, dict and tuple building,
sorting, float sums) on fixed inputs, and none of ``crown``'s code, so the
ratio of an op's time to the time of the reference ops run just before and
after it cancels most of that drift. It prints a checksum so a reader can
see it did the same work every time.
"""

import json
import math
import random

LINES = 12_000


def main() -> None:
    rng = random.Random(20101012)
    lines = []
    for index in range(LINES):
        references = [f"r{rng.randrange(index + 1):06d}" for _ in range(rng.randrange(12))]
        lines.append(json.dumps({"id": f"r{index:06d}", "year": 2000 + index % 10,
                                 "references": references}, separators=(",", ":")))
    records = [json.loads(line) for line in lines]
    cited_by: dict[str, list[str]] = {record["id"]: [] for record in records}
    lengths = {}
    for record in records:
        lengths[record["id"]] = len(record["references"])
        for key in set(record["references"]):
            cited_by[key].append(record["id"])
    scores = sorted(
        (math.fsum(1.0 / lengths[citer] for citer in citers), key)
        for key, citers in cited_by.items()
    )
    print(len(scores), repr(math.fsum(score for score, _ in scores)))


if __name__ == "__main__":
    main()
