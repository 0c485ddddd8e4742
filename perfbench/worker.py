"""Library-side operations that the benchmark runs in a fresh process.

    python3 perfbench/worker.py star-l INPUT OUTPUT
        classify and count critical planes of every star-L instance in INPUT
        with the retry schedule of acceptance criterion 07; OUTPUT gets one
        JSON list of [case_id, count] per line of INPUT (count null for a
        continuum).
    python3 perfbench/worker.py roundtrip INPUT OUTPUT
        read_samples(INPUT) then write_samples(OUTPUT).
    python3 perfbench/worker.py read-cost INPUT OUTPUT
        peak traced allocation of read_samples(INPUT) and the time of bare
        json.loads on the same lines, as JSON in OUTPUT (traced runs only).

The program is imported from the ``src`` directory named by PYTHONPATH.
"""

import json
import math
import sys


def star_l(src, dst):
    from curvforms.complex_forms import classify_complex, count_spacelike_critical
    from curvforms.zoo import read_samples

    from workloads import STAR_L_COUNTS, STAR_L_STARTS

    results = []
    for sample in read_samples(src):
        form = classify_complex(sample.rm, sample.g, sample.t)
        # retries stop at the classified case's prediction; the check compares
        # both the case and the count with the construction afterwards
        expected = STAR_L_COUNTS.get(form.case_id)
        for n_starts in STAR_L_STARTS:
            count = count_spacelike_critical(sample.rm, sample.g, sample.t, n_starts=n_starts)
            if count == expected:
                break
        results.append([form.case_id, None if math.isinf(count) else count])
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def roundtrip(src, dst):
    from curvforms.zoo import read_samples, write_samples

    write_samples(dst, read_samples(src))


def read_cost(src, dst):
    import gzip
    import time
    import tracemalloc

    from curvforms.zoo import read_samples

    tracemalloc.start()
    points = len(read_samples(src))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    with (gzip.open if src.endswith(".gz") else open)(src, "rt", encoding="utf-8") as fh:
        lines = fh.readlines()
    t0 = time.perf_counter()
    for line in lines:
        json.loads(line)
    decode_s = time.perf_counter() - t0
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump({"points": points, "read_peak_bytes": peak, "json_decode_s": decode_s}, fh)


OPERATIONS = {"star-l": star_l, "roundtrip": roundtrip, "read-cost": read_cost}


def main(argv):
    if len(argv) != 3 or argv[0] not in OPERATIONS:
        print(__doc__, file=sys.stderr)
        return 2
    OPERATIONS[argv[0]](argv[1], argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
