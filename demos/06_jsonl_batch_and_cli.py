"""
Point-sample files and the batch command line
=============================================

Analyses run over JSONL files of per-point samples (metric, curvature rows,
quadrature weight).  The same reports are available as a library call or
through the ``curvforms`` executable; this script drives the command line
in-process.
"""

import json
import pathlib
import sys
import tempfile

import curvforms as cf
from curvforms.cli import main

sys.stdout.reconfigure(line_buffering=True)  # keep stderr lines in place
# the files live in a temporary directory that is removed at the end
with tempfile.TemporaryDirectory(prefix="curvforms_demo_") as tmp:
    workdir = pathlib.Path(tmp)

    # ---- write a small sphere grid and read it back ----

    sphere = workdir / "s4.jsonl"
    count = cf.write_samples(sphere, cf.gen_space_form(4, 1.0, 4))
    print(f"wrote {count} samples to {sphere.name}")

    first = next(iter(cf.read_samples(sphere)))
    cf.validate_sample(first)
    print("first line validates; weight =", first.weight)
    print("serialized form round-trips byte-identically:",
          cf.sample_to_json(first) == sphere.read_text().splitlines()[0])

    # gzip output is chosen by extension alone
    packed = workdir / "s4.jsonl.gz"
    cf.write_samples(packed, cf.gen_space_form(4, 1.0, 4))
    print("gzip magic:", packed.read_bytes()[:2] == b"\x1f\x8b")

    # ---- the same data through the command line ----

    tiny = workdir / "tiny.jsonl"
    cf.write_samples(tiny, cf.gen_space_form(4, 1.0, 2))
    print("\n$ curvforms validate tiny.jsonl")
    code = main(["validate", str(tiny)])
    print("exit code:", code)

    print("\n$ curvforms integrate s4.jsonl --quantity chi --format json")
    report_path = workdir / "chi.json"
    main(["integrate", str(sphere), "--quantity", "chi", "--format", "json",
          "-o", str(report_path)])
    report = json.loads(report_path.read_text())
    print("chi from the report:", report["aggregate"]["chi"])

    # a malformed line is a usage error (exit 2), not an analysis result
    broken = workdir / "broken.jsonl"
    broken.write_text('{"dim": 4}\n')
    print("\n$ curvforms validate broken.jsonl")
    code = main(["validate", str(broken)])
    print("exit code:", code)

    # a well-formed file that fails a geometry invariant exits 1 with indices
    bad = workdir / "bianchi.jsonl"
    bad.write_text(
        '{"dim": 4, "g": [1, 0, 1, 0, 0, 1, 0, 0, 0, 1], '
        '"rm": [[1, 2, 3, 4, 0.5]], "weight": 1}\n'
    )
    print("\n$ curvforms validate bianchi.jsonl")
    code = main(["validate", str(bad)])
    print("exit code:", code)

    print("\n$ curvforms sums 'K3 # S1xS3'")
    main(["sums", "K3 # S1xS3"])
