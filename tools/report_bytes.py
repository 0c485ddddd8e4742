"""Hash the bytes of every file command's report on the given sample files.

    python tools/report_bytes.py FILE [FILE ...]

runs ``curvforms validate``, ``einstein-check --metric g|h|lorentz``,
``normal-form``, ``petrov`` and ``integrate --quantity ht|chi|tau`` on each
FILE, with ``--format json`` and with ``--format text``, each in a fresh
process on this checkout's ``src``.  It prints one line per run: the sha256
of the run's exit code, standard output and standard error, the exit code,
the file and the command.  The ``file:line`` that a numpy ``RuntimeWarning``
line cites is masked before hashing, so an edit that only moves the line a
warning comes from keeps the hash.  Run it in two checkouts on the same
files and diff the outputs: equal lines are byte-identical runs.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = (
    ("validate",),
    ("einstein-check", "--metric", "g"),
    ("einstein-check", "--metric", "h"),
    ("einstein-check", "--metric", "lorentz"),
    ("normal-form",),
    ("petrov",),
    ("integrate", "--quantity", "ht"),
    ("integrate", "--quantity", "chi"),
    ("integrate", "--quantity", "tau"),
)
# the warnings module prints "<file>:<line>: RuntimeWarning: <message>"
_WARNING_SOURCE = re.compile(rb"^.*:\d+: RuntimeWarning:", re.MULTILINE)


def run_digest(argv: list) -> tuple:
    """The sha256 of one ``curvforms`` run of ``argv`` and its exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "curvforms", *argv], capture_output=True, env=env, check=False)
    digest = hashlib.sha256()
    for part in (str(done.returncode).encode(), done.stdout, _WARNING_SOURCE.sub(b"<source>: RuntimeWarning:", done.stderr)):
        digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest(), done.returncode


def main(paths) -> int:
    if not paths:
        print("usage: python tools/report_bytes.py FILE [FILE ...]", file=sys.stderr)
        return 2
    for path in paths:
        for name, *flags in COMMANDS:
            for fmt in ("json", "text"):
                argv = [name, path, *flags, "--format", fmt]
                digest, code = run_digest(argv)
                print(digest, code, *argv)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
