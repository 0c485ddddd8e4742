"""``python -m curvforms``: the ``curvforms`` command line."""

from curvforms.cli import main

raise SystemExit(main())
