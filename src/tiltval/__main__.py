"""The process entry: ``python -m tiltval`` and the installed ``tiltval`` command.

``run`` exits with ``cli.main``'s status, usage errors included, and freezes
the collector (``gc.freeze``) on the way out, so the interpreter's exit-time
full collection skips the heap.  Nothing here needs that collection: files
close in ``with`` blocks, finalization still flushes stdout and stderr, and
no class defines ``__del__``.  ``cli.main`` leaves the collector alone.
"""

import gc
import sys

from .cli import main


def run() -> None:
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
