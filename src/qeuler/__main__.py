import gc
import sys

from .cli import main


def run() -> None:
    """Run the command line, then exit: ``python -m qeuler`` and the ``qeuler`` script."""
    rc = main()
    # Every object lives until exit, where CPython runs full collections over all
    # of them.  Moved to the permanent generation, they are not walked; atexit
    # handlers, the stream flushes and module teardown still run.
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    run()
