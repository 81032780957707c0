"""``python -m envcausal``: the same command line as the ``envcausal`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
