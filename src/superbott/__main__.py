"""``python3 -m superbott``: the same command line as the ``superbott`` script."""

from .cli import main

if __name__ == "__main__":
    main()
