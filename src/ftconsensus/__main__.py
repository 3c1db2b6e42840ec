"""``python -m ftconsensus``: the same command as the ``ftconsensus`` console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
