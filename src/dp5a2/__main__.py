"""python -m dp5a2: the command-line front end of dp5a2.cli."""

from .cli import entry

__all__: list[str] = []

if __name__ == "__main__":
    entry()
