"""`python -m lenshf`: the `lenshf` command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
