"""`python -m proccat`: the same entry point as the `proccat` command."""
from .cli import entry

if __name__ == "__main__":
    entry()
