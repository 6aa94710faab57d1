"""``python -m ordercdf``: the ``ordercdf`` command without installing it."""
from .cli import entry

if __name__ == "__main__":
    entry()
