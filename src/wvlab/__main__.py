"""``python -m wvlab <mode> ...`` runs the command line."""

from .cli import run

if __name__ == "__main__":
    run()
