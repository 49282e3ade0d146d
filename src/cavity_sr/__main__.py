"""Entry point for `python -m cavity_sr`."""

from .cli import main

if __name__ == "__main__":
    main()
