"""``python -m padicdyn``: the same command line as the ``padicdyn`` script."""

from .cli import main

if __name__ == "__main__":
    main()
