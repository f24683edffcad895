"""``python -m schubert``: runs the ``schubert`` command."""
from .cli import main

if __name__ == "__main__":
    main()
