"""Run the command line: ``python -m critspec``."""
from .cli import main

raise SystemExit(main())
