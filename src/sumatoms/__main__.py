"""Run the command-line interface: ``python -m sumatoms``."""

from .cli import main

raise SystemExit(main())
