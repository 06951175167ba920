"""`python -m absorder`: the command line, as the `absorder` script runs it."""

import sys

from .cli import main

sys.exit(main())
