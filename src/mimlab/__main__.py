"""`python -m mimlab`: the command line interface of `mimlab.cli`."""

import sys

from .cli import main

sys.exit(main())
