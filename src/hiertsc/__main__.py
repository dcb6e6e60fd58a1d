"""``python -m hiertsc``: the command-line interface."""

import sys

from . import cli

sys.exit(cli.main())
