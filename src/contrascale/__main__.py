"""``python -m contrascale``: the same command line as the ``contrascale`` script."""

import sys

from .cli import main

sys.exit(main())
