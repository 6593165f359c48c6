"""``python -m depcox``: the ``depcox`` command line."""

import sys

from .cli import main

sys.exit(main())
