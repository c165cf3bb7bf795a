"""`python -m factorkit`: the same command line as the `factorkit` script."""
import sys

from .cli import main

sys.exit(main())
