"""Set-up probe: import aqgsim, validate the config given as the only
argument, and print time.monotonic() at that moment. run.py starts it in a
fresh interpreter and subtracts the moment it started the process."""

import sys
import time

import aqgsim.cli

aqgsim.cli.load_config(sys.argv[1])
print(repr(time.monotonic()))
