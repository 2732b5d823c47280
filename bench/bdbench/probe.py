"""Set-up probe: a fresh interpreter imports the CLI and answers one request.

Prints ``answered <exit status>`` on standard output once the answer is
complete; the parent stops its clock on that line.  Imports nothing from
the benchmark, so the measured set-up is the program's own.

    python3 bench/bdbench/probe.py time --lambda 1 --mu n --imax 20
"""

import io
import sys

from birthdeath import cli

captured = io.StringIO()
sys.stdout, real_stdout = captured, sys.stdout
status = cli.main(sys.argv[1:])
sys.stdout = real_stdout
print(f"answered {status}", flush=True)
