"""The set-up every trifold CLI call pays before doing any work: import the
CLI with all its modules, load the spec, run the curvature test and build
the local links.

    python3 probe_setup.py SPEC_FILE

Prints the curvature class so that the caller can check the work was done.
"""

import sys

from trifold.cli import _load_spec, npc_check

spec = _load_spec(sys.argv[1])
verdict = npc_check(spec)
links = spec.local_links()
print(f"{verdict.kind} {len(links)} links")
