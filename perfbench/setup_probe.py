"""Set-up probe, run in a fresh interpreter by run.py.

Imports pulsectrl from the source tree given as the only argument, answers
the Fig. 4 ``spectrum`` query through ``cli.dispatch``, and prints one JSON
line with the import time, the query time and the answer.
"""

import contextlib
import io
import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pulsectrl import cli  # noqa: E402

imported = time.perf_counter()
captured = io.StringIO()
with contextlib.redirect_stdout(captured):
    code = cli.dispatch(["spectrum", "--u-star", "1", "--f-val", "1",
                         "--f-der", "-3", "--to-log-der", "8"])
answered = time.perf_counter()
doc = json.loads(captured.getvalue())
print(json.dumps({"exit_code": code,
                  "import_s": imported - start,
                  "first_query_ms": 1e3 * (answered - imported),
                  "verdict": doc["verdict"],
                  "eigenvalues": doc["eigenvalues"]}))
