import os
import sys

from hypothesis import settings

# Allow running the suite from a fresh checkout without installing.
_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

# A CI run keeps no example database, so there a failure prints the
# ``@reproduce_failure`` blob that replays it. The profile extends the one
# active at import, Hypothesis's own "ci" profile where it loaded one, so it
# changes no example count, deadline or derandomization.
settings.register_profile("ci", print_blob=True)
if "CI" in os.environ:
    settings.load_profile("ci")
