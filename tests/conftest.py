"""Suite-wide hypothesis settings.

A failing property test prints the blob that replays its example
(``@reproduce_failure``), so a failure seen once can be read again. Only
``print_blob`` is set: every test keeps its ``max_examples`` and draws fresh
examples on every run (pass ``--hypothesis-seed`` to repeat a run's draws).
"""

from hypothesis import settings

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
