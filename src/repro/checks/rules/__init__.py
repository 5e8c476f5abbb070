"""Rule modules — importing this package registers every rule.

Four domain families, one id range each:

* ``DTY1xx`` — dtype-exactness (:mod:`repro.checks.rules.dtype`)
* ``THR2xx`` — thread-safety (:mod:`repro.checks.rules.threadsafety`)
* ``OBS3xx`` — obs-discipline (:mod:`repro.checks.rules.obs`)
* ``NUM4xx`` — numeric-safety (:mod:`repro.checks.rules.numeric`)
* ``PLN5xx`` — plan/cache discipline (:mod:`repro.checks.rules.plan`)

The ``program`` rules — ``THR210``/``THR211`` lockset and deadlock
analyses, the ``DTY110`` dtype-flow lattice — register where they are
implemented, in :mod:`repro.checks.analysis.lockset` and
:mod:`repro.checks.analysis.dtypeflow`, and run once per scan on the
call graph.

Plus the engine-level meta rule ``SUP001`` (suppression without a
justification), which lives in :mod:`repro.checks.engine` because it is
emitted during comment parsing, before any rule runs.
"""

from repro.checks.analysis import dtypeflow, lockset  # noqa: F401 — registers THR210/THR211/DTY110
from repro.checks.rules import dtype, numeric, obs, plan, threadsafety

__all__ = ["dtype", "threadsafety", "obs", "numeric", "plan"]
