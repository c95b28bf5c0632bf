"""The four workloads, by name.

Every workload plans a deployment from its own traffic (``plan_s``,
``nids_objective_ratio``) and then does the work it is named after
(``run_s``).  Sizes are class constants; ``smoke=True`` swaps in the
small set ``bench/test_bench.py`` uses.
"""

from .control import ControlPop
from .emulate import EmulateInline, EmulateStream
from .plan import PlanAS1239

WORKLOADS = {
    cls.name: cls for cls in (EmulateInline, EmulateStream, PlanAS1239, ControlPop)
}
