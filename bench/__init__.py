"""One benchmark for the plan -> dispatch -> emulate -> control pipeline.

Run from the repository root::

    python3 -m bench run                       # every workload, untraced
    python3 -m bench run --trace 1             # per-layer pass
    python3 -m bench run --workload plan-as1239 --seed 7 --seconds 20
    python3 -m bench compare A.json B.json

See ``bench/README.md`` for the workloads, the metric tables and the
predictions that tie each layer metric to an end-to-end one.
"""
