"""Command-line tools for working with traces outside the experiment harness.

* ``python -m repro.tools.render`` — render a workload animation to a
  ``.stream`` trace directory.
* ``python -m repro.tools.trace_info`` — summarize or verify a trace
  (frames, reads, working sets, locality, per-frame integrity).
* ``python -m repro.tools.simulate`` — replay a trace through a chosen
  cache configuration and print the transaction/bandwidth report.

Together they support the workflow the paper's authors used: trace once
with the instrumented renderer, then sweep cache designs over the trace.
"""
