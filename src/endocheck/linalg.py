"""Holds nothing. The rank rule is ``data.RANK_TOL`` and ``data.rank_checks``. The module
stays importable only because perfbench's tracer imports each layer it names, this one
included."""
