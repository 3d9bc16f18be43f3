"""Home of the two kernel/network storms the stack benchmark times.

:mod:`repro.profile.core` holds ``timer_storm`` and ``ping_storm``;
``benchmarks/stack/workloads.py`` imports them from that path, which is
the only reason this package keeps its name (to be moved in the next
``[benchmark]`` change).  Nothing here profiles: the README's
*Profiling* section gives the stdlib recipe.
"""
