# E0206: `taget=` is not a field, so the storm it was meant to aim
# would have hit every job.
plan typo
preemption-storm start=0 duration=5000 kill-probability=0.5 taget=run_cap3
