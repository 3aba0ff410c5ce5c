# E0206: two `start=` on one scenario; neither is the obvious winner.
plan twice
preemption-storm start=0 duration=5000 start=3000 kill-probability=0.5
