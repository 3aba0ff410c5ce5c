# E0206: `nan` is a number to the float parser and compares false
# against every bound, so it walked past the `slowdown >= 1` guard.
plan not-a-slowdown
straggler start=0 duration=1000 slowdown=nan probability=0.5
