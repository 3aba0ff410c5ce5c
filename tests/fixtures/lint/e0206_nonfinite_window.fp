# E0206: a window that starts nowhere and never ends.
plan forever
slot-blackout start=nan duration=inf first-slot=0 count=8
