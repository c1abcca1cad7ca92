"""Bad fixture for BATCH004 (path mirrors repro/sim/).

A second driver that advances the sender's state itself instead of
calling the one tapped scan.  Never imported.
"""


def scan(sender, rows):
    state = sender.fast_scan_state_classes()    # BATCH004
    sender.fast_scan_commit_classes(*state)     # BATCH004
    return sender.on_regular(rows, 0.0)         # ok: the object path
