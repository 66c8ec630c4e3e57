"""Closing the loop: the event simulator against the closed forms.

Three views of the same system. First a validation table, one simulated
cell per row with its confidence interval and a PASS/FAIL verdict
against the closed form. Then a short traced run, printing the raw
event log so the battery and scheduling mechanics are visible. Last,
the trace is replayed through the invariant checker, which re-derives
the battery level from the events alone.
"""

from aoi_erasure import SimConfig, run_simulation, validate

print("validation: simulated mean vs closed form (100k epochs per source)")
print(f"{'q':>5} {'M':>3} {'set':>5} {'gamma':>7} | {'analytic':>9} {'sim':>9} {'ci':>7} verdict")
print("-" * 62)
cells = [
    (0.1, 1, "nofb", 0.0),
    (0.3, 2, "nofb", 0.3),
    (0.3, 2, "wfb", 0.0),
    (0.5, 1, "wfb", 0.9438),
    (0.7, 4, "wfb", 0.0),
]
for q, M, setting, gamma in cells:
    rec = validate(q, M, setting, gamma, n_epochs=100000, seed=7)
    print(
        f"{q:>5.2f} {M:>3d} {setting:>5} {gamma:>7.4f} | {rec.analytic:>9.4f} "
        f"{rec.sim_mean:>9.4f} {rec.sim_ci:>7.4f} {rec.verdict}"
    )

# a tiny traced run; every attempt consumes the stored unit and is
# followed at the same instant by its channel outcome
print("\nfirst 14 events of a traced 2-source feedback run (seed 3):")
cfg = SimConfig(0.4, 2, "wfb", 0.5, target_epochs=5, seed=3, trace=True)
res, epochs, log = run_simulation(cfg)
for line in log.to_lines()[:14]:
    print("  " + line)

# epochs come back as columns: one entry per completed renewal cycle
print("\nepochs (source, length y, attempts):")
for sid, y, att in zip(epochs.source_id.tolist(), epochs.y.tolist(), epochs.attempts.tolist()):
    print(f"  {sid}  {y:7.4f}  {att}")

print(f"\ncounters: arrivals={res.arrivals} overflows={res.overflows} "
      f"attempts={res.attempts} successes={res.successes}")
log.check_invariants()
print("invariant audit passed: battery stayed in {0,1}, every attempt was")
print("energy-feasible and got an immediate outcome, times never decreased")
