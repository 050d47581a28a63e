"""Print the seconds a fresh interpreter takes to import relpose and run one
4-point and one generalized 5-point solve, then the median milliseconds of
the reference kernel just before (see ``run.py``).  numpy and the inputs are
prepared before the clock starts.  Run by ``run.py``."""

import time

import numpy as np

import run
import scenes

rng = np.random.default_rng(run.PANEL_SEED)
central = scenes.make_scene(rng, 4, run.THETA_DEG["minimal"], False)
generalized = scenes.make_scene(rng, 5, run.THETA_DEG["minimal"], True)
reference = run.Reference()
ref_ms = float(np.median([reference.time_ms() for _ in range(25)]))

start = time.perf_counter()
rp = run.load_relpose()
rp.solve_4pt_angle(run.to_pairs(rp, central, False), central.theta)
rp.solve_gen5pt_angle(run.to_pairs(rp, generalized, True), generalized.theta)
print(time.perf_counter() - start, ref_ms)
