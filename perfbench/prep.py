"""Write a workload's seeded input files and report the child environment.

Usage: python3 prep.py REQUEST_JSON

REQUEST_JSON names the work directory, the seed and the inputs to write:
``ruled`` (a count of ``random_ruled_spec`` tables saved through
``catalog.ruled_spec_to_dict``) and ``riemann`` (c_drift, r0, span of a
``riemann_minimal_spec`` saved as a family file).  Prints one JSON object
with the interpreter, numpy and alphasurf locations.  This is input
preparation: none of it is timed.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

import alphasurf
from alphasurf import catalog, ruled


def main():
    with open(sys.argv[1]) as fh:
        req = json.load(fh)
    work = req["workdir"]
    rng = np.random.default_rng(req["seed"])
    for k in range(req.get("ruled", 0)):
        spec = ruled.random_ruled_spec(rng)
        with open(os.path.join(work, f"ruled_{k}.json"), "w") as fh:
            json.dump(catalog.ruled_spec_to_dict(spec), fh)
    if "riemann" in req:
        c_drift, r0, span = req["riemann"]
        fam = catalog.FamilySpec(
            kind="parallel_cyclic",
            params={"spec": catalog.riemann_minimal_spec(c_drift, r0, span)})
        catalog.save_family(fam, os.path.join(work, "riemann.json"))
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "alphasurf_file": alphasurf.__file__,
    }))


if __name__ == "__main__":
    main()
