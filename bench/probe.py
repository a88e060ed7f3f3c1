"""Set-up probe, run in a fresh process: import netfunc.cli, then build the
workload's inputs through public functions without evaluating a functional.

Usage: python3 bench/probe.py INPUTS_JSON OUT_JSON   (PYTHONPATH=src)
"""

import json
import sys
import time


def main(inputs, out_path):
    start = time.perf_counter()
    import netfunc.cli  # noqa: F401  (the import the CLI pays on every run)
    from netfunc import continuum
    from netfunc.generators import ModelSpec, build_model
    from netfunc.graph import read_edge_list
    imported = time.perf_counter()
    if "edge_list" in inputs:
        read_edge_list(inputs["edge_list"])
    for kind, params, seed in inputs.get("specs", ()):
        build_model(ModelSpec(kind, params, seed))
    for name in inputs.get("spaces", ()):
        continuum.SPACES[name]()
    with open(out_path, "w") as fh:
        json.dump({"import_s": imported - start}, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]), sys.argv[2])
