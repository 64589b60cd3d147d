"""Write reference.json: each workload's errors and orders at DEFAULT_SEED.

    python3 perfbench/make_reference.py

Studies run in the benchmark's environment. One that fails there is run
again with one BLAS thread: with two, BiCGStab breaks down on the fourth
cr level, and the reference should hold the full table the study is
meant to produce. Each entry records the thread count it was made with.
"""

import json
import os
import platform

import run
import workloads


def main():
    env, threads = run.child_env()
    one_thread = dict(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    doc = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        spec = {"config": workloads.study_config(name)}
        res = run.run_child(spec, env, run.RUN_LIMIT_S)
        used = threads
        if res["error"] is not None:
            print(f"{name}: {res['error']}; again with one BLAS thread")
            res = run.run_child(spec, one_thread, run.RUN_LIMIT_S)
            used = 1
            if res["error"] is not None:
                raise SystemExit(f"{name}: {res['error']}")
        doc["workloads"][name] = {"config": spec["config"],
                                  "blas_threads": used,
                                  "orders": res["orders"],
                                  "records": res["records"]}
    probe = run.run_child(dict(spec, setup_only=True), env, 60.0)
    doc["environment"] = {"python": platform.python_version(),
                          "numpy": probe["numpy"], "scipy": probe["scipy"],
                          "nproc": os.cpu_count()}
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
