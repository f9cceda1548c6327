"""Write perfbench/reference.json: the expected outputs of every workload for
every program seed, taken from the code as it stands.

    python3 perfbench/make_reference.py

Run it only at a commit whose results are known to be right (the commit that
defined the benchmark); every later run is compared against its output.
"""

from __future__ import annotations

import json
import shutil
import sys
from types import SimpleNamespace

import run  # pins BLAS threads before numpy loads

import bench_verify


def main() -> int:
    run.import_restorect()
    from restorect import checks, cli
    from restorect import distill_harness as dh

    reference = {"program_seeds": list(run.PROGRAM_SEEDS), "distill": {}, "samplers": {},
                 "selfcheck": {"total": len(checks.CHECKS)}}
    work = run.WORK / "reference"
    for pseed in run.PROGRAM_SEEDS:
        shutil.rmtree(work, ignore_errors=True)
        ctx = SimpleNamespace(pseed=pseed, work=work, dh=dh, cli=cli, reference={})
        for wl_class in (run.Distill, run.Samplers):
            wl = wl_class(ctx)
            wl.prepare()
            if cli.main(wl.argv()) != 0:
                raise SystemExit(f"{wl.name} failed for program seed {pseed}")
            if wl.name == "distill":
                problems, values = bench_verify.distill_outputs(str(wl.out), wl.config, dh)
            else:
                problems, values = bench_verify.sampler_outputs(str(wl.out), run.SAMPLER_STEPS)
            if problems:
                raise SystemExit(f"{wl.name} seed {pseed}: {problems}")
            reference[wl.name][str(pseed)] = values
            print(f"{wl.name} program seed {pseed}: {len(values)} values", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
