"""Check a BENCH_<mode>.json record written by bench/main.exe.

    python3 bench/check_record.py FILE LAYER/WORKLOAD[=N,N,...] ...

Every row's ns_per_pt and bytes_per_pt must be a finite number (the
writer stores a non-finite reading as null). Each LAYER/WORKLOAD
argument names rows that must be present; with =N,N,... their n_harm
values, in file order, must be exactly that list. Exits 1 on the first
failure.
"""

import json
import math
import sys


def main(path, groups):
    record = json.load(open(path))
    for key in ("nproc", "recommended_domain_count", "ocaml_version", "git_rev"):
        if key not in record.get("host", {}):
            sys.exit(f"{path}: host.{key} missing")
    rows = record.get("rows", [])
    for r in rows:
        for key in ("ns_per_pt", "bytes_per_pt"):
            v = r.get(key)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                sys.exit(f"{path}: {r.get('layer')}/{r.get('workload')} n_harm {r.get('n_harm')}: {key} = {v!r}")
    for group in groups:
        name, _, want = group.partition("=")
        layer, _, workload = name.partition("/")
        got = [r.get("n_harm") for r in rows if r.get("layer") == layer and r.get("workload") == workload]
        if not got:
            sys.exit(f"{path}: no {name} rows")
        if want and got != [int(n) for n in want.split(",")]:
            sys.exit(f"{path}: {name} n_harm rows {got}, expected [{want}]")
    print(f"{path}: {len(rows)} rows ok")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2:])
