"""Record the twin-beam u0 columns of the scans workload, which have no
independent route, as the gate's reference values.

Run from the repository root at the commit whose values are the
reference:
    python3 perfbench/make_reference.py
"""
import json
from pathlib import Path

import gate
import workloads

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    workloads.import_holonoise(ROOT)
    work = workloads.Workload("scans", seed=0)
    outputs = work.run_pass()
    reference = {}
    for name, argv in work.argvs.items():
        if argv[0] != "uncertainty-scan":
            continue
        variable = argv[argv.index("--variable") + 1]
        reference[name] = {
            repr(float(row[variable])): [float(row["u0_twb"]), float(row["u0_twb_sum"])]
            for row in gate.parse_csv(outputs[name]["stdout"])
        }
    gate.REFERENCE.parent.mkdir(exist_ok=True)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {sum(map(len, reference.values()))} rows to {gate.REFERENCE}")


if __name__ == "__main__":
    main()
