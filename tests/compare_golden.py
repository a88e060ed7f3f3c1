"""Compare a netfunc JSON output with its golden file.

Usage: python tests/compare_golden.py ACTUAL GOLDEN

Everything must be equal except that floats may differ by 1e-9 relative (an
eigensolver's last bits move across numpy and BLAS builds) and `seconds`
fields, which are timings, are ignored.  Prints each difference and exits 1
if there is any.  Needs only the standard library.
"""

import json
import math
import sys

REL = 1e-9


def differences(actual, golden, where="$"):
    """The places where `actual` differs from `golden`, as readable lines."""
    if isinstance(golden, float) or isinstance(actual, float):
        same = (type(actual) is type(golden)
                and math.isclose(actual, golden, rel_tol=REL, abs_tol=0.0))
        return [] if same else [f"{where}: {actual!r} != {golden!r}"]
    if isinstance(golden, dict) and isinstance(actual, dict):
        lines = []
        for key in sorted((actual.keys() | golden.keys()) - {"seconds"}):
            if key in actual and key in golden:
                lines += differences(actual[key], golden[key], f"{where}.{key}")
            else:
                lines.append(f"{where}.{key}: in one file only")
        return lines
    if isinstance(golden, list) and isinstance(actual, list):
        if len(actual) != len(golden):
            return [f"{where}: {len(actual)} items != {len(golden)}"]
        return [line for i, (a, b) in enumerate(zip(actual, golden))
                for line in differences(a, b, f"{where}[{i}]")]
    return [] if (type(actual), actual) == (type(golden), golden) else [
        f"{where}: {actual!r} != {golden!r}"]


def main(argv):
    actual_path, golden_path = argv
    with open(actual_path, encoding="utf-8") as a, open(golden_path, encoding="utf-8") as g:
        lines = differences(json.load(a), json.load(g))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
