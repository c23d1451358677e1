"""Time one fresh-process set-up: python3 perfbench/setup_probe.py <workload>

Prints the seconds from before ringcf (and numpy) is imported until the
workload's set-up is built, rescaled by the calibration kernel measured
afterwards in the same process. run.py starts it with BLAS already pinned
to one thread in the environment.
"""
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(workload):
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload]().setup()
    elapsed = time.perf_counter() - t0
    import calibration
    cal = statistics.median(calibration.measure() for _ in range(5))
    print(repr(elapsed * calibration.REFERENCE_S / cal))


if __name__ == "__main__":
    main(sys.argv[1])
