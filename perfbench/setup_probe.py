"""Time one set-up in this fresh interpreter and print its seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py starts this to measure set-up more than once per run: importing the
package, building the CLI parser, making the inputs and the first op.
"""
import sys

import run

if __name__ == "__main__":
    run.prepare()
    _, seconds = run.setup(sys.argv[1], int(sys.argv[2]))
    print(repr(seconds))
