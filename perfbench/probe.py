"""Machine speed probe, run by ``run.py`` in a fresh interpreter.

    python3 probe.py

Imports the program's heavy dependencies, prints the monotonic time at which
the imports finished, then runs a fixed pure-Python loop of numpy scalar
draws, the kind of work the pure-Python engines do. It imports nothing from
``mcbounds``, so no change to the program moves it; it moves only with the
speed of the machine.
"""

import math
import time

import numpy
import scipy.integrate  # noqa: F401  (start-up cost of the program's imports)

DRAWS = 300_000


def main() -> None:
    print(time.monotonic(), flush=True)
    draw = numpy.random.random
    total, table = 0.0, {}
    for i in range(DRAWS):
        u = draw()
        total += math.sqrt(-2.0 * math.log(1.0 - u)) * math.cos(2.0 * math.pi * u)
        table[i & 255] = total


if __name__ == "__main__":
    main()
