"""Pre-fault child: allocate and touch N megabytes, then exit (see
``runner.prefault``).  Standard library only, so it starts in ~20 ms."""

import sys

PAGE = 4096

if __name__ == "__main__":
    size = int(sys.argv[1]) << 20
    block = bytearray(size)
    block[::PAGE] = b"\x01" * len(range(0, size, PAGE))
