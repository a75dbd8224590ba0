"""Runs rustc with a `-C metadata` value that does not depend on the checkout path.

`run.py` builds with `RUSTC_WRAPPER=<python3>` and `RUSTC=<this file>`, so
cargo calls `python3 rustc_wrapper.py <rustc arguments>`.

Cargo derives a crate's `-C metadata` from its package id, and for a path
dependency outside the building workspace (all of `..` here) the id holds the
absolute path. The metadata seeds every symbol hash and the order in which
codegen units are linked, so two checkouts of the same source built two
binaries with different code placement, and the same code timed up to 30%
apart between them. This wrapper replaces the value with a hash of the crate
name, its source file relative to the repository root, its crate types and
its `--cfg` flags, which tell the crates of one build apart, and strips the
repository root from the source paths that land in the binary. Two checkouts
then build binaries with the same code placement.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    args = sys.argv[1:]
    rustc = "rustc"
    flags = []
    key = []
    metadata_at = None
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "-C" and i + 1 < len(args) and args[i + 1].startswith("metadata="):
            metadata_at = len(flags) + 1
            flags += [arg, args[i + 1]]
            i += 2
            continue
        if arg in ("--crate-name", "--crate-type", "--cfg") and i + 1 < len(args):
            key += [arg, args[i + 1]]
        elif arg.endswith(".rs") and not arg.startswith("-"):
            key.append(os.path.relpath(os.path.abspath(arg), ROOT))
        flags.append(arg)
        i += 1
    if metadata_at is not None:
        digest = hashlib.sha256("\0".join(key).encode()).hexdigest()[:16]
        flags[metadata_at] = f"metadata={digest}"
        flags.append(f"--remap-path-prefix={ROOT}=.")
    # exec keeps the jobserver descriptors cargo passed down.
    os.execvp(rustc, [rustc] + flags)


if __name__ == "__main__":
    main()
