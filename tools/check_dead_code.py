#!/usr/bin/env python3
"""Linker-checked dead-code gate for libuops.

Every function that libuops.a defines must be reached by a non-test
program (an example such as uopsq, a bench_* binary, or perfbench's
uops_perfbench), or be listed in tools/dead_code_allowlist.txt with a
one-line reason.

    check_dead_code.py ROOT_BUILD_DIR PERFBENCH_BUILD_DIR

Both build directories must come from builds at -O0 with
-ffunction-sections -fdata-sections, linked with -Wl,--gc-sections,
the root one configured with -DUOPS_BUILD_TESTS=OFF:

    F="-O0 -ffunction-sections -fdata-sections"
    cmake -S . -B build-dc -DCMAKE_BUILD_TYPE=Debug \\
        -DUOPS_BUILD_TESTS=OFF -DCMAKE_CXX_FLAGS="$F" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake -S perfbench -B build-dc-pb -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="$F" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-dc -j && \\
        cmake --build build-dc-pb -j --target uops_perfbench
    python3 tools/check_dead_code.py build-dc build-dc-pb

With one section per function, the linker keeps exactly the functions
a program can reach from main and its static initializers, and drops
whole call chains that hang off dead code. At -O0 nothing is inlined,
so every call keeps its callee as a symbol.

The checked set is every global text symbol (nm type T) of libuops.a
plus its weak ones (W: inline and template functions emitted out of
line) whose mangled name is in namespace uops. Symbols compare by
demangled signature, so overloads stay distinct while a constructor's
or destructor's ABI variants count as one function. Every program in
ROOT_BUILD_DIR, except *_test binaries, plus uops_perfbench, reaches
what it defines.

Exits non-zero, naming each symbol, when a function is unreached and
not allowlisted, when an allowlist entry is reached or names no
function of the library (so the list cannot rot), when an entry has
no reason, or when the builds are incomplete: without the bench_*
binaries (a root build with UOPS_BUILD_BENCH=OFF) or uops_perfbench,
bench-only code would read as dead. Uses only the Python standard
library and binutils (nm, c++filt, readelf).
"""

import argparse
import os
import subprocess
import sys

ALLOWLIST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "dead_code_allowlist.txt")


def fail(message):
    print("check_dead_code: " + message, file=sys.stderr)
    sys.exit(1)


def nm_defined(path):
    """(mangled name, nm type) of every defined symbol in @p path."""
    out = subprocess.run(
        ["nm", "--defined-only", "--format=posix", path],
        check=True, capture_output=True, text=True).stdout
    symbols = []
    for line in out.splitlines():
        fields = line.split()
        # Archive member headers ("libuops.a[x.o]:") have one field.
        if len(fields) >= 2:
            symbols.append((fields[0], fields[1]))
    return symbols


def demangle(names):
    """Demangled form of each name, in order (one c++filt call)."""
    names = list(names)
    if not names:
        return []
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                         check=True, capture_output=True,
                         text=True).stdout
    demangled = out.splitlines()
    assert len(demangled) == len(names)
    return demangled


def is_elf_executable(path):
    if not (os.path.isfile(path) and os.access(path, os.X_OK)):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def library_functions(lib):
    """Demangled signatures of the functions libuops.a defines."""
    sections = subprocess.run(["readelf", "-S", "-W", lib], check=True,
                              capture_output=True, text=True).stdout
    if ".text._Z" not in sections:
        fail("%s has no per-function sections: build it with "
             "-ffunction-sections" % lib)
    mangled = set()
    for name, kind in nm_defined(lib):
        if kind == "T" or (kind == "W" and
                           name.startswith(("_ZN4uops", "_ZNK4uops"))):
            mangled.add(name)
    return set(demangle(sorted(mangled)))


def reached_functions(programs):
    """Demangled signatures of every symbol the programs define."""
    mangled = set()
    for program in programs:
        mangled.update(name for name, _ in nm_defined(program))
    return set(demangle(sorted(mangled)))


def read_allowlist(path):
    """{signature: reason}; a line is `signature  # reason`."""
    entries = {}
    errors = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            signature, _, reason = line.partition("#")
            signature, reason = signature.strip(), reason.strip()
            where = "%s:%d" % (os.path.basename(path), lineno)
            if not reason:
                errors.append("%s: entry has no reason: %s"
                              % (where, signature))
            elif signature in entries:
                errors.append("%s: duplicate entry: %s"
                              % (where, signature))
            entries[signature] = reason
    return entries, errors


def main():
    parser = argparse.ArgumentParser(
        description="Fail on libuops functions no program reaches.")
    parser.add_argument("root_build",
                        help="root project build directory")
    parser.add_argument("perfbench_build",
                        help="perfbench build directory")
    args = parser.parse_args()

    lib = os.path.join(args.root_build, "libuops.a")
    if not os.path.isfile(lib):
        fail("no libuops.a in %s" % args.root_build)
    programs = sorted(
        os.path.join(args.root_build, name)
        for name in os.listdir(args.root_build)
        if not name.endswith("_test") and
        is_elf_executable(os.path.join(args.root_build, name)))
    if not any(os.path.basename(p).startswith("bench_")
               for p in programs):
        fail("no bench_* program in %s (configured with "
             "UOPS_BUILD_BENCH=OFF?): the check would report bench-only "
             "code as dead" % args.root_build)
    perfbench = os.path.join(args.perfbench_build, "uops_perfbench")
    if not is_elf_executable(perfbench):
        fail("no uops_perfbench in %s" % args.perfbench_build)
    programs.append(perfbench)

    defined = library_functions(lib)
    reached = reached_functions(programs)
    allowlist, errors = read_allowlist(ALLOWLIST)

    unreached = sorted(defined - reached)
    for signature in unreached:
        if signature not in allowlist:
            errors.append("unreached, not allowlisted: " + signature)
    for signature in sorted(allowlist):
        if signature not in defined:
            errors.append("stale allowlist entry, no such function "
                          "in libuops.a: " + signature)
        elif signature in reached:
            errors.append("stale allowlist entry, reached by a "
                          "program: " + signature)

    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print("check_dead_code: %d problem(s). Delete a function no "
              "program reaches, or allowlist it in %s with a reason."
              % (len(errors), os.path.relpath(ALLOWLIST)),
              file=sys.stderr)
        return 1
    print("check_dead_code: %d functions in libuops.a; %d programs "
          "reach all but the %d allowlisted"
          % (len(defined), len(programs), len(unreached)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
