#!/usr/bin/env python3
"""Dead-link check for the repo's markdown docs (lychee-style, offline).

Walks every tracked *.md file, extracts [text](target) links, and fails when
a *relative* target (optionally with a #fragment) does not exist on disk.
External links (http/https/mailto) are skipped — CI must not depend on the
network.

Also checks binaries: every `build/<name>` or `./build/<name>` token in the
tracked *.md files and CI workflows must name a CMake target (the stem of a
tests/, bench/ or examples/ *.cpp file), so a deleted binary cannot linger in
docs or CI. Paths with further components or a file extension are skipped,
and so is CHANGES.md: its history names binaries as they were.
Run from the repository root:

    python3 scripts/check_doc_links.py
"""
import glob
import os
import re
import subprocess
import sys

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
# build/<name> not inside a longer path; group 2 catches a further component.
BINARY = re.compile(r"(?<![\w./-])(?:\./)?build/([\w.-]+)(/?)")


def tracked(*patterns):
    out = subprocess.run(["git", "ls-files", *patterns],
                         capture_output=True, text=True, check=True)
    return sorted(set(p for p in out.stdout.splitlines() if p))


def cmake_targets():
    return {os.path.splitext(os.path.basename(p))[0]
            for d in ("tests", "bench", "examples")
            for p in glob.glob(os.path.join(d, "*.cpp"))}


def unknown_binaries(path, text, targets):
    bad = []
    for name, further in BINARY.findall(text):
        if further or "." in name or name in targets:
            continue
        bad.append(f"{path}: 'build/{name}' is not a CMake target")
    return bad


def main():
    bad = []
    files = tracked("*.md", "**/*.md")
    targets = cmake_targets()
    checked = 0
    for path in sorted(set(files + tracked(".github/workflows/*.yml"))):
        if path == "CHANGES.md":
            continue
        with open(path, encoding="utf-8") as f:
            bad += unknown_binaries(path, f.read(), targets)
    for md in files:
        with open(md, encoding="utf-8") as f:
            text = f.read()
        base = os.path.dirname(md)
        for target in LINK.findall(text):
            if target.startswith(SKIP_PREFIXES):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(os.path.join(base, path))
            if resolved.startswith(".."):
                # Escapes the repo (e.g. the GitHub badge URL
                # ../../actions/...): site-relative, not checkable offline.
                continue
            checked += 1
            if not os.path.exists(resolved):
                bad.append(f"{md}: broken relative link '{target}'")
    for line in bad:
        print(line, file=sys.stderr)
    print(f"checked {checked} relative links across {len(files)} files and "
          f"build/ binaries against {len(targets)} targets: "
          f"{'FAIL' if bad else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
