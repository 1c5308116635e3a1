#!/usr/bin/env python3
"""Per-directory line coverage of src/ from a --coverage build.

Usage: scripts/coverage_summary.py BUILD_DIR [--summary FILE]

Run it after the test suite has run in a build configured with
--coverage. It runs gcov (JSON output, to stdout) on every .gcda file
under BUILD_DIR and merges the line records of each file under src/ across
all objects: a line is executable when any object reports it, and covered
when any object executed it. Headers count once, however many objects
include them. It prints a markdown table with one row per src/
subdirectory and a total, and appends the table to FILE when --summary is
given (CI passes $GITHUB_STEP_SUMMARY). There is no gate: the exit status
is 0 whatever the percentages are.
"""
import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict


def gcov_documents(gcda):
    """The JSON documents gcov prints for one .gcda file."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", os.path.basename(gcda)],
        cwd=os.path.dirname(gcda), capture_output=True, text=True,
        check=True).stdout
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(out) and out[pos].isspace():
            pos += 1
        if pos >= len(out):
            return
        doc, pos = decoder.raw_decode(out, pos)
        yield doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir")
    parser.add_argument("--summary", help="markdown file to append to")
    args = parser.parse_args()

    src = os.path.realpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     "src"))
    # (file, line) -> executed at least once
    lines = {}
    gcdas = [os.path.join(root, name)
             for root, _, names in os.walk(args.build_dir)
             for name in names if name.endswith(".gcda")]
    if not gcdas:
        sys.exit(f"no .gcda files under {args.build_dir}: "
                 "build with --coverage and run the tests first")
    for gcda in gcdas:
        for doc in gcov_documents(gcda):
            cwd = doc.get("current_working_directory", "")
            for f in doc.get("files", []):
                path = os.path.realpath(os.path.join(cwd, f["file"]))
                if not path.startswith(src + os.sep):
                    continue
                for line in f.get("lines", []):
                    key = (path, line["line_number"])
                    lines[key] = lines.get(key, False) or line["count"] > 0

    if not lines:
        sys.exit(f"gcov reported no line of {src}")
    per_dir = defaultdict(lambda: [0, 0])  # directory -> [covered, total]
    for (path, _), covered in lines.items():
        rel = os.path.relpath(path, src)
        directory = rel.split(os.sep)[0] if os.sep in rel else "."
        per_dir[directory][0] += covered
        per_dir[directory][1] += 1

    def row(name, covered, total):
        return f"| {name} | {covered} | {total} | {100.0 * covered / total:.1f}% |"

    table = ["### src/ line coverage", "",
             "| Directory | Covered | Executable | Coverage |",
             "|---|---:|---:|---:|"]
    for directory in sorted(per_dir):
        table.append(row(f"`src/{directory}`", *per_dir[directory]))
    covered = sum(c for c, _ in per_dir.values())
    total = sum(t for _, t in per_dir.values())
    table.append(row("**total**", covered, total))
    text = "\n".join(table) + "\n"
    print(text, end="")
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as out:
            out.write(text)


if __name__ == "__main__":
    main()
