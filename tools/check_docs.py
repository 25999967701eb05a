#!/usr/bin/env python3
"""Check that the repo's markdown docs stay in sync with the tree.

Three classes of drift, all of which have bitten hard-coded docs before:

1. Broken relative links: every `[text](path)` in the checked markdown
   files must point at an existing file or directory (external http(s)
   links are skipped). A `#anchor` — alone or as `file.md#anchor` — must
   match the GitHub slug of a heading in that markdown file.
2. Doc/test-name drift: every `ctest -R <name>` / `ctest -L <label>`
   selector quoted in the docs must still match a registered test name /
   label. Pass --ctest-list / --ctest-labels with the output of
   `ctest -N` and `ctest --print-labels` (run from the build dir) to
   enable this check; without them only links are checked.
3. Doc/CLI-flag drift: every `--flag` the docs attribute to knnpc_run —
   a flag on a quoted `knnpc_run ...` command line (including backslash
   continuations) or a backticked `--flag` in a markdown table whose
   header row contains "Flag" — must exist in `knnpc_run --help`. Pass
   --cli-help with the captured help output to enable this check.

Usage (CI docs job):
    ctest --test-dir build -N > /tmp/ctest_n.txt
    ctest --test-dir build --print-labels > /tmp/ctest_labels.txt
    build/tools/knnpc_run --help > /tmp/knnpc_run_help.txt
    tools/check_docs.py README.md ARCHITECTURE.md \
        --ctest-list /tmp/ctest_n.txt --ctest-labels /tmp/ctest_labels.txt \
        --cli-help /tmp/knnpc_run_help.txt

Only the standard library is used. Exit code 0 = docs in sync.
"""

import argparse
import pathlib
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CTEST_R_RE = re.compile(r"ctest[^|\n`]*?-R\s+(\S+)")
CTEST_L_RE = re.compile(r"ctest[^|\n`]*?-L(?:E)?\s+(\S+)")
TEST_LINE_RE = re.compile(r"Test\s+#\d+:\s+(\S+)")
FLAG_RE = re.compile(r"--([A-Za-z0-9][A-Za-z0-9-]*)")
BACKTICK_FLAG_RE = re.compile(r"`--([A-Za-z0-9][A-Za-z0-9-]*)")
HELP_FLAG_RE = re.compile(r"^\s+--([A-Za-z0-9][A-Za-z0-9-]*)", re.MULTILINE)
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")


def heading_slugs(doc: pathlib.Path) -> set:
    """GitHub's anchor for every heading outside fenced code blocks:
    lowercase, punctuation other than `-` and `_` dropped, spaces turned
    into `-`; a repeated slug gets a `-1`, `-2`, ... suffix."""
    slugs, seen = set(), {}
    in_fence = False
    for line in doc.read_text().splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        match = None if in_fence else HEADING_RE.match(line)
        if not match:
            continue
        slug = re.sub(r"[^\w\- ]", "", match.group(1).lower()).replace(" ", "-")
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        slugs.add(slug if count == 0 else f"{slug}-{count}")
    return slugs


def check_links(doc: pathlib.Path, errors: list) -> None:
    root = doc.parent
    for lineno, line in enumerate(doc.read_text().splitlines(), 1):
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path, _, anchor = target.partition("#")
            file = root / path if path else doc
            if not file.exists():
                errors.append(f"{doc}:{lineno}: broken link -> {target}")
            elif (anchor and file.suffix == ".md"
                  and anchor not in heading_slugs(file)):
                errors.append(f"{doc}:{lineno}: no heading for anchor "
                              f"-> {target}")


def collect_cli_flags(doc: pathlib.Path):
    """Yields (lineno, flag) for every flag the doc attributes to knnpc_run.

    Two sources:
    - command lines mentioning `knnpc_run` inside fenced code blocks,
      plus their backslash continuation lines (the quickstart blocks);
      prose that merely *talks about* knnpc_run is not a command line;
    - backticked `--flag` tokens in rows of markdown tables whose header
      row contains the word "Flag" (the flag-reference tables).
    """
    lines = doc.read_text().splitlines()
    in_fence = False
    in_command = False
    in_flag_table = False
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            in_command = False
            continue
        if in_fence:
            if "knnpc_run" in line or in_command:
                for flag in FLAG_RE.findall(line):
                    yield lineno, flag
                in_command = stripped.endswith("\\")
            continue
        if stripped.startswith("|"):
            if "flag" in stripped.lower() and not in_flag_table:
                in_flag_table = True
            elif in_flag_table and not set(stripped) <= set("|-: "):
                for flag in BACKTICK_FLAG_RE.findall(line):
                    yield lineno, flag
        else:
            in_flag_table = False


def collect_selectors(docs) -> tuple:
    regexes, labels = [], []
    for doc in docs:
        text = doc.read_text()
        for match in CTEST_R_RE.findall(text):
            regexes.append((doc, match.strip("`'\",.)")))
        for match in CTEST_L_RE.findall(text):
            labels.append((doc, match.strip("`'\",.)")))
    return regexes, labels


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("docs", nargs="+", help="markdown files to check")
    parser.add_argument("--ctest-list",
                        help="output of `ctest -N` (enables -R checking)")
    parser.add_argument("--ctest-labels",
                        help="output of `ctest --print-labels` "
                             "(enables -L checking)")
    parser.add_argument("--cli-help",
                        help="output of `knnpc_run --help` (enables "
                             "CLI-flag checking)")
    args = parser.parse_args()

    errors = []
    docs = [pathlib.Path(d) for d in args.docs]
    for doc in docs:
        if not doc.exists():
            errors.append(f"{doc}: file not found")
    docs = [d for d in docs if d.exists()]

    for doc in docs:
        check_links(doc, errors)

    regexes, labels = collect_selectors(docs)
    if args.ctest_list:
        names = TEST_LINE_RE.findall(
            pathlib.Path(args.ctest_list).read_text())
        if not names:
            errors.append(f"{args.ctest_list}: no tests found in ctest -N "
                          "output (wrong file?)")
        for doc, regex in regexes:
            try:
                pattern = re.compile(regex)
            except re.error:
                errors.append(f"{doc}: invalid ctest -R regex '{regex}'")
                continue
            if not any(pattern.search(name) for name in names):
                errors.append(
                    f"{doc}: `ctest -R {regex}` matches no registered test "
                    f"({len(names)} known)")
    if args.ctest_labels:
        # `ctest --print-labels` output: a "Test project" header, an
        # "All Labels:" line, then one indented label per line.
        known = {
            line.strip()
            for line in pathlib.Path(args.ctest_labels).read_text()
                .splitlines()
            if line.startswith((" ", "\t")) and line.strip()
        }
        for doc, label in labels:
            if label not in known:
                errors.append(
                    f"{doc}: `ctest -L {label}` names unknown label "
                    f"(known: {sorted(known)})")

    flags_checked = 0
    if args.cli_help:
        known_flags = set(
            HELP_FLAG_RE.findall(pathlib.Path(args.cli_help).read_text()))
        if not known_flags:
            errors.append(f"{args.cli_help}: no flags found in --help "
                          "output (wrong file?)")
        known_flags.add("help")  # the help printer never lists itself
        for doc in docs:
            for lineno, flag in collect_cli_flags(doc):
                flags_checked += 1
                if flag not in known_flags:
                    errors.append(
                        f"{doc}:{lineno}: `--{flag}` is not a knnpc_run "
                        "flag (see --help)")

    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        checked = ", ".join(str(d) for d in docs)
        print(f"docs in sync: {checked} "
              f"({len(regexes)} -R and {len(labels)} -L selectors, "
              f"{flags_checked} CLI flags checked)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
