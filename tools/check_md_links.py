#!/usr/bin/env python3
"""Checks that intra-repo markdown links and doc citations resolve.

Scans every .md file for inline links/images (``[text](target)``)
and verifies that relative targets exist on disk. External links
(http/https/mailto), pure #fragment anchors, and links that resolve
outside the repository root (e.g. the CI badge's ``../../actions/...``
github.com path) are skipped — only what can rot silently inside the
repo is checked.

Also scans every git-tracked .h/.cc/.py/CMakeLists.txt file (every
such file outside build/ when the tree is not a git checkout) for the
``*.md`` names its comments cite (``see docs/FORMATS.md``): each must
exist relative to the citing file's directory or the repo root.

And in README.md and docs/*.md, every repo path named in an inline code
span (``core/bound.h``, ``tools/lint/lint.{h,cc}``; a directory part
and one of the suffixes .h/.cc/.py/.json/.cmake/.md, not absolute)
must exist at the repo root, under src/ or src/api/, or next to the
doc, so a doc cannot keep naming a file that was deleted or moved.

Usage: tools/check_md_links.py [repo_root]
Exits 1 listing every dangling link and citation.
"""

import os
import re
import subprocess
import sys

# Inline links and images: [text](target) / ![alt](target). Nested
# image-in-link ("[![CI](badge)](url)") yields both targets because
# the regex matches each "](...)" pair.
LINK_RE = re.compile(r"\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
SKIP_DIRS = {"build", ".git", ".github"}
# Ingested reference corpus, not maintained documentation: extraction
# artifacts in these files (e.g. figure references of the retrieved
# paper texts) are expected and not ours to fix.
SKIP_FILES = {"PAPER.md", "PAPERS.md", "SNIPPETS.md"}

# A cited document name: a path-like token ending in .md, not part of
# a longer token or a URL.
CITE_RE = re.compile(r"(?<![\w./:-])(\w[\w./-]*\.md)\b")
CODE_SUFFIXES = (".h", ".cc", ".py")
# Files whose .md tokens are not citations: this checker's own pattern
# strings, and the extractor's usage placeholder.
SKIP_CITATIONS = {
    "tools/check_md_links.py": None,  # every token
    "tools/extract_md_snippets.py": {"doc.md"},
}


# An inline code span on one line, and a relative repo path inside it
# whose name ends in one of PATH_SUFFIXES or a {a,b} set of them.
SPAN_RE = re.compile(r"`([^`\n]+)`")
PATH_SUFFIXES = r"(?:h|cc|py|json|cmake|md)"
PATH_RE = re.compile(
    r"(?<![\w./:{-])((?:[\w.-]+/)+[\w.-]+)\."
    r"(\{" + PATH_SUFFIXES + r"(?:," + PATH_SUFFIXES + r")*\}|"
    + PATH_SUFFIXES + r")(?!\w)")
# Where a path named in a doc may live, besides next to the doc.
PATH_BASES = ("", "src", os.path.join("src", "api"))


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md") and name not in SKIP_FILES:
                yield os.path.join(dirpath, name)


def source_files(root):
    """The git-tracked files under `root`; every file outside SKIP_DIRS
    and hidden directories when `root` is not a git checkout (an
    exported source tree)."""
    listed = subprocess.run(["git", "ls-files"], cwd=root,
                            capture_output=True, text=True)
    if listed.returncode == 0:
        return listed.stdout.splitlines()
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in SKIP_DIRS and not d.startswith(".")]
        files += [os.path.relpath(os.path.join(dirpath, name), root)
                  for name in filenames]
    return sorted(files)


def check_citations(root, dangling):
    """Appends one message per cited .md name that does not resolve to
    `dangling`; returns how many citations were checked."""
    tracked = source_files(root)
    checked = 0
    for rel in tracked:
        name = os.path.basename(rel)
        if not (name.endswith(CODE_SUFFIXES) or name == "CMakeLists.txt"):
            continue
        skip = SKIP_CITATIONS.get(rel, set())
        if skip is None:
            continue
        text = open(os.path.join(root, rel), encoding="utf-8").read()
        for lineno, line in enumerate(text.splitlines(), 1):
            for cited in CITE_RE.findall(line):
                if cited in skip:
                    continue
                checked += 1
                here = os.path.join(root, os.path.dirname(rel), cited)
                if not (os.path.exists(here) or
                        os.path.exists(os.path.join(root, cited))):
                    dangling.append(
                        f"{rel}:{lineno}: cites {cited}, found neither "
                        f"next to the file nor at the repo root")
    return checked


def check_paths(root, dangling):
    """Appends one message per repo path named in a code span of
    README.md or docs/*.md that does not resolve to `dangling`;
    returns how many paths were checked."""
    docs = ["README.md"]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        docs += sorted(os.path.join("docs", name)
                       for name in os.listdir(docs_dir)
                       if name.endswith(".md"))
    checked = 0
    for rel in docs:
        doc = os.path.join(root, rel)
        if not os.path.exists(doc):
            continue
        text = open(doc, encoding="utf-8").read()
        # Fenced blocks are blanked line for line to keep line numbers.
        text = re.sub(r"```.*?```", lambda m: "\n" * m.group(0).count("\n"),
                      text, flags=re.DOTALL)
        bases = [os.path.join(root, b) for b in PATH_BASES]
        bases.append(os.path.dirname(doc))
        for lineno, line in enumerate(text.splitlines(), 1):
            for span in SPAN_RE.findall(line):
                for stem, suffix in PATH_RE.findall(span):
                    for ext in suffix.strip("{}").split(","):
                        path = f"{stem}.{ext}"
                        checked += 1
                        if not any(os.path.exists(os.path.join(b, path))
                                   for b in bases):
                            dangling.append(
                                f"{rel}:{lineno}: names {path}, found "
                                f"neither at the repo root, under src/ "
                                f"or src/api/, nor next to the doc")
    return checked


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    dangling = []
    checked = 0
    for md in sorted(markdown_files(root)):
        text = open(md, encoding="utf-8").read()
        # Links inside fenced code blocks are code, not links.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for target in LINK_RE.findall(text):
            if target.startswith(SKIP_PREFIXES):
                continue
            path = os.path.normpath(
                os.path.join(os.path.dirname(md),
                             target.split("#", 1)[0]))
            if not path.startswith(root + os.sep):
                continue  # escapes the repo (site-relative URL)
            checked += 1
            if not os.path.exists(path):
                dangling.append(
                    f"{os.path.relpath(md, root)}: ({target}) -> "
                    f"{os.path.relpath(path, root)} does not exist")
    cited = check_citations(root, dangling)
    paths = check_paths(root, dangling)
    if dangling:
        print("dangling intra-repo markdown links, doc citations and "
              "doc paths:")
        for line in dangling:
            print(f"  {line}")
        return 1
    print(f"check_md_links: {checked} intra-repo links, {cited} doc "
          f"citations and {paths} doc paths OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
