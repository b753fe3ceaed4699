#!/usr/bin/env bash
# Public-item caller gate: every `pub fn` and `pub const` of a library
# crate is reached by some program, or it is a listed test API.
#
# A program is any lib, bin or example target of the workspace, or the
# benchmark harness (perfbench/). Tests and doctests do not count: a
# public function that only its own tests call is dead weight, and the
# gate fails on it.
#
# The analysis runs on a copy of the sources under target/pub-callers/
# (the repository itself is never edited), one library crate at a time:
#   1. every `pub fn` and `pub const` (`pub const fn` included) in the
#      crate's library sources becomes `pub(in crate) fn` or
#      `pub(in crate) const` (crate-private, and a spelling no source
#      uses, so it marks the items that were public);
#   2. `cargo check` builds the workspace's lib, bin and example targets
#      and perfbench. Each privacy error ("method `f` is private", ...)
#      points at the definition it needs; that one definition is made
#      `pub` again, and the build repeats until it succeeds;
#   3. rustc's dead_code warnings then name each formerly public item
#      that no program reaches. Each must be listed in
#      scripts/pub_test_api.txt as `crate::module::Type::name # reason`,
#      or the gate fails. A listed item that the analysis does not flag
#      (deleted, renamed or now called) fails it too, so the list stays
#      exact.
#
# Limits: an item that a `pub use` re-exports counts as called, and the
# re-export's error names no definition, so it restores by name. An item
# generated by a macro is named by the macro's `impl $type` (so
# `msim::units::$name::value`), restored for every expansion at once
# (the definition rustc points at is the macro's line), and flagged only
# when no expansion is called. `pub static`, types and traits are not
# checked.
#
# Usage: scripts/check_pub_callers.sh [crate ...]   (default: every crate)
#
# The copy and its target directory persist, so a rerun on a warm build
# takes roughly 10-20 s per crate on 2 vCPUs.
set -euo pipefail
cd "$(dirname "$0")/.."

exec python3 - "$@" <<'PY'
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

root = Path.cwd()
work = root / "target" / "pub-callers"
copy = work / "src"
target = work / "target"
MARK = "pub(in crate) "
ALLOW = root / "scripts" / "pub_test_api.txt"


def fail(msg):
    print(f"check_pub_callers: {msg}", file=sys.stderr)
    sys.exit(1)


def write_if_changed(path, data):
    # A rewrite gets a fresh mtime, which is what tells cargo to rebuild;
    # identical content keeps its old mtime and its warm build.
    if path.exists() and path.read_bytes() == data:
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return True


def sync_copy():
    keep = set()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "examples", "tests", "perfbench"]:
        base = root / top
        files = [base] if base.is_file() else [p for p in base.rglob("*") if p.is_file()]
        for f in files:
            rel = f.relative_to(root)
            if rel.parts[:2] == ("perfbench", "target"):
                continue
            keep.add(rel)
            write_if_changed(copy / rel, f.read_bytes())
    for f in list(copy.rglob("*")):
        if f.is_file() and f.relative_to(copy) not in keep:
            f.unlink()


def crates():
    out = []
    for manifest in sorted((root / "crates").glob("*/Cargo.toml")):
        d = manifest.parent
        if not (d / "src" / "lib.rs").exists():
            continue
        pkg = re.search(r'(?m)^name\s*=\s*"([^"]+)"', manifest.read_text()).group(1)
        out.append((pkg, pkg.replace("-", "_"), d.relative_to(root)))
    return out


def lib_sources(d):
    src = copy / d / "src"
    return sorted(p for p in src.rglob("*.rs")
                  if "bin" not in p.relative_to(src).parts[:1] and p.name != "main.rs")


def cargo_messages(args):
    env = {"CARGO_TARGET_DIR": str(target), "CARGO_TERM_COLOR": "never"}
    proc = subprocess.run(["cargo", "check", "--offline", "--message-format=json", *args],
                          cwd=copy, env={**os.environ, **env},
                          capture_output=True, text=True)
    msgs = []
    for line in proc.stdout.splitlines():
        try:
            m = json.loads(line)
        except json.JSONDecodeError:
            continue
        if m.get("reason") == "compiler-message":
            msgs.append(m["message"])
    return proc.returncode, msgs, proc.stderr


def build():
    """Checks every program target; returns (errors, warnings)."""
    errors, warnings = [], []
    for args in (["--workspace", "--lib", "--bins", "--examples"],
                 ["--manifest-path", "perfbench/Cargo.toml"]):
        code, msgs, stderr = cargo_messages(args)
        errs = [m for m in msgs if m["level"] == "error"]
        if code != 0 and not errs:
            fail(f"cargo check {' '.join(args)} failed:\n{stderr}")
        errors += errs
        if args[0] == "--workspace":
            warnings += [m for m in msgs if m["level"] == "warning"]
    return errors, warnings


def item_path(lib, d, file, line_no):
    """`crate::module::Type::name` of the item declared at `file:line_no`."""
    lines = file.read_text().splitlines()
    line = lines[line_no - 1]
    name = re.search(r"pub\(in crate\) (?:const )?(?:fn )?(\w+)", line).group(1)
    rel = file.relative_to(copy / d / "src").with_suffix("")
    mods = [p for p in rel.parts if p not in ("lib", "mod")]
    indent = len(line) - len(line.lstrip())
    ty, inner = [], []
    # Each enclosing item is the first significant line above at a lower
    # indent: an `impl` names the type, an inline `mod` a module.
    for prev in reversed(lines[: line_no - 1]):
        stripped = prev.lstrip()
        if (not stripped or len(prev) - len(stripped) >= indent
                or stripped.startswith(("//", "#", "{", "where")) or stripped.endswith(",")):
            continue
        indent = len(prev) - len(stripped)
        if stripped.startswith("impl") and not ty:
            head = stripped[4:]
            if head.startswith("<"):  # skip the impl's own generics
                depth = 0
                for i, ch in enumerate(head):
                    depth += {"<": 1, ">": -1}.get(ch, 0)
                    if depth == 0:
                        head = head[i + 1:]
                        break
            head = head.split(" for ")[-1].strip()
            ty = [re.match(r"[\w$:]*", head).group(0).split("::")[-1]]
        m = re.match(r"(?:pub(?:\([^)]*\))? )?mod (\w+)", stripped)
        if m:
            inner.insert(0, m.group(1))
        if indent == 0:
            break
    mods += inner
    return "::".join([lib, *mods, *ty, name])


def definition_sites(error):
    """`(file, line)` of each definition a privacy error points at: a
    secondary span ("private method defined here") or a note's span
    ("the function `f` is defined here")."""
    spans = [sp for sp in error["spans"] if not sp["is_primary"]]
    for child in error["children"]:
        if "defined here" in child["message"]:
            spans += child["spans"]
    return {((copy / sp["file_name"]).resolve(), sp["line_start"]) for sp in spans}


def analyse(pkg, lib, d):
    sources = lib_sources(d)
    original = {f: f.read_text() for f in sources}
    public = 0
    for f, text in original.items():
        marked, n = re.subn(r"(?m)^(\s*)pub (fn|const) ", r"\1" + MARK + r"\2 ", text)
        public += n
        write_if_changed(f, marked.encode())
    restored = set()
    try:
        while True:
            errors, warnings = build()
            if not errors:
                break
            sites = set()
            for e in errors:
                m = re.search(r"`(\w+)` is (?:private|only public within the crate)", e["message"])
                if not m:
                    fail(f"{pkg}: unexpected error while restoring callers:\n{e['rendered']}")
                found = {site for site in definition_sites(e) if site[0] in original}
                # A `pub use` names no definition: restore by name.
                sites |= found or {(f, n) for f, text in original.items()
                                   for n, line in enumerate(text.split("\n"), 1)
                                   if re.match(rf"\s*pub (?:const )?(?:fn )?{m.group(1)}\b", line)}
            progress = False
            for f, line_no in sorted(sites):
                lines = f.read_text().split("\n")
                line = lines[line_no - 1]
                if MARK in line:
                    lines[line_no - 1] = line.replace(MARK, "pub ", 1)
                    write_if_changed(f, "\n".join(lines).encode())
                    restored.add((f, line_no))
                    progress = True
            if not progress:
                fail(f"{pkg}: cannot restore a definition for:\n"
                     + "\n".join(e["rendered"] for e in errors))
        dead = set()
        # A macro-generated function warns once per dead expansion; it is
        # dead only when every expansion is.
        expansions = {}
        for w in warnings:
            if not w.get("code") or w["code"]["code"] != "dead_code":
                continue
            for span in w["spans"]:
                if not span["is_primary"]:
                    continue
                file = (copy / span["file_name"]).resolve()
                if file not in original:
                    continue
                line = file.read_text().splitlines()[span["line_start"] - 1]
                if MARK not in line:
                    continue
                path = item_path(lib, d, file, span["line_start"])
                if span.get("expansion"):
                    key = (path, span["expansion"]["macro_decl_name"].rstrip("!"))
                    expansions[key] = expansions.get(key, 0) + 1
                else:
                    dead.add(path)
        for (path, macro), hits in expansions.items():
            calls = sum(len(re.findall(rf"(?<!macro_rules! ){macro}!\s*[(\[{{]", t))
                        for t in original.values())
            if hits >= calls:
                dead.add(path)
    finally:
        for f, text in original.items():
            write_if_changed(f, text.encode())
    return public, len(restored), dead


def allowlist():
    listed = {}
    for n, line in enumerate(ALLOW.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        path, sep, reason = line.partition("#")
        if not sep or not reason.strip() or not path.strip():
            fail(f"{ALLOW.name}:{n}: expected `path # reason`, got {line!r}")
        listed[path.strip()] = n
    return listed


def main(wanted):
    all_crates = crates()
    known = {pkg for pkg, _, _ in all_crates} | {lib for _, lib, _ in all_crates}
    for w in wanted:
        if w not in known:
            fail(f"no library crate named {w!r}")
    chosen = [c for c in all_crates if not wanted or c[0] in wanted or c[1] in wanted]
    listed = allowlist()
    sync_copy()
    bad = False
    for pkg, lib, d in chosen:
        t0 = time.monotonic()
        public, restored, dead = analyse(pkg, lib, d)
        mine = {p for p in listed if p.split("::")[0] == lib}
        for p in sorted(dead - mine):
            print(f"check_pub_callers: {p}: public, but no program calls it "
                  f"(delete it, or list it in scripts/{ALLOW.name} with a reason)", file=sys.stderr)
            bad = True
        for p in sorted(mine - dead):
            print(f"check_pub_callers: {ALLOW.name}:{listed[p]}: {p} is listed but not "
                  "flagged (deleted, renamed or now called): drop the line", file=sys.stderr)
            bad = True
        print(f"check_pub_callers: {lib}: {public} pub fns and consts, {restored} called by programs, "
              f"{len(dead)} reached by no program ({time.monotonic() - t0:.1f} s)")
    if bad:
        fail("FAILED")
    print("check_pub_callers: OK")


main(sys.argv[1:])
PY
