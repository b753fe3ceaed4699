#!/usr/bin/env bash
# Docs-vs-workspace drift gate.
#
# Every `cargo run ... --bin <name>` command quoted in the prose docs
# must name a binary that actually exists in the workspace, and every
# `cargo run -p <crate> --example <name>` must name a real example.
# Likewise every `cargo bench ... --bench <name>` must name a file under
# a crate's benches/, and a bare `cargo bench` is an error while the
# workspace has no bench target at all. This catches the classic drift
# where a target is renamed or removed and a README/GUIDE command
# silently stops working. Every `results/<file>` path must be a
# git-tracked file (globs allowed) or a .gitignored output, so docs
# cannot point at artifacts nothing writes any more.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md EXPERIMENTS.md DESIGN.md ARCHITECTURE.md ROADMAP.md docs/GUIDE.md)

# The workspace's bin targets are exactly the files under each crate's
# src/bin/ plus the `serve` crate's named [[bin]] (also serve). Examples
# live flat under examples/.
mapfile -t bins < <(find crates/*/src/bin -name '*.rs' -exec basename {} .rs \; | sort -u)
bins+=(serve) # crates/serve [[bin]] name = crate name
mapfile -t examples < <(find examples -maxdepth 1 -name '*.rs' -exec basename {} .rs \; | sort -u)
benches=()
for f in crates/*/benches/*.rs; do
    [[ -e $f ]] && benches+=("$(basename "$f" .rs)")
done

have() {
    local needle=$1
    shift
    local x
    for x in "$@"; do [[ $x == "$needle" ]] && return 0; done
    return 1
}

fail=0
for doc in "${docs[@]}"; do
    [[ -f $doc ]] || { echo "check_docs: missing doc file $doc" >&2; fail=1; continue; }

    # `cargo run ... --bin <name>` (prose or console blocks, any flags).
    while read -r name; do
        if ! have "$name" "${bins[@]}"; then
            echo "check_docs: $doc references missing binary '$name'" >&2
            fail=1
        fi
    done < <(grep -oE 'cargo run[^`)]*--bin [A-Za-z0-9_-]+' "$doc" \
                 | sed -E 's/.*--bin ([A-Za-z0-9_-]+).*/\1/' | sort -u)

    # `cargo run -p <crate> --example <name>`.
    while read -r name; do
        if ! have "$name" "${examples[@]}"; then
            echo "check_docs: $doc references missing example '$name'" >&2
            fail=1
        fi
    done < <(grep -oE 'cargo run[^`)]*--example [A-Za-z0-9_-]+' "$doc" \
                 | sed -E 's/.*--example ([A-Za-z0-9_-]+).*/\1/' | sort -u)

    # `cargo bench ... --bench <name>`, and any `cargo bench` at all when
    # there is nothing for it to run.
    while read -r name; do
        if ! have "$name" "${benches[@]}"; then
            echo "check_docs: $doc references missing bench target '$name'" >&2
            fail=1
        fi
    done < <(grep -oE 'cargo bench[^`)]*--bench [A-Za-z0-9_-]+' "$doc" \
                 | sed -E 's/.*--bench ([A-Za-z0-9_-]+).*/\1/' | sort -u)
    if [[ ${#benches[@]} -eq 0 ]] && grep -q 'cargo bench' "$doc"; then
        echo "check_docs: $doc references 'cargo bench', but no crate has a bench target" >&2
        fail=1
    fi

    # `results/<file>` paths (not URL routes such as `/results/<id>`).
    # ROADMAP.md names the artifacts its open items will add, so it is
    # exempt.
    [[ $doc == ROADMAP.md ]] && continue
    while read -r path; do
        path=${path%/}
        [[ -n $(git ls-files -- "$path") ]] && continue
        git check-ignore -q --no-index "$path" && continue
        git check-ignore -q --no-index "$path/" && continue
        echo "check_docs: $doc references '$path', neither tracked nor gitignored" >&2
        fail=1
    done < <(grep -oE '(^|[^/A-Za-z0-9_])results/[A-Za-z0-9_.*-]+/?' "$doc" \
                 | sed -E 's/^[^r]//' | sort -u)
done

if [[ $fail -ne 0 ]]; then
    echo "check_docs: FAILED — docs reference targets or results the workspace does not build" >&2
    exit 1
fi
echo "check_docs: OK (${#bins[@]} bins, ${#examples[@]} examples, ${#benches[@]} benches, ${#docs[@]} docs)"
