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
# cannot point at artifacts nothing writes any more. Every
# `crate::module::...` path into a workspace crate must resolve: each
# segment names a `pub mod` of the module before it, down to the first
# one that is not a module, which must be an item declared (or `pub
# use`d) in that module, so a doc cannot name a module that was deleted
# or renamed. Every backticked `Type::member` (optionally called, as in
# `Type::member(1)`) must name a struct, enum or trait declared in a
# workspace crate and a fn or const declared in that crate, or a variant
# of that enum (a `pub type` alias counts as the type it names), so a
# doc cannot name a method or constant that is gone.
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

# Library crates by the name code uses, and their source roots.
declare -A crate_root=(
    [rt]=crates/rt/src/lib.rs [msim]=crates/msim/src/lib.rs
    [link]=crates/link/src/lib.rs [dft]=crates/core/src/lib.rs
    [dsim]=crates/dsim/src/lib.rs [conform]=crates/conform/src/lib.rs
    [serve]=crates/serve/src/lib.rs [bench]=crates/bench/src/lib.rs
)

# resolve_path <crate::a::b::...>: succeeds if the path names a real
# module chain ending in a module or in an item of the last module.
resolve_path() {
    local -a seg
    IFS=: read -ra seg <<<"${1//::/:}"
    local file=${crate_root[${seg[0]}]} name dir i
    for ((i = 1; i < ${#seg[@]}; i++)); do
        name=${seg[i]}
        if grep -qE "^[[:space:]]*pub mod $name[[:space:]]*\{" "$file"; then
            return 0 # an inline module: its body is not walked
        elif grep -qE "^[[:space:]]*pub mod $name;" "$file"; then
            case $file in
                */lib.rs | */mod.rs) dir=$(dirname "$file") ;;
                *) dir=${file%.rs} ;;
            esac
            if [[ -f $dir/$name.rs ]]; then
                file=$dir/$name.rs
            else
                file=$dir/$name/mod.rs
            fi
        else
            # Not a module: an item declared or re-exported here.
            grep -qE "\b(fn|struct|enum|trait|const|static|type|union|macro_rules!)[[:space:]]+$name\b" "$file" \
                && return 0
            tr '\n' ' ' <"$file" | grep -oE 'pub use [^;]*;' | grep -qw "$name"
            return
        fi
    done
}

# resolve_member <Type> <member>: succeeds if some library crate
# declares `Type` as a struct, enum, trait or `pub type` alias and
# declares `member` as a fn or const, or as a variant of the enum `Type`.
resolve_member() {
    local ty=$1 member=$2 src
    for src in crates/*/src; do
        grep -rqE "\b(struct|enum|trait|pub type)[[:space:]]+$ty\b" "$src" || continue
        grep -rqE "\b(fn|const)[[:space:]]+$member\b" "$src" && return 0
        # Enum variants: lines of the enum body up to its closing brace.
        find "$src" -name '*.rs' -exec awk -v ty="$ty" -v m="$member" '
            $0 ~ "enum[[:space:]]+" ty "[[:space:]<{]" { inside = 1; next }
            inside && /^[[:space:]]*}[[:space:]]*$/ { inside = 0 }
            inside && $0 ~ "^[[:space:]]+" m "[[:space:]]*([,({]|$)" { found = 1 }
            END { exit !found }' {} \; -print | grep -q . && return 0
    done
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

    # `crate::module` paths into the workspace's library crates.
    while read -r path; do
        if ! resolve_path "$path"; then
            echo "check_docs: $doc references '$path', which names no module or item" >&2
            fail=1
        fi
    done < <(grep -oE "(^|[^A-Za-z0-9_:])($(IFS='|'; echo "${!crate_root[*]}"))::[A-Za-z0-9_]+(::[A-Za-z0-9_]+)*" "$doc" \
                 | sed -E 's/^[^a-z]//' | sort -u)

    # `Type::member` references (whole backtick spans, or calls).
    while read -r ref; do
        if ! resolve_member "${ref%%::*}" "${ref##*::}"; then
            echo "check_docs: $doc references '$ref', which names no declared type member" >&2
            fail=1
        fi
    done < <(grep -oE '`[A-Z][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*[`(]' "$doc" \
                 | sed -E 's/^`//; s/[`(]$//' | sort -u)

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
