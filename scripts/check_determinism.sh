#!/usr/bin/env bash
# Determinism gate runner. Each gate in determinism_gates.txt (next to
# this script) names an example binary, the artifacts it must
# reproduce byte for byte at INSITU_THREADS=1 and 4, and the verdicts
# its output must carry, and optionally a committed golden copy an
# artifact must still equal. The check_* determinism ctests each run
# one or more gates through this script.
#
# Usage: check_determinism.sh <examples-dir> <gate>... [-- <extra args>]
#        check_determinism.sh --list
#
# Extra args are appended to every gate's command line, e.g.
#   check_determinism.sh build/examples fleet_scale -- --nodes 1000000
# A golden pins the manifest's own command line, so extra args skip
# the golden comparisons.
set -u

here="$(cd "$(dirname "$0")" && pwd)"
manifest="$here/determinism_gates.txt"

usage() {
    printf 'usage: %s <examples-dir> <gate>... [-- <extra args>]\n' "$0" >&2
    printf '       %s --list\n' "$0" >&2
    exit 2
}

if [ "${1:-}" = --list ]; then
    awk '$1 == "gate" { print $2 }' "$manifest"
    exit 0
fi
{ [ $# -ge 2 ] && [ -d "$1" ]; } || usage
bindir="$(cd "$1" && pwd)"
shift
gates=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do
    gates+=("$1")
    shift
done
[ $# -gt 0 ] && shift
extra=("$@")
[ ${#gates[@]} -gt 0 ] || usage

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

gate=""
fail() {
    printf 'check_determinism: %s FAILED (%s)\n' "$gate" "$*" >&2
    exit 1
}

# load_gate NAME: read the gate's directives into cmd, envs, drop,
# diffs, goldens and checks; fails if the manifest has no such gate.
load_gate() {
    local line key rest in=0 found=0
    cmd=() envs=() drop="" diffs=() goldens=() checks=()
    while IFS= read -r line; do
        read -r key rest <<< "$line"
        case "$key" in
            '' | '#'*) continue ;;
            gate)
                in=0
                if [ "$rest" = "$1" ]; then in=1 found=1; fi
                continue ;;
        esac
        [ "$in" = 1 ] || continue
        case "$key" in
            run) read -r -a cmd <<< "$rest" ;;
            env) envs+=("$rest") ;;
            drop) drop="$rest" ;;
            diff) diffs+=("$rest") ;;
            golden) goldens+=("$rest") ;;
            need | before) checks+=("$key $rest") ;;
            *)
                printf 'check_determinism: unknown directive "%s" in %s\n' \
                    "$key" "$manifest" >&2
                exit 2 ;;
        esac
    done < "$manifest"
    [ "$found" = 1 ] && [ ${#cmd[@]} -gt 0 ]
}

# artifact WIDTH FILE: the path of FILE from the run at WIDTH.
artifact() {
    if [ "$2" = stdout ]; then
        printf '%s/threads%s.out' "$tmp/$gate" "$1"
    else
        printf '%s/run%s/%s' "$tmp/$gate" "$1" "$2"
    fi
}

for gate in "${gates[@]}"; do
    if ! load_gate "$gate"; then
        printf 'check_determinism: unknown gate "%s" (see --list)\n' \
            "$gate" >&2
        exit 2
    fi

    for threads in 1 4; do
        out="$(artifact "$threads" stdout)"
        mkdir -p "$tmp/$gate/run$threads"
        if ! (cd "$tmp/$gate/run$threads" &&
                env INSITU_THREADS="$threads" ${envs[@]+"${envs[@]}"} \
                    "$bindir/${cmd[0]}" "${cmd[@]:1}" \
                    ${extra[@]+"${extra[@]}"}) > "$out.raw" 2>&1; then
            cat "$out.raw" >&2
            fail "exit code at threads=$threads"
        fi
        if [ -n "$drop" ]; then
            grep -Ev -- "$drop" "$out.raw" > "$out"
        else
            mv "$out.raw" "$out"
        fi
    done

    for file in "${diffs[@]}"; do
        a="$(artifact 1 "$file")"
        b="$(artifact 4 "$file")"
        { [ -s "$a" ] && [ -s "$b" ]; } || fail "$file missing or empty"
        diff -u "$a" "$b" >&2 || fail "$file differs across thread counts"
    done

    if [ ${#extra[@]} -eq 0 ]; then
        for pin in ${goldens[@]+"${goldens[@]}"}; do
            read -r file want <<< "$pin"
            cmp -s "$(artifact 1 "$file")" "$here/$want" || {
                diff -u "$here/$want" "$(artifact 1 "$file")" | head -40 >&2
                fail "$file differs from the golden $want"
            }
        done
    fi

    for check in ${checks[@]+"${checks[@]}"}; do
        read -r kind file text <<< "$check"
        path="$(artifact 1 "$file")"
        case "$kind" in
            need)
                grep -aqF -- "$(printf '%b' "$text")" "$path" ||
                    fail "missing \"$text\" in $file" ;;
            before)
                A="${text%% => *}" B="${text#* => }" awk '
                    $0 ~ ENVIRON["A"] { seen = 1 }
                    $0 ~ ENVIRON["B"] && !seen {
                        print "unpreceded: " $0
                        exit 1
                    }' "$path" >&2 ||
                    fail "a line of $file matches /${text#* => }/ before any /${text%% => *}/" ;;
        esac
    done

    printf 'check_determinism: %s OK (%s bit-identical at threads 1 and 4, %d verdicts hold)\n' \
        "$gate" "${diffs[*]}" "${#checks[@]}"
done
