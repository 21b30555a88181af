#!/usr/bin/env bash
# Docs hygiene checker, run as a ctest (`check_docs`).
#
# 1. Every intra-repo markdown link in the top-level docs, docs/ and
#    results/ must resolve to an existing file.
# 2. Every bench binary (bench/bench_*.cc) and every determinism gate
#    (scripts/determinism_gates.txt) must be documented in
#    docs/performance.md.
# 3. docs/observability.md must document every instrumented metric
#    namespace, so new instrumentation can't land undocumented.
# 4. docs/serving.md and docs/robustness.md keep their load-bearing
#    sections.
# 6. Every backticked `Type::member` in the top-level docs (CHANGES.md,
#    the history, excepted) and docs/ names a member that still
#    appears, outside comments, in the src/ header declaring Type or
#    in its .cc.
# 7. Every backticked repo path (src/, bench/, examples/, scripts/,
#    tests/, perfbench/, results/, docs/) in README, DESIGN,
#    EXPERIMENTS and docs/ exists. `{a,b}` lists expand, globs are
#    skipped, and a bare example or bench name may resolve as .cpp or
#    .cc. ROADMAP and CHANGES narrate history and are exempt.
# 8. Every backticked `Suite.TestName` in README, DESIGN, EXPERIMENTS,
#    docs/ and results/ names a TEST, TEST_F or TEST_P in tests/.
#    ROADMAP and CHANGES are exempt, as in rule 7.
# 9. Every bench (bench/bench_*.cc) that calls verdict( is gated by
#    the paper_<stem> loop in tests/CMakeLists.txt, or is on the
#    not-yet-gated list below with the ROADMAP item that will gate
#    it. A listed stem that is also gated, or that no longer calls
#    verdict(, fails too, so the list can only shrink.
# 10. Every backticked CamelCase type ending in Config, Policy, Spec or
#    Plan in README, DESIGN, EXPERIMENTS and docs/ names a struct or
#    class declared under src/ or perfbench/src/, so a config type
#    that became constants cannot live on in the docs. ROADMAP and
#    CHANGES are exempt, as in rule 7.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
fail=0

note() { printf '%s\n' "$*" >&2; }

# --- 1. intra-repo link targets exist ------------------------------
docs=()
for f in "$root"/*.md "$root"/docs/*.md "$root"/results/*.md; do
    [ -f "$f" ] || continue
    # SNIPPETS.md quotes markdown from external repos verbatim; its
    # links point into those repos, not this one.
    [ "$(basename "$f")" = SNIPPETS.md ] && continue
    docs+=("$f")
done

checked=0
for doc in ${docs[@]+"${docs[@]}"}; do  # empty-safe under set -u on bash 3.2
    dir="$(dirname "$doc")"
    # Pull the (...) target of every markdown link. One link per line;
    # tolerates several links on a source line.
    while IFS= read -r target; do
        [ -n "$target" ] || continue
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path="${target%%#*}"       # strip fragment
        [ -n "$path" ] || continue
        case "$path" in
            /*) resolved="$root$path" ;;
            *)  resolved="$dir/$path" ;;
        esac
        checked=$((checked + 1))
        if [ ! -e "$resolved" ]; then
            note "broken link in ${doc#"$root"/}: ($target)"
            fail=1
        fi
    done < <(grep -o ']([^)]*)' "$doc" | sed 's/^](//; s/)$//')
done

# --- 2. every bench binary appears in docs/performance.md ----------
perf="$root/docs/performance.md"
if [ ! -f "$perf" ]; then
    note "missing docs/performance.md"
    fail=1
else
    for src in "$root"/bench/bench_*.cc; do
        name="$(basename "$src" .cc)"
        if ! grep -q "$name" "$perf"; then
            note "bench binary $name not mentioned in docs/performance.md"
            fail=1
        fi
    done
    # The kernel-tuning knobs must stay documented alongside the
    # benches that exercise them, and the fleet-scale gates alongside
    # the sweep they guard.
    for needle in 'INSITU_GEMM' 'check_perf' 'check_fleet_scale' \
            'check_determinism'; do
        if ! grep -qF "$needle" "$perf"; then
            note "docs/performance.md does not mention $needle"
            fail=1
        fi
    done
    # Every gate in the determinism manifest is listed in the gate
    # table, so a gate cannot land unexplained.
    for gate in $("$root/scripts/check_determinism.sh" --list); do
        if ! grep -qF "\`$gate\`" "$perf"; then
            note "determinism gate $gate not listed in docs/performance.md"
            fail=1
        fi
    done
    # ...and so is every committed golden a gate compares against.
    for golden in $(awk '$1 == "golden" { print $3 }' \
            "$root/scripts/determinism_gates.txt"); do
        if ! grep -qF "scripts/$golden" "$perf"; then
            note "golden scripts/$golden not listed in docs/performance.md"
            fail=1
        fi
        if [ ! -s "$root/scripts/$golden" ]; then
            note "golden scripts/$golden missing or empty"
            fail=1
        fi
    done
fi

# --- 3. metric namespaces documented in docs/observability.md ------
obs="$root/docs/observability.md"
if [ ! -f "$obs" ]; then
    note "missing docs/observability.md"
    fail=1
else
    # One entry per instrumented subsystem plus the knobs users need.
    for needle in 'tensor.' 'nn.forward' 'nn.backward' 'iot.uplink' \
            'iot.fleet' 'iot.breaker' 'iot.supervisor' \
            'fleet.shard.' 'cloud.shard.' 'fleet.scale.' \
            'faults.injected' 'cloud.' 'parallel.' 'bench.' \
            'storage.' 'serving.' 'serving.health' 'serving.degrade' \
            'serving.queue.' 'INSITU_TELEMETRY_JSONL' \
            'wall_s' 'trace.' 'slo.' 'flight.' \
            'Trace propagation' 'SLO objectives and burn rates' \
            'Flight recorder' 'mint_trace_context' 'burn rate' \
            'INSITU_TRACE_CHROME' 'INSITU_FLIGHT_DUMP' \
            'check_slo'; do
        if ! grep -qF "$needle" "$obs"; then
            note "docs/observability.md does not mention $needle"
            fail=1
        fi
    done
fi

# --- 4. the serving runtime's contract stays documented ------------
srv="$root/docs/serving.md"
if [ ! -f "$srv" ]; then
    note "missing docs/serving.md"
    fail=1
else
    # The load-bearing sections: the Eq 3-8 symbol mapping, the swap
    # protocol, the calibration data path, the determinism gate and
    # the gray-failure degradation story.
    for needle in 'Eq' 'double buffer' 'serving.exec.time_s' \
            'check_serving' 'fit_calibration' 'EDF' \
            'degradation ladder' 'check_degrade' 'best_effort'; do
        if ! grep -qF "$needle" "$srv"; then
            note "docs/serving.md does not mention $needle"
            fail=1
        fi
    done
fi

# --- 5. the device gray-failure recovery rows stay documented -------
rob="$root/docs/robustness.md"
if [ ! -f "$rob" ]; then
    note "missing docs/robustness.md"
    fail=1
else
    for needle in 'Recovery matrix' 'thermal throttle' 'jitter storm' \
            'transient stall' '0xDE71CE'; do
        if ! grep -qiF "$needle" "$rob"; then
            note "docs/robustness.md does not mention $needle"
            fail=1
        fi
    done
fi

# --- 6. `Type::member` references name real members ----------------
# Source text with /* */ and // comments stripped, so a member name
# that survives only in prose does not count.
code_of() { perl -0777 -pe 's{/\*.*?\*/}{}gs; s{//[^\n]*}{}g' "$@"; }
refs=0
for doc in "$root"/README.md "$root"/DESIGN.md "$root"/EXPERIMENTS.md \
        "$root"/ROADMAP.md "$root"/docs/*.md; do
    [ -f "$doc" ] || continue
    while IFS= read -r ref; do
        type="${ref%%::*}"
        member="${ref#*::}"
        refs=$((refs + 1))
        headers=$(grep -lE "^[[:space:]]*(class|struct|enum class|enum)[[:space:]]+$type([^A-Za-z0-9_;].*)?\$" \
            -r "$root/src" --include='*.h')
        if [ -z "$headers" ]; then
            note "${doc#"$root"/}: \`$ref\`: no src/ header declares $type"
            fail=1
            continue
        fi
        found=0
        for h in $headers; do
            if code_of "$h" "${h%.h}.cc" 2>/dev/null | grep -qw -- "$member"; then
                found=1
                break
            fi
        done
        if [ "$found" -eq 0 ]; then
            note "${doc#"$root"/}: \`$ref\`: $member not in $type's source"
            fail=1
        fi
    done < <(grep -oE '`[A-Z][A-Za-z0-9_]*::[A-Za-z_~][A-Za-z0-9_]*' "$doc" |
             sed 's/^`//')
done

# --- 7. backticked repo paths exist --------------------------------
# Print @p path with its first {a,b} list expanded, recursively.
expand_braces() {
    if [[ "$1" =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
        local pre="${BASH_REMATCH[1]}" post="${BASH_REMATCH[3]}" alt
        local -a alts
        IFS=, read -ra alts <<< "${BASH_REMATCH[2]}"
        for alt in "${alts[@]}"; do expand_braces "$pre$alt$post"; done
    else
        printf '%s\n' "$1"
    fi
}
paths=0
for doc in "$root"/README.md "$root"/DESIGN.md "$root"/EXPERIMENTS.md \
        "$root"/docs/*.md; do
    [ -f "$doc" ] || continue
    while IFS= read -r ref; do
        case "$ref" in *'*'*|*'?'*|*'['*|*'<'*) continue ;; esac
        while IFS= read -r path; do
            path="${path%%:[0-9]*}"  # file:line
            path="${path%%[.,;:)]}"
            paths=$((paths + 1))
            if [ ! -e "$root/$path" ] && [ ! -e "$root/$path.cpp" ] &&
                    [ ! -e "$root/$path.cc" ]; then
                note "${doc#"$root"/}: \`$ref\` names no file in the repo"
                fail=1
            fi
        done < <(expand_braces "$ref")
    done < <(grep -o '`[^`]*`' "$doc" | tr -d '`' | tr ' ' '\n' |
             grep -E '^(src|bench|examples|scripts|tests|perfbench|results|docs)/' |
             sort -u)
done

# --- 8. backticked test names exist ---------------------------------
tests=0
for doc in "$root"/README.md "$root"/DESIGN.md "$root"/EXPERIMENTS.md \
        "$root"/docs/*.md "$root"/results/*.md; do
    [ -f "$doc" ] || continue
    while IFS= read -r ref; do
        suite="${ref%%.*}"
        name="${ref#*.}"
        tests=$((tests + 1))
        if ! grep -qE "^[[:space:]]*TEST(_F|_P)?\([[:space:]]*$suite,[[:space:]]*$name[[:space:]]*\)" \
                -r "$root/tests"; then
            note "${doc#"$root"/}: \`$ref\` names no test in tests/"
            fail=1
        fi
    done < <(grep -oE '`[A-Z][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*`' "$doc" |
             tr -d '`' | sort -u)
done

# --- 9. verdict benches are gated, or listed as not yet -----------
# <stem> <ROADMAP item that lands its gate>
not_yet_gated='
fig5_pretrain_transfer 1
fig6_layer_locking 1
fig7_valuable_data 1
fleet_scaling 1
ablation_diagnosis_policy 2
'
gated=$(perl -0777 -ne '
    if (/foreach\(stem IN ITEMS([^)]*)\)\s*add_test\(NAME paper_\$\{stem\}/) {
        print "$_\n" for split " ", $1 }' "$root/tests/CMakeLists.txt")
if [ -z "$gated" ]; then
    note "tests/CMakeLists.txt: no paper_<stem> loop found"
    fail=1
fi
listed=$(printf '%s' "$not_yet_gated" | awk 'NF { print $1 }')
verdicts=0
for src in "$root"/bench/bench_*.cc; do
    grep -q 'verdict(' "$src" || continue
    stem="$(basename "$src" .cc)"
    stem="${stem#bench_}"
    verdicts=$((verdicts + 1))
    if ! printf '%s\n' $gated $listed | grep -qx "$stem"; then
        note "rule 9: bench_$stem has a verdict but no paper_$stem test and is not listed"
        fail=1
    fi
done
for stem in $listed; do
    if printf '%s\n' $gated | grep -qx "$stem"; then
        note "rule 9: $stem is gated; drop it from the not-yet-gated list"
        fail=1
    fi
    if ! grep -qs 'verdict(' "$root/bench/bench_$stem.cc"; then
        note "rule 9: bench_$stem calls no verdict(; drop it from the list"
        fail=1
    fi
done

# --- 10. backticked config types are declared ----------------------
types=0
for doc in "$root"/README.md "$root"/DESIGN.md "$root"/EXPERIMENTS.md \
        "$root"/docs/*.md; do
    [ -f "$doc" ] || continue
    while IFS= read -r type; do
        types=$((types + 1))
        if ! grep -qE "^[[:space:]]*(struct|class)[[:space:]]+$type([^A-Za-z0-9_;].*)?\$" \
                -r "$root/src" "$root/perfbench/src"; then
            note "${doc#"$root"/}: \`$type\`: no struct or class in src/ or perfbench/src/"
            fail=1
        fi
    done < <(grep -o '`[^`]*`' "$doc" |
             grep -oE '\b[A-Z][A-Za-z0-9_]*(Config|Policy|Spec|Plan)\b' |
             sort -u)
done

if [ "$fail" -ne 0 ]; then
    note "check_docs: FAILED"
    exit 1
fi
note "check_docs: OK ($checked links, $refs Type::member references, $paths repo paths, $tests test names, $verdicts verdict benches gated or listed, $types config type names, bench + telemetry docs complete)"
