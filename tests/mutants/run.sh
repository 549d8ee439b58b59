#!/usr/bin/env bash
# Runs the mutant corpus: every tests/mutants/*.patch re-introduces one
# bug the suite once had to catch. Each patch is applied with plain
# `git apply` to a scratch `git worktree` of HEAD (never to the caller's
# tree), the command on its `Kill:` header line runs there, and the patch
# is reverted. A mutant is killed when that command fails; one that
# passes, no longer applies, or does not compile fails the run.
#
#   tests/mutants/run.sh                 # every mutant
#   tests/mutants/run.sh window-*.patch  # the patches named (in tests/mutants/)
#
# The worktree builds into its own target directory (CARGO_TARGET_DIR
# overrides it), so the first mutant pays a full debug build.
set -uo pipefail

root=$(git rev-parse --show-toplevel)
corpus="$root/tests/mutants"
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
tree="$work/tree"
cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null
    rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tree" HEAD || exit 2
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"

if [ $# -gt 0 ]; then
    patches=("${@/#/$corpus/}")
else
    patches=("$corpus"/*.patch)
fi

failed=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    kill_cmd=$(sed -n 's/^Kill: //p' "$patch" | head -n 1)
    if [ -z "$kill_cmd" ]; then
        echo "BROKEN   $name: no Kill: line"
        failed=1
        continue
    fi
    if ! git -C "$tree" apply "$patch"; then
        echo "BROKEN   $name: does not apply to HEAD"
        failed=1
        continue
    fi
    log="$work/$name.log"
    start=$SECONDS
    if (cd "$tree" && eval "$kill_cmd") >"$log" 2>&1; then
        echo "SURVIVED $name ($kill_cmd passed)"
        failed=1
    elif grep -q "could not compile" "$log"; then
        echo "BROKEN   $name: does not compile"
        grep -m 5 "^error" "$log"
        failed=1
    else
        echo "killed   $name by \`$kill_cmd\` ($((SECONDS - start)) s)"
        grep -m 1 -E "panicked at|^test .* FAILED" "$log" | sed 's/^/         /'
    fi
    git -C "$tree" checkout --quiet -- .
done
exit "$failed"
