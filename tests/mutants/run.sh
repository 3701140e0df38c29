#!/usr/bin/env bash
# Checks that every planted defect in tests/mutants/*.patch is still caught.
#
# Usage (from anywhere inside the repository): tests/mutants/run.sh
#
# Each patch starts with a header whose `Test:` line is the command that
# must catch it. In a throwaway git worktree of HEAD, every such command
# first runs on the unchanged tree and must pass (the control). Then, for
# each patch: `git apply --check`, apply, run its command, require a
# non-zero exit, and restore the tree. Prints the seconds each step took,
# and exits non-zero if a control fails, a patch no longer applies or a
# mutant survives.
set -uo pipefail

root=$(git rev-parse --show-toplevel)
scratch=$(mktemp -d)
tree="$scratch/tree"
log="$scratch/log"
cleanup() {
  git -C "$root" worktree remove --force "$tree" 2> /dev/null
  rm -rf "$scratch"
}
trap cleanup EXIT
git -C "$root" worktree add -q --detach "$tree" HEAD || exit 1
cd "$tree" || exit 1

patches=("$root"/tests/mutants/*.patch)
command_of() { sed -n 's/^Test: //p' "$1"; }

status=0
while read -r command; do
  started=$SECONDS
  if bash -c "$command" < /dev/null > "$log" 2>&1; then
    echo "mutants: control passes ($((SECONDS - started)) s): $command"
  else
    tail -n 30 "$log"
    echo "mutants: control FAILS on the unchanged tree: $command"
    status=1
  fi
done < <(for patch in "${patches[@]}"; do command_of "$patch"; done | sort -u)

for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  command=$(command_of "$patch")
  if [ -z "$command" ]; then
    echo "mutants: $name: no Test: line"
    status=1
    continue
  fi
  if ! git apply --check "$patch" || ! git apply "$patch"; then
    echo "mutants: $name: the patch no longer applies; re-target it at the moved code"
    status=1
    continue
  fi
  started=$SECONDS
  if bash -c "$command" < /dev/null > "$log" 2>&1; then
    echo "mutants: $name SURVIVES ($((SECONDS - started)) s): $command passes with it applied"
    status=1
  else
    echo "mutants: $name caught ($((SECONDS - started)) s): $command"
  fi
  git checkout -q -- .
done
exit $status
