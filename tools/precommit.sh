#!/usr/bin/env bash
# Fast pre-commit gate: format check + simlint, scoped to the files the
# commit actually touches.  Wire it up with:
#
#   ln -s ../../tools/precommit.sh .git/hooks/pre-commit
#
# or run it by hand before pushing.  Scope rules:
#   - staged changes (the default) when invoked as a git hook;
#   - with --all, the full tree (what the CI lint job runs).
#
# simlint is invoked per changed file, which keeps the hook under a second;
# the cross-file rules (HIB018, HIB023) get their full-tree run in CI and in
# ctest's simlint_repo entry, so a hook pass is necessary, not sufficient.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--all" ]]; then
  tools/format.sh --check
  python3 tools/simlint.py src tests bench examples
  echo "precommit: full tree clean"
  exit 0
fi

mapfile -t changed < <(git diff --cached --name-only --diff-filter=ACMR \
                         -- '*.h' '*.cc' '*.cpp' \
                       | grep -v '^tools/simlint_fixtures/' || true)

if [[ ${#changed[@]} -eq 0 ]]; then
  echo "precommit: no C++ sources staged; nothing to check"
  exit 0
fi

if command -v clang-format > /dev/null 2>&1; then
  clang-format --dry-run --Werror "${changed[@]}"
else
  echo "precommit: clang-format not found; skipping format check" >&2
fi

# --partial: a NOLINT for a cross-file rule (HIB018, HIB023) cannot be proven
# stale without the whole call graph in scope, so HIB099 stays quiet for those
# here.
python3 tools/simlint.py --partial "${changed[@]}"
echo "precommit: ${#changed[@]} changed file(s) clean"
