#!/usr/bin/env bash
# go-test-selected.sh [go test flags] PKG... runs `go test` with the given
# arguments after checking that its -run or -fuzz regex selects at least
# one test in every package argument (arguments starting with "."), as
# `go test -list` reports them, and, when the regex is a plain list of
# alternatives (no groups, classes or subtest slashes), that every
# alternative selects a test in some package.
#
# `go test -run X` exits 0 with "[no tests to run]" when X matches
# nothing, so without this check a renamed or merged test would silently
# drop out of the CI step that names it.
set -euo pipefail

regex=
pkgs=()
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case ${args[i]} in
    -run | -fuzz)
      regex=${args[i + 1]}
      i=$((i + 1))
      ;;
    .*) pkgs+=("${args[i]}") ;;
  esac
done
if [[ -z $regex || ${#pkgs[@]} -eq 0 ]]; then
  echo "go-test-selected.sh: need a -run or -fuzz regex and at least one ./package" >&2
  exit 2
fi

all=
for pkg in "${pkgs[@]}"; do
  listed=$(go test -list "$regex" "$pkg")
  if ! grep -qE '^(Test|Fuzz)' <<<"$listed"; then
    echo "go-test-selected.sh: '$regex' selects no test in $pkg" >&2
    exit 1
  fi
  all+=$(grep -E '^(Test|Fuzz)' <<<"$listed")$'\n'
done
if [[ $regex != *[\(\)\[\]/]* ]]; then
  IFS='|' read -ra alts <<<"$regex"
  for alt in "${alts[@]}"; do
    if ! grep -qE "$alt" <<<"$all"; then
      echo "go-test-selected.sh: '$alt' of '$regex' selects no test in ${pkgs[*]}" >&2
      exit 1
    fi
  done
fi
exec go test "$@"
