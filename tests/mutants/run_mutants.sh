#!/usr/bin/env bash
# Mutation check. Each tests/mutants/<name>.patch flips one comparison or
# drops one check in src/ and names, on its "# kill:" line, the ctest
# suites that must catch it. For every patch this script applies it to one copy of the sources
# under <build-dir>/mutants, rebuilds the named suites there and runs them,
# then reverts it. A mutant survives when every named suite still passes.
# Each suite run gets $suite_timeout seconds: a suite that blocks on a
# mutant (a TCP round trip whose server never answers) counts as killing
# it instead of hanging the run.
#
#   tests/mutants/run_mutants.sh <build-dir> [name...]
#
# Exit status: 0 when every mutant was killed, 1 when one survived, 2 when
# a patch no longer applies or a mutant does not build (refresh the patch).
# Logs of each build and suite run stay in <build-dir>/mutants.
set -euo pipefail

repo=$(cd "$(dirname "$0")/../.." && pwd)
build=$(realpath -m "${1:?usage: run_mutants.sh <build-dir> [name...]}")
shift

work="$build/mutants"
src="$work/src"
bin="$work/build"
rm -rf "$src"
mkdir -p "$src"
for d in CMakeLists.txt src tests bench examples; do
  cp -R "$repo/$d" "$src/"
done
cmake -S "$src" -B "$bin" > "$work/configure.log"

if [ $# -gt 0 ]; then
  patches=()
  for name in "$@"; do patches+=("$repo/tests/mutants/$name.patch"); done
else
  patches=("$repo"/tests/mutants/*.patch)
fi

suite_timeout=300
survived=()
for p in "${patches[@]}"; do
  name=$(basename "$p" .patch)
  read -r -a suites <<< "$(sed -n 's/^# kill: //p' "$p")"
  if [ ${#suites[@]} -eq 0 ]; then
    echo "$name: no '# kill:' line" >&2
    exit 2
  fi
  if ! patch -d "$src" -p1 --forward --quiet < "$p"; then
    echo "$name: patch does not apply" >&2
    exit 2
  fi
  if ! cmake --build "$bin" -j"$(nproc)" --target "${suites[@]}" \
      > "$work/$name.build.log" 2>&1; then
    echo "$name: mutant does not build (see $work/$name.build.log)" >&2
    exit 2
  fi
  killed=()
  for t in "${suites[@]}"; do
    status=0
    timeout -k 10 "$suite_timeout" "$bin/tests/$t" > "$work/$name.$t.log" 2>&1 \
      || status=$?
    if [ "$status" -eq 124 ] || [ "$status" -eq 137 ]; then
      killed+=("$t(timeout)")
    elif [ "$status" -ne 0 ]; then
      killed+=("$t")
    fi
  done
  patch -d "$src" -p1 -R --quiet < "$p"
  if [ ${#killed[@]} -eq 0 ]; then
    echo "SURVIVED $name: ${suites[*]} all pass"
    survived+=("$name")
  else
    echo "killed $name by ${killed[*]}"
  fi
done

if [ ${#survived[@]} -gt 0 ]; then
  echo "${#survived[@]} of ${#patches[@]} mutants survived: ${survived[*]}"
  exit 1
fi
echo "all ${#patches[@]} mutants killed"
