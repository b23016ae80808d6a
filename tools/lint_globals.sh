#!/bin/sh
# Fail on new module-level mutable state in lib/.
#
# The shard handle (DESIGN.md 3.6) owns every piece of per-kernel
# state; module-level refs and mutable containers are exactly what it
# de-globalized, so any new one is a bug unless it is an allowlisted
# installed-instance cell.  The check is a grep heuristic:
#
#   - candidate bindings: `let <name> [: type] = ref ...` or
#     `= Hashtbl.create/Queue.create/Buffer.create/Stack.create/
#        Atomic.make/Array.make/Bytes.create/Dynarray.create`,
#     either on one line or with the `let ... =` line ending in `=`
#     and the next line starting with `ref` or one of the constructors
#   - bindings whose `in` follows on the same line (one-line form) or
#     on the constructor line or the line after it (two-line form) are
#     function-local and skipped
#   - survivors must appear in tools/globals_allowlist.txt as
#     `<file>:<binding-name>`
#   - every allowlist entry must match a binding, so a stale entry
#     cannot silently cover a future one
#
# Multi-line function-local bindings can slip through as false
# positives; allowlist them with a comment rather than loosening the
# pattern.

set -eu
cd "$(dirname "$0")/.."

allow=tools/globals_allowlist.txt
let_re='^[[:space:]]*let[[:space:]]+[a-z_][a-zA-Z0-9_'\'']*[[:space:]]*(:[^=]*)?='
ctor_re='(ref[[:space:](]|Hashtbl[.]create|Queue[.]create|Buffer[.]create|Stack[.]create|Atomic[.]make|Array[.]make|Bytes[.]create|Dynarray[.]create)'

one_line=$(grep -rEn "$let_re[[:space:]]*$ctor_re" lib --include='*.ml' 2>/dev/null \
  | grep -vE '[[:space:]]in([[:space:]]|$)' || true)

# `let <name> [: type] =` at the end of a line, constructor on the
# next; reported as `file:line:text` of the `let` line, like grep -n.
two_line=$(find lib -name '*.ml' | sort | xargs awk \
  -v let_re="$let_re[[:space:]]*\$" -v ctor_re="^[[:space:]]*$ctor_re" '
  function flush() { if (pend != "") print pf ":" pn ":" pend; pend = "" }
  FNR == 1 { flush(); prev = "" }
  {
    if (pend != "") {
      if ($0 ~ /^[[:space:]]*in([[:space:]]|$)/) pend = ""
      else flush()
    }
    if (prev ~ let_re && $0 ~ ctor_re && $0 !~ /[[:space:]]in[[:space:]]*$/) {
      pend = prev; pf = FILENAME; pn = FNR - 1
    }
    prev = $0
  }
  END { flush() }')

matches=$(printf '%s\n%s\n' "$one_line" "$two_line")

status=0
seen=""
while IFS= read -r m; do
  [ -n "$m" ] || continue
  file=${m%%:*}
  rest=${m#*:}
  rest=${rest#*:} # strip the line number
  name=$(printf '%s' "$rest" \
    | sed -E 's/^[[:space:]]*let[[:space:]]+([a-z_][a-zA-Z0-9_'\'']*).*/\1/')
  seen="$seen
$file:$name"
  if ! grep -qx "$file:$name" "$allow"; then
    printf 'lint-globals: %s\n' "$m"
    printf 'lint-globals: module-level mutable state outside the shard handle;\n'
    printf 'lint-globals: move it into Kstate.t (or allowlist it in %s with a reason)\n' "$allow"
    status=1
  fi
done <<EOF
$matches
EOF

while IFS= read -r entry; do
  case "$entry" in '' | '#'*) continue ;; esac
  if ! printf '%s\n' "$seen" | grep -qxF "$entry"; then
    printf 'lint-globals: allowlist entry %s matches no binding; remove it from %s\n' \
      "$entry" "$allow"
    status=1
  fi
done <"$allow"

[ "$status" -eq 0 ] && echo "lint-globals: ok (lib/ has no stray module-level mutable state)"
exit "$status"
