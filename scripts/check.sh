#!/usr/bin/env bash
# The static gates of CONTRIBUTING.md ("Gates every PR must pass"), in
# one command.  compileall and repro-lint need only the interpreter and
# always run; ruff and mypy run when they are importable and are
# reported — loudly — as SKIPPED when they are not, so a log can never
# be read as "the strict gate passed" when it was not run.
#
#   scripts/check.sh        # from anywhere inside the repo
#
# Exit status: non-zero when any gate that ran failed.  A skipped gate
# does not fail the script; CI installs requirements-dev.txt and skips
# nothing.
set -u
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
PYTHON="${PYTHON:-python3}"

ran=()
failed=()
skipped=()

gate() {  # gate <name> <command...>
    local name="$1"
    shift
    echo "== $name: $*"
    ran+=("$name")
    if "$@"; then
        echo "== $name: ok"
    else
        echo "== $name: FAILED"
        failed+=("$name")
    fi
}

optional_gate() {  # optional_gate <module> <command...>
    local module="$1"
    shift
    if "$PYTHON" -c "import $module" 2>/dev/null; then
        gate "$module" "$@"
    else
        echo "== $module: SKIPPED (not installed) — this gate was NOT checked;" \
             "pip install -r requirements-dev.txt to run it"
        skipped+=("$module")
    fi
}

gate compileall "$PYTHON" -m compileall -q src tests benchmarks examples
gate repro-lint "$PYTHON" -m repro.analysis src benchmarks examples
optional_gate ruff "$PYTHON" -m ruff check src tests benchmarks examples
optional_gate mypy "$PYTHON" -m mypy --config-file mypy.ini

echo
echo "ran: ${ran[*]}; skipped: ${skipped[*]:-none}; failed: ${failed[*]:-none}"
[ "${#failed[@]}" -eq 0 ]
