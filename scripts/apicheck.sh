#!/bin/sh
# apicheck: guard the public API surface across the v1 -> v2 transition
# and the consolidation of the runtime onto one entry point and one
# executor.
#
# 1. The deprecated v1 wrappers must still compile against api_test.go's
#    v1 usage (Options literals + free functions). `go test -c` compiles
#    the root test package without running it.
# 2. Each v1 entry point must still exist and carry a Deprecated: marker,
#    and the v2 Session surface must expose its core symbols.
# 3. smpi.Exec is the runtime's one entry point (no Run* variants beside
#    it), and the executor-selection options are gone from the Session
#    surface: every world runs on goroutines.
#
# Run via `make apicheck` (CI runs the same target).
set -eu
cd "$(dirname "$0")/.."

echo "apicheck: compiling root test package (v1 usage in api_test.go)"
go test -c -o /dev/null .

if ! grep -q 'Options{' api_test.go; then
    echo "apicheck: api_test.go no longer exercises the v1 Options surface" >&2
    exit 1
fi

for sym in Factorize Solve SolveMany CommVolume CommVolumeMachine CommVolumeSolve FactorizeSPD; do
    if ! grep -q "^func $sym(" api.go; then
        echo "apicheck: v1 wrapper $sym missing from api.go" >&2
        exit 1
    fi
done

for dep in Factorize SolveMany CommVolume FactorizeSPD; do
    if ! grep -B 3 "^func $dep(" api.go | grep -q 'Deprecated:'; then
        echo "apicheck: v1 wrapper $dep lost its Deprecated: marker" >&2
        exit 1
    fi
done

for sym in 'func New(' 'func WithRanks(' 'func WithAlgorithm(' 'func WithMachine(' 'func WithFreeMachine(' \
           'func (s \*Session) Factorize(' 'func (s \*Session) SolveMany(' 'func (s \*Session) CommVolume('; do
    if ! grep -q "$sym" session.go; then
        echo "apicheck: v2 symbol missing: $sym" >&2
        exit 1
    fi
done

for sentinel in ErrShape ErrSingular ErrUnknownAlgorithm ErrCanceled; do
    if ! grep -q "$sentinel = errors.New" errors.go; then
        echo "apicheck: typed sentinel $sentinel missing from errors.go" >&2
        exit 1
    fi
done

if grep -n 'switch o.Algorithm' api.go; then
    echo "apicheck: engine dispatch switch crept back into api.go (use the registry)" >&2
    exit 1
fi

# --- one entry point, one executor (DESIGN.md §11) ---

if ! grep -q '^func Exec(' internal/smpi/exec.go; then
    echo "apicheck: smpi.Exec missing from internal/smpi/exec.go" >&2
    exit 1
fi

if grep -nE '^func Run[A-Za-z]*\(' internal/smpi/*.go; then
    echo "apicheck: a second smpi entry point crept back in beside Exec" >&2
    exit 1
fi

if grep -nE 'func With(Executor|Workers)\(' session.go; then
    echo "apicheck: executor-selection option crept back into session.go" >&2
    exit 1
fi

echo "apicheck: ok"
