package paropt_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets keeps the benchmark inside tier-1's reach. bench/ is a
// module of its own (replace paropt => ../), so the root `go build ./... &&
// go test ./...` never compiles it, and a changed internal/ signature it
// assigns or passes — exchange.JoinFunc, exchange.Transport, engine.Executor —
// would break the benchmark unnoticed. `go vet .` there type-checks every
// file, tests included, against this checkout.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the bench module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
