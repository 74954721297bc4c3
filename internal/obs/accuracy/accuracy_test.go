package accuracy_test

import (
	"strings"
	"testing"

	"paropt/internal/core"
	"paropt/internal/engine/exchange"
	"paropt/internal/machine"
	"paropt/internal/parser"
	"paropt/internal/repro"
	"paropt/internal/storage"
)

const chainDDL = `
relation A card=2000 pages=20 disk=0
column A.x ndv=2000
column A.y ndv=50
relation B card=1500 pages=15 disk=1
column B.y ndv=50
column B.z ndv=40
relation C card=1000 pages=10 disk=2
column C.z ndv=40
column C.w ndv=10
`

func analyzeFixture(t *testing.T) (*core.Optimizer, *core.Plan, *storage.Database) {
	t.Helper()
	cat, err := parser.ParseSchema(chainDDL)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery("SELECT * FROM A, B, C WHERE A.y = B.y AND B.z = C.z", cat)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.NewOptimizer(cat, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Optimize(opt, repro.Run{})
	if err != nil {
		t.Fatal(err)
	}
	return opt, p, storage.NewDatabase(cat, 7)
}

func TestAnalyzeJoinsPredictedAndActual(t *testing.T) {
	opt, p, db := analyzeFixture(t)
	rep, stats, err := opt.Analyze(p, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ops) != len(stats.Nodes()) {
		t.Fatalf("report has %d ops, stats %d nodes", len(rep.Ops), len(stats.Nodes()))
	}
	if len(rep.Ops) != 5 {
		t.Fatalf("3 scans + 2 joins should yield 5 rows, got %d", len(rep.Ops))
	}
	if rep.Scale <= 0 {
		t.Fatalf("calibration scale should be positive, got %g", rep.Scale)
	}
	if rep.PredictedRT != p.RT() {
		t.Errorf("predicted RT %g should equal the plan's %g", rep.PredictedRT, p.RT())
	}
	var roots int
	for _, oa := range rep.Ops {
		if oa.Root {
			roots++
			// Calibration makes the root's scaled last-tuple prediction
			// coincide with the measurement.
			if d := oa.PredLastSec - oa.ActLast; d > 1e-9 || d < -1e-9 {
				t.Errorf("root scaled prediction %g != actual %g", oa.PredLastSec, oa.ActLast)
			}
		}
		if oa.PredLast <= 0 {
			t.Errorf("%s: predicted tl should be positive", oa.Label)
		}
		if oa.ActLast <= 0 {
			t.Errorf("%s: actual tl should be positive", oa.Label)
		}
		if oa.PredFirst > oa.PredLast {
			t.Errorf("%s: predicted tf %g > tl %g", oa.Label, oa.PredFirst, oa.PredLast)
		}
	}
	if roots != 1 {
		t.Errorf("exactly one root row expected, got %d", roots)
	}
	// The model is never perfect on wall-clock shapes: some non-root entry
	// must carry a nonzero error sample.
	if len(rep.Errors()) == 0 {
		t.Fatal("no error samples collected")
	}
	if rep.MeanAbsRelErr == 0 {
		t.Error("mean |rel err| of a real execution should be nonzero")
	}
	if rep.MaxQErrRows < 1 {
		t.Errorf("max q-error should be >= 1, got %g", rep.MaxQErrRows)
	}
}

func TestAnalyzeParallelExecution(t *testing.T) {
	opt, p, db := analyzeFixture(t)
	rep, _, err := opt.Analyze(p, db, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ops) != 5 || rep.Scale <= 0 {
		t.Fatalf("parallel analyze degenerate: %d ops, scale %g", len(rep.Ops), rep.Scale)
	}
}

func TestReportTable(t *testing.T) {
	opt, p, db := analyzeFixture(t)
	rep, _, err := opt.Analyze(p, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Table()
	for _, want := range []string{"cost-model accuracy", "pred tl (ms)", "act rows", "scan(A)"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	if got := strings.Count(tbl, "\n"); got != 2+len(rep.Ops) {
		t.Errorf("table should have header+columns+%d rows, got %d lines", len(rep.Ops), got)
	}
}

// TestAnalyzeChargesInterconnect: on a multi-node machine whose chosen plan
// repartitions, the calibrated interconnect charge must be nonzero —
// redistribution demands live in the transfer component, not the operators'
// own demands — and AttachLinks must split it across the observed links.
func TestAnalyzeChargesInterconnect(t *testing.T) {
	cat, err := parser.ParseSchema(chainDDL)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery("SELECT * FROM A, B, C WHERE A.y = B.y AND B.z = C.z", cat)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.NewOptimizer(cat, q, core.Config{
		Machine: machine.Config{CPUs: 1, Disks: 1, Nodes: 3, NetLatency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Optimize(opt, repro.Run{})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := opt.Analyze(p, storage.NewDatabase(cat, 7), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PredNetSeconds <= 0 {
		t.Fatalf("PredNetSeconds = %g on a 3-node machine with repartitioned edges, want > 0", rep.PredNetSeconds)
	}
	rep.AttachLinks([]exchange.LinkSnapshot{
		{Addr: "w0", BytesSent: 10, SendNanos: 5e6},
		{Addr: "w1", BytesSent: 10, SendNanos: 5e6},
	})
	if len(rep.Links) != 2 {
		t.Fatalf("AttachLinks produced %d rows, want 2", len(rep.Links))
	}
	for _, la := range rep.Links {
		if want := rep.PredNetSeconds / 2; la.PredNetSeconds != want {
			t.Errorf("link %s charge %g, want even split %g", la.Addr, la.PredNetSeconds, want)
		}
	}
}
