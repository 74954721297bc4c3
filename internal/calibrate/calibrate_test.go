package calibrate

import (
	"strings"
	"testing"

	"paropt/internal/core"
	"paropt/internal/cost"
	"paropt/internal/repro"
	"paropt/internal/workload"
)

func TestRunProducesPositiveParams(t *testing.T) {
	rep, err := Run(20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Params
	for name, v := range map[string]float64{
		"CPUTuple":   p.CPUTuple,
		"CPUCompare": p.CPUCompare,
		"HashBuild":  p.HashBuild,
		"HashProbe":  p.HashProbe,
		"IOPage":     p.IOPage,
	} {
		if v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	if rep.UnitNanos <= 0 {
		t.Error("unit must be positive")
	}
	if len(rep.Samples) != 4 {
		t.Errorf("samples = %d, want 4", len(rep.Samples))
	}
	for name, s := range rep.Samples {
		if s.UnitNanos <= 0 || s.N <= 0 {
			t.Errorf("sample %s degenerate: %+v", name, s)
		}
	}
}

func TestScaleFloor(t *testing.T) {
	rep, err := Run(10, 1) // clamped to 1000
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples["scan-tuple"].N < 1000 {
		t.Error("scale floor not applied")
	}
}

func TestReportString(t *testing.T) {
	rep, err := Run(5_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"calibration:", "scan-tuple", "sort-compare", "hash-build", "hash-probe", "fitted params"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestFittedParamsDriveOptimizer: the fitted parameter set must be usable
// as a drop-in cost model parameterization.
func TestFittedParamsDriveOptimizer(t *testing.T) {
	rep, err := Run(5_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cat, q := workload.Portfolio(2)
	o, err := core.NewOptimizer(cat, q, core.Config{Params: &rep.Params})
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Optimize(o, repro.Run{})
	if err != nil {
		t.Fatal(err)
	}
	if p.RT() <= 0 {
		t.Error("calibrated optimization produced no cost")
	}
}

// TestRelativeOrderSanity: a hash probe should not cost orders of magnitude
// more than a plain tuple touch; comparisons should be same order as
// touches. Very loose bounds — this is wall-clock measurement.
func TestRelativeOrderSanity(t *testing.T) {
	rep, err := Run(50_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	touch := rep.Samples["scan-tuple"].UnitNanos
	probe := rep.Samples["hash-probe"].UnitNanos
	if probe > touch*1000 || touch > probe*1000 {
		t.Errorf("implausible ratio: touch %.2f ns vs probe %.2f ns", touch, probe)
	}
	_ = cost.DefaultParams()
}
