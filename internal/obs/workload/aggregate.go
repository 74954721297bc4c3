package workload

// Aggregate folds query-log records into profiles — the offline counterpart
// of the live profiler, so `paropt workload <log>` renders the same table
// /debug/workload serves. Records without a fingerprint (failures before
// parsing) are counted but not profiled.
func Aggregate(recs []Record, threshold float64, minSamples int) []ProfileSnapshot {
	p := NewProfiler(0, len(recs)+1, threshold, minSamples)
	for _, rec := range recs {
		p.Observe(rec)
	}
	return p.Snapshot()
}
