package workload

// Aggregate folds query-log records into profiles — the offline counterpart
// of the live profiler, so `paropt workload <log>` renders the same table
// /debug/workload serves. Records without a fingerprint (failures before
// parsing) are counted but not profiled. It marks drift by the live
// profiler's constants, and has room for every template the log names.
func Aggregate(recs []Record) []ProfileSnapshot {
	p := newProfiler(len(recs) + 1)
	for _, rec := range recs {
		p.Observe(rec)
	}
	return p.Snapshot()
}
