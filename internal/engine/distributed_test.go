package engine

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"paropt/internal/engine/exchange"
	"paropt/internal/plan"
	"paropt/internal/storage"
)

// TestDistributedJoinMatchesSingleProcess is the distributed acceptance
// test: a 2-way cloned join executed across two worker processes (loopback
// cluster over TCP) must be byte-identical — normalized rows, not just
// fingerprints — to the single-process engine, which itself matches
// ReferenceJoin.
func TestDistributedJoinMatchesSingleProcess(t *testing.T) {
	lb, err := exchange.StartLoopback(2, FragmentJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	for _, method := range []plan.JoinMethod{plan.HashJoin, plan.SortMerge, plan.NestedLoops} {
		e, est := rig(t, 3_000, 2_000)
		p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), method)

		e.Parallel = 4
		single, err := e.Execute(p)
		if err != nil {
			t.Fatalf("%v single-process: %v", method, err)
		}

		cluster := lb.Cluster(exchange.ClusterConfig{})
		e.Transport = cluster
		distributed, err := e.Execute(p)
		if err != nil {
			t.Fatalf("%v distributed: %v", method, err)
		}
		e.Transport = nil

		ref, err := ReferenceJoin(e)
		if err != nil {
			t.Fatal(err)
		}
		if single.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("%v: single-process join differs from reference", method)
		}
		ns, nd := single.Normalize(), distributed.Normalize()
		if !reflect.DeepEqual(ns.Schema, nd.Schema) {
			t.Fatalf("%v: schemas differ: %v vs %v", method, ns.Schema, nd.Schema)
		}
		if !reflect.DeepEqual(sortRows(ns), sortRows(nd)) {
			t.Fatalf("%v: distributed rows differ from single-process (%d vs %d rows)",
				method, nd.Len(), ns.Len())
		}
		if single.Len() == 0 {
			t.Fatalf("%v: join produced nothing; fixture broken", method)
		}

		// Traffic actually crossed both worker links.
		links := cluster.Links()
		if len(links) != 2 {
			t.Fatalf("links = %d, want 2", len(links))
		}
		for _, l := range links {
			if l.BytesSent == 0 || l.BytesRecv == 0 {
				t.Errorf("%v: link %s carried no traffic: %+v", method, l.Addr, l)
			}
		}
	}
}

// sortRows returns a copy of the result's rows ordered lexicographically, so
// multisets compare as slices.
func sortRows(r *Resultset) []storage.Row {
	rows := rowsOf(r)
	sort.Slice(rows, func(a, b int) bool {
		for i := range rows[a] {
			if rows[a][i] != rows[b][i] {
				return rows[a][i] < rows[b][i]
			}
		}
		return false
	})
	return rows
}

// TestDistributedJoinErrorSurfacesFromExecute: a dead cluster must turn into
// an Execute error, not a hang or an empty result.
func TestDistributedJoinErrorSurfacesFromExecute(t *testing.T) {
	lb, err := exchange.StartLoopback(1, FragmentJoin)
	if err != nil {
		t.Fatal(err)
	}
	addr := lb.Addrs()[0]
	lb.Close() // nothing listens there anymore

	e, est := rig(t, 1_000, 500)
	p := join(t, est, leaf(t, est, "R1"), leaf(t, est, "R2"), plan.HashJoin)
	e.Parallel = 3
	e.Transport = exchange.NewCluster([]string{addr}, exchange.ClusterConfig{})
	if _, err := e.Execute(p); err == nil {
		t.Fatal("Execute against a dead cluster must error")
	} else {
		var we *exchange.WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("err = %v (%T), want *exchange.WorkerError", err, err)
		}
	}
	// The executor recovers: clearing the transport works again.
	e.Transport = nil
	res, err := e.Execute(p)
	if err != nil || res.Len() == 0 {
		t.Fatalf("recovery run: %v (rows=%d)", err, res.Len())
	}
}
