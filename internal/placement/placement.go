// Package placement assigns base relations to workers in a shared-nothing
// deployment: each relation gets a partitioning column and an ordered set of
// owning workers, so shard i of a relation lives at worker i and the
// coordinator can ship leaf scans to the data instead of streaming every
// base tuple itself (the paper's shared-nothing setting; DeWitt's Gamma is
// the lineage). A placement map is pinned to a catalog version — placements
// of a stale schema are never consulted — and carries the membership epoch
// it was built under.
//
// Because worker stores generate relations deterministically from the
// catalog (internal/storage), ownership here is an optimization hint, not a
// durability boundary: any worker can materialize any shard on demand,
// which is what makes fragment re-dispatch and coordinator fallback sound.
package placement

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"paropt/internal/catalog"
)

// Assignment places one relation: hash-partitioned on Column across Workers
// in shard order (shard i of len(Workers) lives at Workers[i]).
type Assignment struct {
	Relation string   `json:"relation"`
	Column   string   `json:"column"`
	Workers  []string `json:"workers"`
}

// Map is a complete placement of a catalog version across a worker set.
type Map struct {
	// CatalogVersion is the catalog fingerprint the map was built against;
	// the service drops the map when the catalog changes.
	CatalogVersion string `json:"catalog_version"`
	// Epoch is the cluster-membership epoch at build time.
	Epoch int64 `json:"epoch"`
	// Seed is the data-generation seed workers must use so their shards
	// agree with the coordinator's tables.
	Seed int64 `json:"seed"`
	// Assignments maps relation name to its placement.
	Assignments map[string]Assignment `json:"assignments"`
}

// Build places every relation of the catalog across the given workers.
// columns optionally pins relation → partitioning column; unpinned
// relations get the heuristic choice (see chooseColumn). Workers own every
// relation, in the given order.
func Build(cat *catalog.Catalog, version string, workers []string, seed int64, columns map[string]string) (*Map, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("placement: no workers to place on")
	}
	m := &Map{
		CatalogVersion: version,
		Seed:           seed,
		Assignments:    make(map[string]Assignment, cat.NumRelations()),
	}
	for _, name := range cat.RelationNames() {
		rel := cat.MustRelation(name)
		col := columns[name]
		if col == "" {
			col = chooseColumn(cat, rel)
		} else if !rel.HasColumn(col) {
			return nil, fmt.Errorf("placement: relation %s has no column %s", name, col)
		}
		m.Assignments[name] = Assignment{
			Relation: name,
			Column:   col,
			Workers:  append([]string(nil), workers...),
		}
	}
	return m, nil
}

// chooseColumn picks the partitioning column most likely to co-locate
// joins: (1) the column name shared with the most other relations (shared
// names are the join keys of generated workloads and of most star/snowflake
// schemas), ties broken by (2) having an index whose leading key it is,
// then (3) higher NDV (finer partitioning), then (4) declaration order.
func chooseColumn(cat *catalog.Catalog, rel *catalog.Relation) string {
	best, bestShared, bestIndexed, bestNDV := 0, -1, false, int64(-1)
	for i, c := range rel.Columns {
		shared := 0
		for _, other := range cat.RelationNames() {
			if other == rel.Name {
				continue
			}
			if cat.MustRelation(other).HasColumn(c.Name) {
				shared++
			}
		}
		indexed := false
		for _, ix := range cat.IndexesOn(rel.Name) {
			if len(ix.Columns) > 0 && ix.Columns[0] == c.Name {
				indexed = true
				break
			}
		}
		better := shared > bestShared ||
			(shared == bestShared && indexed && !bestIndexed) ||
			(shared == bestShared && indexed == bestIndexed && c.NDV > bestNDV)
		if better {
			best, bestShared, bestIndexed, bestNDV = i, shared, indexed, c.NDV
		}
	}
	return rel.Columns[best].Name
}

// OwnerMap renders the map as relation → owning worker addresses, the form
// the exchange transport consumes (ClusterConfig.Owners).
func (m *Map) OwnerMap() map[string][]string {
	out := make(map[string][]string, len(m.Assignments))
	for name, a := range m.Assignments {
		out[name] = append([]string(nil), a.Workers...)
	}
	return out
}

// Prune returns a copy of the map restricted to the given live workers,
// preserving owner order; relations left with no owner are dropped (their
// scans fall back to coordinator streaming). Sound because any worker can
// materialize any (part, parts) shard — shrinking the owner set just
// re-shards the relation across the survivors.
func (m *Map) Prune(live []string) *Map {
	alive := make(map[string]bool, len(live))
	for _, a := range live {
		alive[a] = true
	}
	out := &Map{
		CatalogVersion: m.CatalogVersion,
		Epoch:          m.Epoch,
		Seed:           m.Seed,
		Assignments:    make(map[string]Assignment, len(m.Assignments)),
	}
	for name, a := range m.Assignments {
		var kept []string
		for _, w := range a.Workers {
			if alive[w] {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			continue
		}
		out.Assignments[name] = Assignment{Relation: name, Column: a.Column, Workers: kept}
	}
	return out
}

// Columns renders the map as relation → partitioning column, the form the
// cost model consumes.
func (m *Map) Columns() map[string]string {
	out := make(map[string]string, len(m.Assignments))
	for name, a := range m.Assignments {
		out[name] = a.Column
	}
	return out
}

// Fingerprint hashes the map's full placement-relevant state; the service
// mixes it into plan-cache keys so installing or changing a placement
// invalidates cached plans.
func (m *Map) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "v=%s seed=%d\n", m.CatalogVersion, m.Seed)
	names := make([]string, 0, len(m.Assignments))
	for n := range m.Assignments {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := m.Assignments[n]
		fmt.Fprintf(&sb, "%s|%s|%s\n", n, a.Column, strings.Join(a.Workers, ","))
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:8])
}

// Register names one worker process by its exchange listen address — the
// body of POST /cluster/register and /cluster/deregister, a daemon↔worker
// document kept here so the worker links no serving code. HTTP, when
// present, is the worker's own HTTP base URL (its /metrics and /healthz),
// which GET /cluster/metrics federates.
type Register struct {
	Addr string `json:"addr"`
	HTTP string `json:"http,omitempty"`
}

// Document describes an installed placement map — the body of both
// /cluster/placement routes. Workers bootstrap from the GET form: Snapshot
// carries the full catalog (statistics included), Map the assignments and
// generation seed, Epoch the membership epoch sampled with it.
type Document struct {
	Map         *Map                `json:"map"`
	Fingerprint string              `json:"fingerprint"`
	Epoch       int64               `json:"epoch"`
	Snapshot    catalog.SnapshotDoc `json:"snapshot"`
}

// MaxBodyBytes bounds every HTTP body the daemon reads (schemas can be large;
// queries are small) and every daemon response a worker reads.
const MaxBodyBytes = 4 << 20
