package placement

import (
	"errors"
	"fmt"
	"sync"

	"paropt/internal/catalog"
	"paropt/internal/engine/exchange"
	"paropt/internal/storage"
	"paropt/internal/vec"
)

// Store is a worker's (or the coordinator-fallback's) partitioned data
// store: it serves hash-partition shards of catalog relations, generated
// deterministically from the catalog + seed. Owned shards are prewarmed and
// cached as pointer-free column slabs that scans alias, never copy; any
// other shard is materialized on demand — generate the
// relation, keep the requested partition, drop the rest — which is what
// lets a surviving worker absorb a re-dispatched fragment it never owned.
type Store struct {
	cat  *catalog.Catalog
	seed int64

	mu     sync.Mutex
	tables map[string]*storage.Table // optional full tables (coordinator reuse)
	shards map[shardKey][][]int64
	// building holds a channel per shard being materialized, closed when it
	// lands in shards.
	building map[shardKey]chan struct{}
}

type shardKey struct {
	rel     string
	hashCol int
	part    int
	parts   int
}

// NewStore builds a store over the catalog with the given generation seed.
func NewStore(cat *catalog.Catalog, seed int64) *Store {
	return &Store{
		cat:      cat,
		seed:     seed,
		tables:   make(map[string]*storage.Table),
		shards:   make(map[shardKey][][]int64),
		building: make(map[shardKey]chan struct{}),
	}
}

// AddTable seeds the store with an already-materialized table (the
// coordinator's analyze database), so fallback scans slice it instead of
// regenerating.
func (s *Store) AddTable(t *storage.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[t.Rel.Name] = t
}

// Prewarm materializes this worker's owned shards under the placement map:
// for each relation owned at position i, the shard hash-partitioned on the
// placement column. Other shards stay lazy.
func (s *Store) Prewarm(m *Map, self string) error {
	for _, name := range s.cat.RelationNames() {
		a, ok := m.Assignments[name]
		if !ok {
			continue
		}
		for i, w := range a.Workers {
			if w != self {
				continue
			}
			rel := s.cat.MustRelation(name)
			col := colPos(rel, a.Column)
			if col < 0 {
				return fmt.Errorf("placement: relation %s has no column %s", name, a.Column)
			}
			if _, err := s.shard(name, col, i, len(a.Workers)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ShardStats reports the cached shard count and their total rows — the
// worker's /healthz gauge of how much placed data it is actually holding
// (prewarmed owned shards plus any lazily materialized ones).
func (s *Store) ShardStats() (shards int, rows int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cols := range s.shards {
		if len(cols) > 0 {
			rows += int64(len(cols[0]))
		}
	}
	return len(s.shards), rows
}

// ErrStaleStats is what ScanPartition refuses a spec with when the spec was
// planned against other statistics of its relation than the store generates
// from — another catalog version's rows.
var ErrStaleStats = errors.New("placement: scan planned against other statistics")

// ScanPartition implements exchange.Store: the cached shard's columns with
// the spec's filters applied as a selection vector. Nothing is copied, so the
// result is read-only. A filter on a column the relation lacks keeps no row.
// A spec stamped with another statistics digest than the store's relation is
// refused with ErrStaleStats.
func (s *Store) ScanPartition(spec exchange.ScanSpec, part, parts int) (*vec.Vec, error) {
	if parts < 1 {
		parts = 1
	}
	if part < 0 || part >= parts {
		return nil, fmt.Errorf("placement: partition %d of %d out of range", part, parts)
	}
	if rel, ok := s.cat.Relation(spec.Relation); ok && spec.Stats != "" {
		if have := rel.StatsDigest(); have != spec.Stats {
			return nil, fmt.Errorf("%w: relation %s is %s here, the scan wants %s", ErrStaleStats, spec.Relation, have, spec.Stats)
		}
	}
	cols, err := s.shard(spec.Relation, spec.HashCol, part, parts)
	if err != nil {
		return nil, err
	}
	v := &vec.Vec{Cols: cols}
	for _, f := range spec.Filters {
		if f.Col < 0 || f.Col >= len(cols) {
			v.Release()
			return &vec.Vec{Cols: cols, Sel: []int32{}}, nil
		}
		nv := v.FilterEq(f.Col, f.Val)
		v.Release()
		v = nv
	}
	return v, nil
}

// shard returns the cached shard, or materializes it: slice an already-held
// full table if present, else generate the relation transiently and keep
// only the requested partition.
func (s *Store) shard(relName string, hashCol, part, parts int) ([][]int64, error) {
	rel, ok := s.cat.Relation(relName)
	if !ok {
		return nil, fmt.Errorf("placement: unknown relation %s", relName)
	}
	if hashCol < 0 || hashCol >= len(rel.Columns) {
		return nil, fmt.Errorf("placement: relation %s hash column %d out of range", relName, hashCol)
	}
	key := shardKey{rel: relName, hashCol: hashCol, part: part, parts: parts}
	// One materialization per shard: a scan that needs the shard a prewarm is
	// building waits for it instead of generating the relation a second time
	// beside it.
	s.mu.Lock()
	for {
		if cols, ok := s.shards[key]; ok {
			s.mu.Unlock()
			return cols, nil
		}
		built, busy := s.building[key]
		if !busy {
			break
		}
		s.mu.Unlock()
		<-built
		s.mu.Lock()
	}
	built := make(chan struct{})
	s.building[key] = built
	t := s.tables[relName]
	s.mu.Unlock()

	if t == nil {
		t = storage.Generate(rel, s.seed)
	}
	cols := storage.Shard(t, hashCol, part, parts)

	s.mu.Lock()
	s.shards[key] = cols
	delete(s.building, key)
	s.mu.Unlock()
	close(built)
	return cols, nil
}

func colPos(rel *catalog.Relation, name string) int {
	for i, c := range rel.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}
