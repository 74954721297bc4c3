package catalog

import "fmt"

// SnapshotDoc is the wire form of a catalog: the full relation and index
// metadata, JSON-encodable. Workers fetch it from the coordinator's
// /cluster/placement endpoint and rebuild an identical catalog with
// FromSnapshot, so worker-side data generation (which reads Card, column
// NDV/Skew, Decluster, SortedBy) produces bit-identical relations to the
// coordinator's — the invariant that makes shipped scans and coordinator
// fallback interchangeable. DDL text would not round-trip here: the schema
// grammar has no syntax for skew or declustering.
type SnapshotDoc struct {
	PageBytes int        `json:"page_bytes"`
	Relations []Relation `json:"relations"`
	Indexes   []Index    `json:"indexes"`
}

// Snapshot captures the catalog's full state in deterministic order.
func (c *Catalog) Snapshot() SnapshotDoc {
	doc := SnapshotDoc{PageBytes: c.PageBytes}
	for _, name := range c.RelationNames() {
		rel := c.relations[name]
		r := *rel
		r.Columns = append([]Column(nil), rel.Columns...)
		r.colIndex = nil
		doc.Relations = append(doc.Relations, r)
		for _, ix := range c.IndexesOn(name) {
			idx := *ix
			idx.Columns = append([]string(nil), ix.Columns...)
			doc.Indexes = append(doc.Indexes, idx)
		}
	}
	return doc
}

// FromSnapshot rebuilds a catalog from a snapshot document.
func FromSnapshot(doc SnapshotDoc) (*Catalog, error) {
	c := New()
	if doc.PageBytes > 0 {
		c.PageBytes = doc.PageBytes
	}
	for _, r := range doc.Relations {
		if _, err := c.AddRelation(r); err != nil {
			return nil, fmt.Errorf("catalog: snapshot: %w", err)
		}
	}
	for _, ix := range doc.Indexes {
		if _, err := c.AddIndex(ix); err != nil {
			return nil, fmt.Errorf("catalog: snapshot: %w", err)
		}
	}
	return c, nil
}
