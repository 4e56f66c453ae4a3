package engine

import (
	"encoding/gob"
	"fmt"
	"io"
)

// snapshot is the serialized form of a database: the dictionary plus
// the logical tables. The physical layout (indexes, RDF tables, stats)
// is rebuilt on load, so snapshots are layout-portable: a snapshot
// written from a simple-layout store can be loaded as an RDF-layout
// one and vice versa.
type snapshot struct {
	Version  int
	Layout   Layout
	Dict     []string
	Concepts map[string][]int64
	Roles    map[string][][2]int64
}

const snapshotVersion = 1

// Save writes the database to w in a binary (gob) format, pending
// writes included.
func (db *DB) Save(w io.Writer) error {
	db.Stats() // finalizes pending writes, which the tables do not hold yet
	s := snapshot{
		Version:  snapshotVersion,
		Layout:   db.Layout,
		Dict:     db.Dict.toS,
		Concepts: make(map[string][]int64, len(db.concepts)),
		Roles:    make(map[string][][2]int64, len(db.roles)),
	}
	for name, t := range db.concepts {
		s.Concepts[name] = t.IDs
	}
	for name, t := range db.roles {
		s.Roles[name] = t.Pairs
	}
	return gob.NewEncoder(w).Encode(s)
}

// Load reads a snapshot written by Save and rebuilds a ready-to-query
// database under the requested layout (pass the snapshot's own layout
// via LayoutFromSnapshot to keep it).
func Load(r io.Reader, layout Layout) (*DB, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("engine: decode snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("engine: unsupported snapshot version %d", s.Version)
	}
	if layout == LayoutFromSnapshot {
		layout = s.Layout
	}
	db := NewDB(layout)
	// Rebuild the dictionary with identical ids.
	for _, str := range s.Dict {
		db.Dict.Encode(str)
	}
	for name, ids := range s.Concepts {
		t := new(ConceptTable)
		for _, id := range ids {
			t.add(id)
		}
		db.concepts[name] = t
	}
	for name, pairs := range s.Roles {
		t := new(RoleTable)
		for _, p := range pairs {
			t.add(p[0], p[1])
		}
		db.roles[name] = t
	}
	db.Finalize()
	return db, nil
}

// LayoutFromSnapshot instructs Load to keep the layout recorded in the
// snapshot.
const LayoutFromSnapshot Layout = -1
