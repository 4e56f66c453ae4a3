package engine

// Hash partitioning of a database into first-column shards — the
// storage half of the sharded execution backend (internal/shard). A
// Partitioning splits every concept table on its member column and
// every role table on its subject column, so any join whose atoms all
// bind the same first-column variable is co-partitioned: every match
// lives wholly inside one shard and the shards can be evaluated
// independently. Relations that a plan cannot align are exposed
// "broadcast": each shard's view reads the full base table for them.
//
// The shards share the base dictionary, so ids (and therefore hashes,
// join keys, and decoded answers) are identical across shards and the
// base.

import "fmt"

// ShardOf maps a dictionary id to its shard among n. Ids are assigned
// densely in insertion order, so they are mixed first — modulo alone
// would correlate shards with load order.
func ShardOf(id int64, n int) int {
	return int(mix64(uint64(id)) % uint64(n))
}

// Partitioning is a database split into n first-column hash shards.
type Partitioning struct {
	Base   *DB
	shards []*DB
}

// Partition splits db into n shards. It requires the simple layout
// (the RDF layout's entity-hashed tables are monolithic); pending
// writes to the base are finalized first. n < 1 is an error; n == 1 degenerates to the base
// itself, so a single-shard backend behaves exactly like the native
// one plus the merge operator.
func Partition(db *DB, n int) (*Partitioning, error) {
	if n < 1 {
		return nil, fmt.Errorf("engine: cannot partition into %d shards", n)
	}
	if db.Layout != LayoutSimple {
		return nil, fmt.Errorf("engine: partitioning requires the simple layout, have %s", db.Layout)
	}
	db.Stats() // finalizes pending writes, which the tables do not hold yet
	p := &Partitioning{Base: db}
	if n == 1 {
		p.shards = []*DB{db}
		return p, nil
	}
	p.shards = make([]*DB, n)
	for i := range p.shards {
		p.shards[i] = &DB{
			Dict:     db.Dict,
			Layout:   LayoutSimple,
			concepts: make(map[string]*ConceptTable, len(db.concepts)),
			roles:    make(map[string]*RoleTable, len(db.roles)),
		}
	}
	for name, t := range db.concepts {
		parts := make([]*ConceptTable, n)
		for i := range parts {
			parts[i] = new(ConceptTable)
		}
		for _, id := range t.IDs {
			parts[ShardOf(id, n)].add(id)
		}
		for i := range parts {
			p.shards[i].concepts[name] = parts[i]
		}
	}
	for name, t := range db.roles {
		parts := make([]*RoleTable, n)
		for i := range parts {
			parts[i] = new(RoleTable)
		}
		for _, pair := range t.Pairs {
			parts[ShardOf(pair[0], n)].add(pair[0], pair[1])
		}
		for i := range parts {
			p.shards[i].roles[name] = parts[i]
		}
	}
	for _, s := range p.shards {
		s.Finalize()
	}
	return p, nil
}

// NumShards returns the shard count.
func (p *Partitioning) NumShards() int { return len(p.shards) }

// Shard returns shard i's fully partitioned database (every relation
// split). Most callers want View instead.
func (p *Partitioning) Shard(i int) *DB { return p.shards[i] }

// View returns shard i's database for one plan's partitioning choice:
// relations in partitioned read shard i's split table, everything else
// reads the full base table (the broadcast side of non-aligned joins).
// The view shares all table storage and the dictionary; only the maps
// and statistics are fresh. Views are immutable snapshots — mutating
// the base after partitioning is not supported.
func (p *Partitioning) View(i int, partitioned map[string]bool) *DB {
	if len(p.shards) == 1 {
		return p.Base
	}
	sh := p.shards[i]
	v := &DB{
		Dict:     p.Base.Dict,
		Layout:   LayoutSimple,
		concepts: make(map[string]*ConceptTable, len(p.Base.concepts)),
		roles:    make(map[string]*RoleTable, len(p.Base.roles)),
	}
	for name, t := range p.Base.concepts {
		if partitioned[name] {
			v.concepts[name] = sh.concepts[name]
		} else {
			v.concepts[name] = t
		}
	}
	for name, t := range p.Base.roles {
		if partitioned[name] {
			v.roles[name] = sh.roles[name]
		} else {
			v.roles[name] = t
		}
	}
	// Tables are already finalized (sorted, indexed); only the
	// statistics need computing for this mix.
	v.stats = computeStatistics(v)
	return v
}
