// Package tlb models the node's hardware memory-management unit in the
// spirit of SST's Samba module (§IV): per-core two-level TLBs (32/256
// entries, Table II), a page-table walker, and a small page-table-walk (PTW)
// cache that holds upper-level entries to shorten walks (the [8]
// optimization the paper folds into its baselines).
//
// The same table and PTW-cache structures are reused by the STU for its
// system-level translation cache (all three organizations instantiate
// Table) and its FAM-table walker.
//
// Invariants: lookups and fills allocate nothing in steady state (dense
// mask-indexed arrays, no maps), and replacement is a deterministic
// function of the access history — both load-bearing for the simulator's
// byte-identical-output guarantee.
package tlb

import "fmt"

// Table is a set-associative lookup table from uint64 keys to values of
// type V with LRU replacement: the node TLBs (V = page number) and the
// STU's three cache organizations share it. Each way carries an LRU stamp;
// an invalid way counts as stamp 0, so empty ways fill first and ties go to
// the lowest way. Sets are indexed by mask when the set count is a power of
// two and by modulo otherwise.
type Table[V any] struct {
	name    string
	sets    uint64
	setMask uint64 // sets-1; used when pow2
	pow2    bool
	ways    int
	tags    []uint64
	values  []V
	valid   []bool
	stamps  []uint64
	tick    uint64
	hits    uint64
	misses  uint64
	flushes uint64
}

// TLB is a translation lookaside buffer mapping page numbers to page
// numbers.
type TLB = Table[uint64]

// checkGeometry validates a table geometry: entries a positive multiple of
// ways and, when pow2Sets is set, a power-of-two set count.
func checkGeometry(name string, entries, ways int, pow2Sets bool) error {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return fmt.Errorf("tlb %s: bad geometry entries=%d ways=%d", name, entries, ways)
	}
	if sets := entries / ways; pow2Sets && sets&(sets-1) != 0 {
		return fmt.Errorf("tlb %s: set count %d not a power of two", name, sets)
	}
	return nil
}

// NewTable builds a table with the given total entry count and
// associativity. Entries must be a positive multiple of ways; any set count
// is accepted.
func NewTable[V any](name string, entries, ways int) (*Table[V], error) {
	if err := checkGeometry(name, entries, ways, false); err != nil {
		return nil, err
	}
	sets := uint64(entries / ways)
	return &Table[V]{
		name:    name,
		sets:    sets,
		setMask: sets - 1,
		pow2:    sets&(sets-1) == 0,
		ways:    ways,
		tags:    make([]uint64, entries),
		values:  make([]V, entries),
		valid:   make([]bool, entries),
		stamps:  make([]uint64, entries),
	}, nil
}

// New builds a TLB with the given total entry count and associativity.
// Entries must be a power-of-two multiple of ways.
func New(name string, entries, ways int) (*TLB, error) {
	if err := checkGeometry(name, entries, ways, true); err != nil {
		return nil, err
	}
	return NewTable[uint64](name, entries, ways)
}

func (t *Table[V]) setBase(key uint64) uint64 {
	if t.pow2 {
		return (key & t.setMask) * uint64(t.ways)
	}
	return (key % t.sets) * uint64(t.ways)
}

// Lookup searches for key, updating LRU state on hit.
func (t *Table[V]) Lookup(key uint64) (value V, ok bool) {
	base := t.setBase(key)
	t.tick++
	for w := 0; w < t.ways; w++ {
		i := base + uint64(w)
		if t.valid[i] && t.tags[i] == key {
			t.stamps[i] = t.tick
			t.hits++
			return t.values[i], true
		}
	}
	t.misses++
	return value, false
}

// Insert installs key → value, evicting the set's LRU entry if needed.
func (t *Table[V]) Insert(key uint64, value V) {
	base := t.setBase(key)
	t.tick++
	victim := base
	victimStamp := ^uint64(0)
	for w := 0; w < t.ways; w++ {
		i := base + uint64(w)
		if t.valid[i] && t.tags[i] == key {
			t.values[i] = value
			t.stamps[i] = t.tick
			return
		}
		stamp := t.stamps[i]
		if !t.valid[i] {
			stamp = 0
		}
		if stamp < victimStamp {
			victimStamp = stamp
			victim = i
		}
	}
	t.tags[victim] = key
	t.values[victim] = value
	t.valid[victim] = true
	t.stamps[victim] = t.tick
}

// Invalidate removes key if present (a single-page shootdown).
func (t *Table[V]) Invalidate(key uint64) bool {
	base := t.setBase(key)
	for w := 0; w < t.ways; w++ {
		i := base + uint64(w)
		if t.valid[i] && t.tags[i] == key {
			t.valid[i] = false
			return true
		}
	}
	return false
}

// Flush empties the table (full shootdown, e.g. on job migration).
func (t *Table[V]) Flush() {
	for i := range t.valid {
		t.valid[i] = false
	}
	t.flushes++
}

// Hits returns the hit count.
func (t *Table[V]) Hits() uint64 { return t.hits }

// Misses returns the miss count.
func (t *Table[V]) Misses() uint64 { return t.misses }

// HitRate returns hits/(hits+misses), 0 when unused.
func (t *Table[V]) HitRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.hits) / float64(total)
}

// Name returns the table's name.
func (t *Table[V]) Name() string { return t.name }
