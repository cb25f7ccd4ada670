package ndlog

import (
	"fmt"
	"strings"
)

// Tuple is a concrete fact: a table name plus argument values. The location
// of the tuple (the node it resides on) is one of its arguments; which one
// is determined by the table's location index (see Engine.LocIndex).
//
// Tags is the backtesting tag set of §4.4: a bitmask naming the repair
// candidates whose variant of the program this tuple exists under. Outside
// of backtesting, Tags is AllTags.
//
// A tuple's Args must not be mutated once Key or PrimaryKey has been called:
// both cache their interned string on first use (the engine computes them
// once per insertion, so listeners and stores never rebuild them). The
// caches travel with value copies, which keeps concurrent use safe: tuples
// shared across goroutines are passed and ranged by value, so a lazy fill
// only ever writes to a goroutine-local copy.
type Tuple struct {
	Table string
	Args  []Value
	Tags  uint64

	key      string // cached Key(); "" = not yet computed
	pkey     string // cached PrimaryKey(pkeyCols)
	pkeyCols []int
}

// NewTuple builds a tuple with all tags set.
func NewTuple(table string, args ...Value) Tuple {
	return Tuple{Table: table, Args: args, Tags: AllTags}
}

// String renders the tuple as Table(v1,v2,...).
func (t Tuple) String() string {
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", t.Table, strings.Join(parts, ","))
}

// Key returns a canonical identity string over all arguments (ignoring
// tags); two tuples with equal Key are the same fact. The string is interned
// on the receiver, so repeated calls (and calls on copies of the receiver)
// return the cached value without rebuilding it.
func (t *Tuple) Key() string {
	if t.key == "" {
		b := make([]byte, 0, len(t.Table)+8*len(t.Args)+1)
		b = append(b, t.Table...)
		for i := range t.Args {
			b = append(b, '|')
			b = t.Args[i].AppendKey(b)
		}
		t.key = string(b)
	}
	return t.key
}

// PrimaryKey returns the identity string over the given key columns; an
// empty keys slice means all columns form the key. Like Key, the result is
// interned on the receiver (per column set).
func (t *Tuple) PrimaryKey(keys []int) string {
	if len(keys) == 0 {
		return t.Key()
	}
	if t.pkey != "" && sameCols(t.pkeyCols, keys) {
		return t.pkey
	}
	b := make([]byte, 0, len(t.Table)+8*len(keys)+1)
	b = append(b, t.Table...)
	for _, k := range keys {
		b = append(b, '|')
		if k < len(t.Args) {
			b = t.Args[k].AppendKey(b)
		}
	}
	t.pkey, t.pkeyCols = string(b), keys
	return t.pkey
}

func sameCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two tuples denote the same fact (tags ignored).
func (t Tuple) Equal(o Tuple) bool {
	if t.Table != o.Table || len(t.Args) != len(o.Args) {
		return false
	}
	for i := range t.Args {
		if !t.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// Clone deep-copies the tuple. The interned key caches are deliberately
// dropped: a clone is the one tuple callers are allowed to mutate (repair
// candidates rewrite cloned base-tuple arguments), and a carried cache
// would keep reporting the pre-mutation identity.
func (t Tuple) Clone() Tuple {
	args := make([]Value, len(t.Args))
	copy(args, t.Args)
	c := t
	c.Args = args
	c.key, c.pkey, c.pkeyCols = "", "", nil
	return c
}

// Row is a stored tuple plus bookkeeping: its insertion sequence number
// (iteration over a table is deterministic in seq order), the interned
// primary key it is stored under, how many derivations currently support
// it, whether one of those supports is a base insertion, and the derivation
// records linking it into the dependency graph (for recursive underivation
// on delete).
type Row struct {
	Tuple   Tuple
	Support int
	Base    bool
	seq     int64
	key     string        // primary key within its table
	gone    bool          // removed from its table (tombstoned)
	usedBy  []*derivation // derivations consuming this row
}

// Seq returns the row's insertion sequence number within its table.
func (r *Row) Seq() int64 { return r.seq }

// derivation records one rule firing: the rule, the body rows consumed, and
// the head row produced. It is the unit of support counting.
type derivation struct {
	rule *Rule
	head *Row
	body []*Row
	dead bool
}
