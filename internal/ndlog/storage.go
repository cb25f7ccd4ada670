package ndlog

import "strconv"

// table is the indexed store behind one materialized relation: rows in
// insertion (sequence) order for deterministic iteration, a primary-key map
// for upserts and deletes, and the secondary hash indexes the join planner
// requested at compile time.
//
// Deletion tombstones the row (gone flag) and removes it from the key map
// and index buckets; the sequence-ordered slice is compacted once tombstones
// outnumber live rows, so scans stay amortized O(live) and deletes O(1) plus
// the touched buckets.
type table struct {
	name    string
	keyCols []int // primary-key columns (nil = all columns)
	byKey   map[string]*Row
	rows    []*Row // insertion order; may contain tombstoned rows
	live    int
	dead    int
	indexes []*index
	nextSeq int64
}

// index is a secondary hash index over a fixed column set. Buckets hold
// rows in insertion order; rows carrying a * wildcard in an indexed column
// match every lookup key, so they live in a seq-ordered overflow list that
// lookups merge back in. An index lookup therefore enumerates exactly the
// rows a sequential scan would have offered to unification on those
// columns, in the same order — the property the differential oracle relies
// on. Unification remains the final arbiter; the index only prunes rows
// that provably cannot match.
type index struct {
	cols    []int
	buckets map[string][]*Row
	wild    []*Row
}

func newTable(name string, keyCols []int) *table {
	return &table{name: name, keyCols: keyCols, byKey: make(map[string]*Row)}
}

// ensureIndex returns the table's index over cols, creating it if needed.
// Plans are compiled in NewEngine, so every index precedes any row.
func (t *table) ensureIndex(cols []int) *index {
	for _, x := range t.indexes {
		if sameCols(x.cols, cols) {
			return x
		}
	}
	x := &index{cols: cols, buckets: make(map[string][]*Row)}
	t.indexes = append(t.indexes, x)
	return x
}

// appendHashKey appends v's index-key encoding to dst. Unlike Value.Key,
// booleans normalize to their integer encoding, because Value.Equal treats
// int and bool numerically equal and hash buckets must not separate values
// that unification would join. Wildcards are handled out of band (see
// index.wild); callers detect them before encoding.
func appendHashKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindInt, KindBool:
		return strconv.AppendInt(append(dst, 'i'), v.Int, 10)
	case KindString:
		dst = strconv.AppendInt(append(dst, 's'), int64(len(v.Str)), 10)
		return append(append(dst, ':'), v.Str...)
	}
	return append(dst, '*')
}

// keyOf appends the index key for the given argument values to dst; ok is
// false when an indexed column holds a wildcard (no single bucket applies).
func (x *index) keyOf(dst []byte, args []Value) (_ []byte, ok bool) {
	for _, c := range x.cols {
		if c >= len(args) || args[c].Kind == KindWild {
			return dst, false
		}
		dst = appendHashKey(dst, args[c])
	}
	return dst, true
}

// add stores a row in its bucket, or in the wildcard overflow when one of
// the indexed columns is a *.
func (x *index) add(buf []byte, row *Row) []byte {
	buf, ok := x.keyOf(buf[:0], row.Tuple.Args)
	if !ok {
		x.wild = append(x.wild, row)
		return buf
	}
	k := string(buf)
	x.buckets[k] = append(x.buckets[k], row)
	return buf
}

func (x *index) remove(buf []byte, row *Row) []byte {
	buf, ok := x.keyOf(buf[:0], row.Tuple.Args)
	if !ok {
		x.wild = removeRow(x.wild, row)
		return buf
	}
	k := string(buf)
	if bucket := removeRow(x.buckets[k], row); len(bucket) > 0 {
		x.buckets[k] = bucket
	} else {
		delete(x.buckets, k)
	}
	return buf
}

func removeRow(rows []*Row, row *Row) []*Row {
	for i, r := range rows {
		if r == row {
			return append(rows[:i:i], rows[i+1:]...)
		}
	}
	return rows
}

// rowsFor returns the candidate rows for a lookup key in insertion order:
// the key's bucket merged with the wildcard overflow. The common case (no
// wildcard rows) returns the bucket slice without copying.
func (x *index) rowsFor(key string) []*Row {
	bucket := x.buckets[key]
	if len(x.wild) == 0 {
		return bucket
	}
	if len(bucket) == 0 {
		return x.wild
	}
	out := make([]*Row, 0, len(bucket)+len(x.wild))
	i, j := 0, 0
	for i < len(bucket) && j < len(x.wild) {
		if bucket[i].seq < x.wild[j].seq {
			out = append(out, bucket[i])
			i++
		} else {
			out = append(out, x.wild[j])
			j++
		}
	}
	out = append(out, bucket[i:]...)
	return append(out, x.wild[j:]...)
}

// insert stores a row under its primary key and in every index. The caller
// has already ensured no live row shares the primary key.
func (t *table) insert(row *Row) {
	row.seq = t.nextSeq
	t.nextSeq++
	row.key = row.Tuple.PrimaryKey(t.keyCols)
	t.rows = append(t.rows, row)
	t.live++
	t.byKey[row.key] = row
	var buf []byte
	for _, x := range t.indexes {
		buf = x.add(buf, row)
	}
}

// lookup returns the live row stored under the given primary key, if any.
func (t *table) lookup(pk string) (*Row, bool) {
	row, ok := t.byKey[pk]
	return row, ok
}

// remove tombstones a row: it leaves the sequence-ordered slice (compacted
// lazily) and is deleted from the key map and every index.
func (t *table) remove(row *Row) {
	if row.gone {
		return
	}
	row.gone = true
	t.live--
	t.dead++
	if cur, ok := t.byKey[row.key]; ok && cur == row {
		delete(t.byKey, row.key)
	}
	var buf []byte
	for _, x := range t.indexes {
		buf = x.remove(buf, row)
	}
	if t.dead > t.live && t.dead > 32 {
		t.compact()
	}
}

// compact drops tombstoned rows from the sequence-ordered slice. Relative
// order (and therefore iteration determinism) is preserved; index buckets
// never hold tombstones, so only the scan slice needs sweeping.
func (t *table) compact() {
	kept := t.rows[:0]
	for _, r := range t.rows {
		if !r.gone {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(t.rows); i++ {
		t.rows[i] = nil
	}
	t.rows = kept
	t.dead = 0
}
