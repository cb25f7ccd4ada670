// Package metaprov implements meta provenance (§3 of the paper): a
// provenance graph extended with meta tuples that describe the program
// itself, explored as a *forest* of partial trees in cost order (§3.3,
// §3.5, Fig. 17). Expanding a vertex with k individually-sufficient
// choices forks the tree k ways; each tree threads a constraint pool
// (§3.4) that must be satisfiable for the completed tree to yield a repair
// candidate (Fig. 5).
package metaprov

import (
	"container/heap"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cost"
	"repro/internal/meta"
	"repro/internal/ndlog"
	"repro/internal/solver"
)

// VertexKind enumerates meta-provenance vertex kinds.
type VertexKind uint8

const (
	// VNExist is a missing tuple the repair must make appear.
	VNExist VertexKind = iota
	// VNDerive is a missing derivation through a specific rule.
	VNDerive
	// VExist cites an existing (historical) tuple.
	VExist
	// VInsertBase proposes inserting a base tuple.
	VInsertBase
	// VMetaExist cites an existing program element (meta tuple).
	VMetaExist
	// VNMetaExist proposes a program change (missing meta tuple).
	VNMetaExist
	// VSelTrue records a selection constraint threaded into the pool.
	VSelTrue
)

var vkNames = [...]string{
	"NEXIST", "NDERIVE", "EXIST", "INSERT-BASE", "META-EXIST", "NMETA-EXIST", "SEL-TRUE",
}

// String returns the vertex kind's display name.
func (k VertexKind) String() string {
	if int(k) < len(vkNames) {
		return vkNames[k]
	}
	return "?"
}

// Vertex is a node of one meta-provenance tree.
type Vertex struct {
	Kind     VertexKind
	Label    string
	Children []*Vertex
}

// Render pretty-prints the subtree.
func (v *Vertex) Render() string {
	var b strings.Builder
	v.render(&b, 0)
	return b.String()
}

func (v *Vertex) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(v.Kind.String())
	b.WriteByte('[')
	b.WriteString(v.Label)
	b.WriteString("]\n")
	for _, c := range v.Children {
		c.render(b, depth+1)
	}
}

// Size returns the number of vertices in the subtree.
func (v *Vertex) Size() int {
	n := 1
	for _, c := range v.Children {
		n += c.Size()
	}
	return n
}

// Goal specifies a missing tuple: a table plus one solver term per column.
// Constant terms pin columns; variable terms link columns into the pool.
type Goal struct {
	Table string
	Args  []solver.Term
}

// String renders the goal, e.g. FlowTable(3,80,Prt?).
func (g Goal) String() string {
	parts := make([]string, len(g.Args))
	for i, a := range g.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", g.Table, strings.Join(parts, ","))
}

// PinnedGoal builds a goal from optional pinned values; nil entries become
// free variables named <table>.argN.
func PinnedGoal(table string, args ...*ndlog.Value) Goal {
	g := Goal{Table: table}
	for i, a := range args {
		if a == nil {
			g.Args = append(g.Args, solver.V(fmt.Sprintf("%s.arg%d", table, i)))
		} else {
			g.Args = append(g.Args, solver.C(*a))
		}
	}
	return g
}

// pendingConst is a constant change whose new value is chosen by the
// solver when the tree completes (CHANGETUPLE(τ, A) in Fig. 5).
type pendingConst struct {
	RuleID string
	Path   string
	Old    ndlog.Value
	Var    string // solver variable holding the new value
}

// pendingInsert is a base-tuple insertion whose argument values are chosen
// by the solver when the tree completes. Columns with a Fixed value (e.g.
// the wildcard for unconstrained goal columns) bypass the solver.
type pendingInsert struct {
	Table string
	Vars  []string       // solver variable per column ("" when fixed)
	Fixed []*ndlog.Value // fixed value per column (nil when solver-chosen)
}

// deferredCheck re-evaluates an expression that could not be translated
// into pool constraints once the assignment is concrete.
type deferredCheck struct {
	rule *ndlog.Rule
	sel  *ndlog.Selection
	env  map[string]string // rule var -> solver var; read-only
}

// Tree is one (partial or complete) meta-provenance tree: the vertices
// grown so far, the constraint pool, accumulated changes, and the pending
// obligations that still need expansion.
//
// A fork that adds constraints is built only after its pruning verdict,
// a trial on scratch storage, has found them satisfiable: most forks of a
// search would be pruned, and those are never built. Forking a survivor
// still happens thousands of times per search, so everything a fork
// inherits is shared rather than copied: the vertices are a linked log the
// fork appends to, obligations are immutable, the pool shares its
// constraint list, and the small slices are clipped so an append in the
// fork reallocates instead of writing into the parent's array.
type Tree struct {
	Pool *solver.Pool
	Cost float64

	verts    *vertexLog // newest vertex first; shared with the trees forked from this one
	nverts   int32
	todos    []*obligation
	changes  []meta.Change
	pConsts  []pendingConst
	pInserts []pendingInsert
	deferred []deferredCheck
	varSeq   int
	instSeq  int
	// seq is the tree's admission number into the frontier, assigned in
	// the order trees are committed to the search. Together with (Cost,
	// len(todos)) it makes the frontier a strict total order, so the
	// sequential search and the concurrent stream visit trees in exactly
	// the same sequence.
	seq uint64
}

// vertexLog records one vertex being attached under a parent. Vertex IDs
// count up from 0 (the root, whose parent is -1) in attachment order, so a
// fork's ID for a vertex equals its parent tree's.
type vertexLog struct {
	prev   *vertexLog
	parent int32
	kind   VertexKind
	label  string
}

// Complete reports whether the tree has no unexpanded vertices.
func (t *Tree) Complete() bool { return len(t.todos) == 0 }

// attach adds a vertex under parent and returns its ID.
func (t *Tree) attach(parent int32, kind VertexKind, label string) int32 {
	t.verts = &vertexLog{prev: t.verts, parent: parent, kind: kind, label: label}
	t.nverts++
	return t.nverts - 1
}

// Root materialises the vertex tree, children in attachment order.
func (t *Tree) Root() *Vertex {
	vs := make([]Vertex, t.nverts)
	parents := make([]int32, t.nverts)
	i := t.nverts
	for l := t.verts; l != nil; l = l.prev {
		i--
		vs[i].Kind, vs[i].Label = l.kind, l.label
		parents[i] = l.parent
	}
	for i := 1; i < len(vs); i++ {
		p := &vs[parents[i]]
		p.Children = append(p.Children, &vs[i])
	}
	return &vs[0]
}

// forkFor returns a copy of the tree with its head obligation popped,
// charged one expansion step plus the cost c of the change the fork makes,
// and ready to grow independently of the tree and of its other forks.
// Callers that add constraints take the fork's verdict first
// (Explorer.forkWith), so the copy is made only for a survivor.
func (t *Tree) forkFor(c float64) *Tree {
	n := *t
	n.Cost = t.Cost + c + cost.ExpandStep
	n.Pool = t.Pool.Clone()
	n.todos = slices.Clip(t.todos[1:])
	n.changes = slices.Clip(t.changes)
	n.pConsts = slices.Clip(t.pConsts)
	n.pInserts = slices.Clip(t.pInserts)
	n.deferred = slices.Clip(t.deferred)
	return &n
}

// varName names the k-th fresh solver variable (k from 1) of a fork of t;
// the fork takes the first k names with varSeq += k. A fork's constraints
// are written, and their verdict taken, before the fork exists, so the
// names come from the tree it is forked from.
func (t *Tree) varName(hint string, k int) string {
	return hint + "~" + strconv.Itoa(t.varSeq+k)
}

// instName names the next rule instantiation of a fork of t; the fork
// takes it with instSeq++.
func (t *Tree) instName(rule string) string {
	return rule + "#" + strconv.Itoa(t.instSeq+1)
}

// treeHeap orders trees by (cost, unexpanded-vertex count, admission
// sequence), the §3.5 exploration order refined into a strict total order:
// the seq tiebreak pins the order of equally-cheap, equally-complete trees
// to their admission order, which is what lets the concurrent stream
// reproduce the sequential search candidate for candidate.
type treeHeap []*Tree

func (h treeHeap) Len() int { return len(h) }
func (h treeHeap) Less(i, j int) bool {
	if h[i].Cost != h[j].Cost {
		return h[i].Cost < h[j].Cost
	}
	if len(h[i].todos) != len(h[j].todos) {
		return len(h[i].todos) < len(h[j].todos)
	}
	return h[i].seq < h[j].seq
}
func (h treeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *treeHeap) Push(x any)   { *h = append(*h, x.(*Tree)) }
func (h *treeHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }
func (h treeHeap) Peek() *Tree   { return h[0] }
func (h *treeHeap) push(t *Tree) { heap.Push(h, t) }
func (h *treeHeap) pop() *Tree   { return heap.Pop(h).(*Tree) }
