package optree

// Arena holds operators built to be priced and mostly thrown away: Reset
// recycles them all at once, and a caller copies out the ones it keeps.
// An Arena belongs to one goroutine; a nil one builds on the heap.
type Arena struct {
	ops []Op
	ins []*Op
}

// Reset recycles every operator carved from a.
func (a *Arena) Reset() { a.ops, a.ins = a.ops[:0], a.ins[:0] }

// op carves a copy of o from a. A full chunk is replaced, never grown.
func (a *Arena) op(o Op) *Op {
	if a == nil {
		p := new(Op)
		*p = o
		return p
	}
	if len(a.ops) == cap(a.ops) {
		a.ops = make([]Op, 0, max(2*cap(a.ops), 16))
	}
	a.ops = append(a.ops, o)
	return &a.ops[len(a.ops)-1]
}

// inputs carves an Inputs slice holding in from a.
func (a *Arena) inputs(in ...*Op) []*Op {
	if a == nil {
		return append([]*Op(nil), in...)
	}
	if len(a.ins)+len(in) > cap(a.ins) {
		a.ins = make([]*Op, 0, max(2*cap(a.ins), 32))
	}
	a.ins = append(a.ins, in...)
	return a.ins[len(a.ins)-len(in) : len(a.ins) : len(a.ins)]
}
