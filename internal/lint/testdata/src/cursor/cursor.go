// Package cursor is the cursorclose fixture: the cursor shapes (Next +
// Close, and the task form Pull(*sim.Task) + Close) with leaking and
// non-leaking callers.
package cursor

import "sim"

type Batch struct{ Rows int }

// Cursor has the storage.Cursor shape the analyzer recognizes.
type Cursor interface {
	Next() (Batch, bool)
	Close()
}

type source struct{}

func (s *source) Next() (Batch, bool) { return Batch{}, false }
func (s *source) Close()              {}

func Open() Cursor           { return &source{} }
func OpenVal() source        { return source{} }
func Open2() (Cursor, error) { return &source{}, nil }
func consume(c Cursor)       {}

func Leak() int {
	c := Open() // want `cursor "c" is never closed or handed off`
	n := 0
	for {
		_, ok := c.Next()
		if !ok {
			break
		}
		n++
	}
	return n
}

// Closed defers Close: no diagnostic.
func Closed() {
	c := Open()
	defer c.Close()
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
}

// ClosedOnOnePath closes explicitly in a branch; the check is any-path.
func ClosedOnOnePath(stop bool) {
	c := Open()
	if stop {
		c.Close()
		return
	}
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
}

// HandedOff passes the cursor to a consumer: no diagnostic.
func HandedOff() {
	c := Open()
	consume(c)
}

// Returned hands the cursor to the caller: no diagnostic.
func Returned() Cursor {
	c := Open()
	return c
}

// Stored escapes into a composite literal: no diagnostic.
func Stored() []Cursor {
	c := Open()
	return []Cursor{c}
}

// AddrEscapes escapes by address: no diagnostic.
func AddrEscapes() Cursor {
	v := OpenVal()
	return &v
}

// ValLeak leaks a value-typed cursor (methods on the pointer).
func ValLeak() {
	v := OpenVal() // want `cursor "v" is never closed or handed off`
	_, _ = v.Next()
}

func Discarded() {
	Open() // want `cursor returned here is discarded`
}

func Blanked() {
	_, _ = Open2() // want `cursor returned here is discarded via _`
}

// SecondResult tracks the cursor position of a multi-result call.
func SecondResult() {
	c, err := Open2() // want `cursor "c" is never closed or handed off`
	_ = err
	_, _ = c.Next()
}

// Suppressed carries a justified suppression: no diagnostic.
func Suppressed() {
	//lint:closed fixture: the source is memory-backed, nothing to release
	c := Open()
	_, _ = c.Next()
}

// Bare carries a reasonless suppression: finding plus directive report.
func Bare() {
	//lint:closed
	c := Open() // want `cursor "c" is never closed` @-1 `requires a justification`
	_, _ = c.Next()
}

// scan has the task form: a Pull taking *sim.Task, plus Close.
type scan struct{}

func (s *scan) Pull(t *sim.Task) (Batch, bool) { return Batch{}, true }
func (s *scan) Close()                         {}

func OpenScan() *scan { return &scan{} }

// TaskLeak pulls a task-form cursor and never closes it.
func TaskLeak(t *sim.Task) {
	c := OpenScan() // want `cursor "c" is never closed or handed off`
	_, _ = c.Pull(t)
}

// TaskClosed closes the task-form cursor: no diagnostic.
func TaskClosed(t *sim.Task) {
	c := OpenScan()
	for {
		if _, done := c.Pull(t); done {
			break
		}
	}
	c.Close()
}

// counter pulls from an int, not a task: not a cursor.
type counter struct{}

func (c *counter) Pull(n int) (Batch, bool) { return Batch{}, true }
func (c *counter) Close()                   {}

// NotACursor never closes a counter: no diagnostic.
func NotACursor() {
	c := &counter{}
	_, _ = c.Pull(1)
	n := newCounter()
	_, _ = n.Pull(2)
}

func newCounter() *counter { return &counter{} }
