// Package fields is the fixture of the unread-field guard: each field of
// T is named for the one way the package uses it. The guard reports the
// fields that are only written (assigned, op-assigned, incremented, or set
// in a composite literal) and the one read only through reflection.
package fields

import "fmt"

type Inner struct {
	promoted int // read as t.promoted, through the embedded Inner
}

type T struct {
	Inner

	assigned    int // reported: only assigned
	opAssigned  int // reported: only +='d
	incremented int // reported: only ++'d
	literal     int // reported: only a composite-literal key
	reflected   int // reported: %+v reads it, and reflection is invisible

	selected  int    // read by a selector
	addressed int    // read through &t.addressed
	index     int    // read as an index inside a written operand
	via       *Inner // read on the path to a written field

	tagged int `json:"tagged"` // exempt: encoding/json reads a tagged field
	_      int // exempt: a blank field cannot be read
}

func Use(t *T, m map[int]int) string {
	t.assigned = 1
	t.opAssigned += 2
	t.incremented++
	u := T{literal: 3, reflected: 4, tagged: 5}
	p := &t.addressed
	*p = t.selected
	m[t.index] = t.promoted
	t.via.promoted = 6
	return fmt.Sprintf("%+v", u)
}
