// Package setters is the fixture of the unwritten-field guard: each
// exported field of T is named for the one way the package writes it.
// The guard reports the field only a withDefaults method sets, the one
// nothing sets and the one only encoding/json fills.
package setters

import "encoding/json"

type Inner struct {
	Leaf int // written through t.PathAssigned.Leaf
}

type Counter struct {
	N int // written through c.N++
}

func (c *Counter) Bump() { c.N++ }

type P struct {
	Positional int // written by a positional composite literal
}

type T struct {
	Keyed         int     // written by a composite-literal key
	Assigned      int     // written by t.Assigned = 1
	PathAssigned  Inner   // written on the path of t.PathAssigned.Leaf = 2
	Incremented   int     // written by t.Incremented++
	AddressTaken  int     // written through &t.AddressTaken
	PointerMethod Counter // written by t.PointerMethod.Bump()
	Defaulted     int     // reported: only withDefaults sets it
	Never         int     // reported: nothing sets it
	Decoded       int     // reported: only encoding/json fills it

	Tagged     int `json:"tagged"` // exempt: encoding/json fills a tagged field
	unexported int // exempt: not a setting of the package's API
}

func (t T) withDefaults() T {
	if t.Defaulted == 0 {
		t.Defaulted = 1
	}
	return t
}

func Use(data []byte) (int, error) {
	t := T{Keyed: 1}.withDefaults()
	t.Assigned = 1
	t.PathAssigned.Leaf = 2
	t.Incremented++
	p := &t.AddressTaken
	*p = P{3}.Positional
	t.PointerMethod.Bump()
	if err := json.Unmarshal(data, &t); err != nil {
		return 0, err
	}
	return t.Never + t.Decoded + t.Tagged + t.unexported, nil
}
