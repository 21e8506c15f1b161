package storage

import (
	"encoding/binary"
	"testing"
)

// FuzzInt64Table drives Add/Get/Reserve/Len from the fuzz bytes against
// map[int64]int64. The first byte is the construction hint; then each op
// is an opcode byte and its operands: small keys (one signed byte, so
// zero, negatives and repeats are common) or full 8-byte keys, deltas of
// either sign including zero (which still inserts the key), and Reserve
// up to 64 Ki entries (a 2 MB table at most).
func FuzzInt64Table(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 2, 0}) // key 0: the side slot
	f.Add([]byte{200, 0, 5, 3, 0, 251, 253, 2, 5, 2, 251, 3, 255, 255})
	f.Add(append([]byte{0, 1}, make([]byte, 9)...))
	// 40 inserts into a minimum-size table: two growths on the way.
	grow := []byte{0}
	for k := byte(1); k <= 40; k++ {
		grow = append(grow, 0, k, 1)
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		hint := 0
		if len(ops) > 0 {
			hint, ops = int(ops[0]), ops[1:]
		}
		tbl := NewInt64Table(hint)
		ref := map[int64]int64{}
		add := func(key, delta int64) {
			tbl.Add(key, delta)
			ref[key] += delta
		}
		take := func(n int) ([]byte, bool) {
			if len(ops) < n {
				return nil, false
			}
			b := ops[:n]
			ops = ops[n:]
			return b, true
		}
		for {
			op, ok := take(1)
			if !ok {
				break
			}
			switch op[0] % 4 {
			case 0: // Add(small key, small delta)
				b, ok := take(2)
				if !ok {
					break
				}
				add(int64(int8(b[0])), int64(int8(b[1])))
			case 1: // Add(any key, small delta)
				b, ok := take(9)
				if !ok {
					break
				}
				add(int64(binary.LittleEndian.Uint64(b)), int64(int8(b[8])))
			case 2: // Get(small key)
				b, ok := take(1)
				if !ok {
					break
				}
				key := int64(int8(b[0]))
				if got, want := tbl.Get(key), ref[key]; got != want {
					t.Fatalf("Get(%d) = %d, want %d", key, got, want)
				}
			case 3: // Reserve
				b, ok := take(2)
				if !ok {
					break
				}
				n := int(binary.LittleEndian.Uint16(b))
				tbl.Reserve(n)
				if free := int(tbl.Bytes()/16) * 3 / 4; free < n {
					t.Fatalf("Reserve(%d) left room for %d entries", n, free)
				}
			}
			if tbl.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", tbl.Len(), len(ref))
			}
		}
		for key, want := range ref {
			if got := tbl.Get(key); got != want {
				t.Fatalf("final Get(%d) = %d, want %d", key, got, want)
			}
		}
	})
}
