package mesh

// cellIndex is the mesh's (i, j, level) → cell-index hash: one
// open-addressing table of parallel key and value arrays, multiplicative
// hashing and linear probing, held at a power-of-two capacity of at least
// twice the cell count so probe chains stay short. It is grow-only and
// reset in place, so rebuilding it on a mesh that does not grow allocates
// nothing; its size tracks the number of leaves, never the finest grid.
type cellIndex struct {
	keys []uint64
	vals []int32 // -1 marks an empty slot
	// shift turns the 64-bit product of the multiplicative hash into a
	// slot number (its top log2(len(keys)) bits).
	shift uint
	// distinct counts the keys inserted since the last reset; a key
	// inserted twice overwrites its value and counts once.
	distinct int
}

// hashMul is 2^64 / φ, the multiplier of Fibonacci hashing.
const hashMul = 0x9E3779B97F4A7C15

// reset empties the table and makes room for n keys.
func (t *cellIndex) reset(n int) {
	size, shift := 16, uint(60)
	for size < 2*n {
		size <<= 1
		shift--
	}
	if size > len(t.keys) {
		t.keys = make([]uint64, size)
		t.vals = make([]int32, size)
		t.shift = shift
	}
	for s := range t.vals {
		t.vals[s] = -1
	}
	t.distinct = 0
}

// insert maps k to v, overwriting an existing entry for k.
func (t *cellIndex) insert(k uint64, v int32) {
	mask := uint64(len(t.keys) - 1)
	for s := (k * hashMul) >> t.shift; ; s = (s + 1) & mask {
		if t.vals[s] < 0 {
			t.keys[s], t.vals[s] = k, v
			t.distinct++
			return
		}
		if t.keys[s] == k {
			t.vals[s] = v
			return
		}
	}
}

// lookup returns the value stored for k, or -1.
func (t *cellIndex) lookup(k uint64) int32 {
	mask := uint64(len(t.keys) - 1)
	for s := (k * hashMul) >> t.shift; ; s = (s + 1) & mask {
		v := t.vals[s]
		if v < 0 || t.keys[s] == k {
			return v
		}
	}
}
