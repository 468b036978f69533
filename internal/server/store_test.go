package server

import (
	"runtime"
	"strconv"
	"testing"

	elp2im "repro"
)

// TestSetPublishesStoredVector pins that a PUT to a new name publishes
// the caller's vector and never a placeholder: a reader that resolves
// each name the moment it appears, and reads it under the entry's read
// lock, must see the all-ones vector set stored, not zeros nobody PUT.
func TestSetPublishesStoredVector(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the reader spins on the writer's next name; needs two Ps")
	}
	const names = 200_000
	st := NewStore(1)
	ones := elp2im.NewBitVector(64)
	ones.Fill(true)
	keys := make([]string, names)
	for i := range keys {
		keys[i] = "v" + strconv.Itoa(i)
	}
	seen := make(chan int)
	go func() {
		bad := 0
		for _, name := range keys {
			e := st.lookup(name)
			for e == nil {
				e = st.lookup(name)
			}
			e.mu.RLock()
			if e.vec == nil || e.vec.Popcount() != 64 {
				bad++
			}
			e.mu.RUnlock()
		}
		seen <- bad
	}()
	for _, name := range keys {
		st.set(name, ones)
	}
	if bad := <-seen; bad != 0 {
		t.Fatalf("a reader saw %d of %d fresh names hold something other than the vector set stored", bad, names)
	}
}
