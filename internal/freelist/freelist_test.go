package freelist

import (
	"sync"
	"testing"
)

// TestListKeepsFourAndHandsEachOutOnce: a list gives back what was put, no
// object twice, and drops what does not fit; goroutines share it safely.
func TestListKeepsFourAndHandsEachOutOnce(t *testing.T) {
	var l List[int]
	if l.Get() != nil {
		t.Fatal("the zero list is not empty")
	}
	objs := make([]*int, 6)
	for i := range objs {
		objs[i] = new(int)
		l.Put(objs[i])
	}
	seen := map[*int]bool{}
	for x := l.Get(); x != nil; x = l.Get() {
		if seen[x] {
			t.Fatal("an object came out twice")
		}
		seen[x] = true
	}
	if len(seen) != 4 {
		t.Fatalf("the list kept %d objects, want 4", len(seen))
	}

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				x := l.Get()
				if x == nil {
					x = new(int)
				}
				*x = g // the race detector reports two goroutines holding x
				l.Put(x)
			}
		}()
	}
	wg.Wait()
}
