package qcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New[int](100, 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	if !c.Put("a", 1, 1) {
		t.Fatal("put rejected")
	}
	v, ok := c.Get("a")
	if !ok || v != 1 {
		t.Fatalf("got %v,%v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Cost != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[string](3, 1)
	c.Put("a", "A", 1)
	c.Put("b", "B", 1)
	c.Put("c", "C", 1)
	// Touch "a" so "b" is now the coldest.
	c.Get("a")
	c.Put("d", "D", 1)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestCostBudget(t *testing.T) {
	c := New[int](10, 1)
	c.Put("big", 1, 8)
	c.Put("small", 2, 2)
	if st := c.Stats(); st.Cost != 10 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// 5 over budget: evicts from the cold end until it fits.
	c.Put("mid", 3, 5)
	st := c.Stats()
	if st.Cost > 10 {
		t.Fatalf("cost %d over budget", st.Cost)
	}
	if _, ok := c.Get("big"); ok {
		t.Fatal("cold big entry should have been evicted")
	}
	if _, ok := c.Get("mid"); !ok {
		t.Fatal("fresh entry missing")
	}
}

func TestOversizedRejected(t *testing.T) {
	c := New[int](10, 4)
	if c.Put("huge", 1, 11) {
		t.Fatal("entry above the whole budget must be rejected")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestReplaceUpdatesCost(t *testing.T) {
	c := New[int](10, 1)
	c.Put("k", 1, 4)
	c.Put("k", 2, 6)
	st := c.Stats()
	if st.Entries != 1 || st.Cost != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if v, _ := c.Get("k"); v != 2 {
		t.Fatalf("v = %d", v)
	}
}

func TestDelete(t *testing.T) {
	c := New[int](10, 2)
	c.Put("k", 1, 3)
	c.Delete("k")
	c.Delete("absent")
	if st := c.Stats(); st.Entries != 0 || st.Cost != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeleteFunc(t *testing.T) {
	c := New[int](100, 4)
	for i := 0; i < 20; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, int64(i%3+1))
	}
	before := c.Stats()
	wantCost := before.Cost
	for i := 0; i < 20; i += 2 {
		wantCost -= int64(i%3 + 1)
	}
	if n := c.DeleteFunc(func(_ string, v int) bool { return v%2 == 0 }); n != 10 {
		t.Fatalf("DeleteFunc removed %d entries, want 10", n)
	}
	st := c.Stats()
	if st.Entries != 10 || st.Cost != wantCost || st.Evictions != before.Evictions {
		t.Fatalf("stats after DeleteFunc = %+v, want 10 entries at cost %d and no evictions", st, wantCost)
	}
	for i := 0; i < 20; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok != (i%2 == 1) {
			t.Fatalf("k%d present = %v", i, ok)
		}
	}
	// The LRU lists survive the unlinking: filling up evicts cleanly.
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("n%d", i), i, 1)
	}
	if st := c.Stats(); st.Cost > st.Budget {
		t.Fatalf("over budget after refill: %+v", st)
	}
}

func TestZeroBudgetStoresNothing(t *testing.T) {
	c := New[int](0, 4)
	if c.Put("k", 1, 1) {
		t.Fatal("zero-budget cache stored an entry")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit in zero-budget cache")
	}
}

// TestConcurrentHammer drives all operations from many goroutines; run
// under -race this checks the sharded locking, and the final accounting
// must balance.
func TestConcurrentHammer(t *testing.T) {
	c := New[int](256, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("key-%d", (g*7+i)%96)
				switch i % 4 {
				case 0, 1:
					c.Get(k)
				case 2:
					c.Put(k, i, int64(i%5)+1)
				case 3:
					if i%32 == 3 {
						c.Delete(k)
					} else {
						c.Get(k)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Cost < 0 || st.Cost > 256 {
		t.Fatalf("cost accounting off: %+v", st)
	}
	// Re-sum actual entry costs to verify the atomic counter agrees.
	var sum int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			sum += e.cost
		}
		sh.mu.Unlock()
	}
	if sum != st.Cost {
		t.Fatalf("counter %d != summed cost %d", st.Cost, sum)
	}
}

func TestShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		c := New[int](10, tc.in)
		if len(c.shards) != tc.want {
			t.Fatalf("shards(%d) = %d, want %d", tc.in, len(c.shards), tc.want)
		}
	}
}
