// Package freelist keeps objects that are costly to build — a gzip
// writer's tables, a remap the size of a result's term table — for reuse
// across requests. Unlike a sync.Pool, which the garbage collector empties,
// a List keeps what it holds until it is taken, so such an object is built
// once per slot rather than once per collection cycle; and unlike a
// buffered channel its zero value is ready, so an idle program allocates
// nothing for it.
package freelist

import "sync/atomic"

// List holds up to four objects: as many as the requests a process of this
// module keeps in flight at once. Objects put beyond that are dropped. It
// is safe for concurrent use.
type List[T any] struct {
	slots [4]atomic.Pointer[T]
}

// Get takes an object from the list, or returns nil when it is empty.
func (l *List[T]) Get() *T {
	for i := range l.slots {
		if x := l.slots[i].Swap(nil); x != nil {
			return x
		}
	}
	return nil
}

// Put keeps x for a later Get, or drops it when the list is full.
func (l *List[T]) Put(x *T) {
	for i := range l.slots {
		if l.slots[i].CompareAndSwap(nil, x) {
			return
		}
	}
}
