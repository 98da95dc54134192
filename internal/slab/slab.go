// Package slab carves many small, independently owned slices out of a few
// large allocations. The evaluation hot path (package sched's schedules,
// package evalengine's solutions and cache keys) produces tens of
// thousands of small retained objects per design run; carving them off a
// slab costs the allocator and the garbage collector one chunk per
// hundreds of objects instead of one object each.
package slab

import "unsafe"

// Chunk sizes in bytes. Chunks start small and double up to the cap, so a
// short-lived owner (a fresh sched.Build, a 20-process design job) pays
// for a few hundred bytes, not for a chunk sized for the cruise-controller
// search.
const (
	minChunkBytes = 512
	maxChunkBytes = 128 << 10
)

// Slab hands out fresh zeroed slices of T. Every region is handed out
// exactly once, so carved slices never alias each other and stay valid
// after the Slab moves on; a chunk stays reachable while any slice carved
// from it does. The zero value is ready to use. A Slab is not safe for
// concurrent use.
type Slab[T any] struct {
	free  []T
	chunk int // element count of the last chunk allocated
}

// Make returns k fresh zeroed elements with len == cap == k.
func (s *Slab[T]) Make(k int) []T {
	if len(s.free) < k {
		s.grow(k)
	}
	out := s.free[:k:k]
	s.free = s.free[k:]
	return out
}

// New returns a pointer to one fresh zeroed element.
func (s *Slab[T]) New() *T { return &s.Make(1)[0] }

// grow replaces the current chunk (its unused tail is dropped) with one
// twice the size of the last, clamped to [minChunkBytes, maxChunkBytes]
// and never smaller than k elements.
func (s *Slab[T]) grow(k int) {
	var zero T
	size := max(int(unsafe.Sizeof(zero)), 1)
	s.chunk = max(min(max(2*s.chunk, minChunkBytes/size), maxChunkBytes/size), k, 1)
	s.free = make([]T, s.chunk)
}
