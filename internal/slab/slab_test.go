package slab

import "testing"

// TestMakeHandsOutDisjointZeroedRegions checks the slab contract: every
// carve is zeroed, has len == cap (so appends cannot spill into a
// neighbour), and never overlaps an earlier carve.
func TestMakeHandsOutDisjointZeroedRegions(t *testing.T) {
	var s Slab[int]
	var carved [][]int
	for i := 0; i < 2000; i++ {
		k := 1 + i%37
		c := s.Make(k)
		if len(c) != k || cap(c) != k {
			t.Fatalf("carve %d: len %d cap %d, want %d", i, len(c), cap(c), k)
		}
		for j := range c {
			if c[j] != 0 {
				t.Fatalf("carve %d not zeroed", i)
			}
			c[j] = i + 1
		}
		carved = append(carved, c)
	}
	for i, c := range carved {
		for _, v := range c {
			if v != i+1 {
				t.Fatalf("carve %d was overwritten by carve %d", i, v-1)
			}
		}
	}
}

// TestGrowIsGeometric checks the chunk sizes: they start at minChunkBytes,
// double up to maxChunkBytes, and a request larger than the current size
// gets a chunk of its own size.
func TestGrowIsGeometric(t *testing.T) {
	var s Slab[float64]
	s.Make(1)
	if s.chunk != minChunkBytes/8 {
		t.Fatalf("first chunk %d elements, want %d", s.chunk, minChunkBytes/8)
	}
	s.Make(s.chunk) // does not fit the rest: next chunk doubles
	if s.chunk != 2*minChunkBytes/8 {
		t.Fatalf("second chunk %d elements, want %d", s.chunk, 2*minChunkBytes/8)
	}
	for i := 0; i < 20; i++ {
		s.Make(len(s.free) + 1)
	}
	if s.chunk != maxChunkBytes/8 {
		t.Fatalf("chunk %d elements after many refills, want the cap %d", s.chunk, maxChunkBytes/8)
	}
	big := maxChunkBytes/8 + 5
	if c := s.Make(big); len(c) != big || s.chunk != big {
		t.Fatalf("oversized carve: len %d, chunk %d, want %d", len(c), s.chunk, big)
	}
}
